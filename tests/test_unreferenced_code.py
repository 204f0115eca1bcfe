"""Guard against code that only tests run.

Lists every function and method defined under ``src/phalanx`` whose name
nothing else under ``src/`` references, and checks that list against a
short allowlist whose entries each say why the code earns its place.
Names are matched, not resolved: a method counts as used when any
attribute of that name is read, a module function when its name is read,
imported by another module or read as an attribute. Dunder methods are
called by Python itself and are skipped; the package's own re-exports in
``__init__.py`` do not count as a use.
"""

import ast
from pathlib import Path

import phalanx

ALLOWED = {
    "consensus.Consenter.blocked":
        "test seam: tests read whether a consenter stalls on a missing log",
    "executor.Executor.reliable_precedes":
        "tracer hook: perfbench counts its calls; tests check reliable order with it",
    "wire.encode_message":
        "perfbench counts wire bytes per message kind with it; test_wire pins its bytes",
}


def unreferenced_definitions(package_dir: Path) -> set[str]:
    defs: list[tuple[str, str, bool]] = []
    names: set[str] = set()
    attrs: set[str] = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for item in tree.body:
            if isinstance(item, ast.FunctionDef):
                defs.append((f"{path.stem}.{item.name}", item.name, False))
            elif isinstance(item, ast.ClassDef):
                for sub in item.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs.append((f"{path.stem}.{item.name}.{sub.name}", sub.name, True))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names.update(alias.name for alias in node.names)
    return {
        qual
        for qual, name, is_method in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in attrs
        and (is_method or name not in names)
    }


def test_only_allowlisted_code_is_unreferenced():
    package_dir = Path(phalanx.__file__).parent
    assert unreferenced_definitions(package_dir) == set(ALLOWED)
