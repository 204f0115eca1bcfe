"""Guard against code that only tests run.

Lists every function and method defined under ``src/phalanx`` whose name
nothing else under ``src/`` references, and checks that list against a
short allowlist whose entries each say why the code earns its place.

Inside a class, ``self.x`` is resolved to the first class in that class's
MRO under the package that defines ``x``, and to every override of ``x`` in
its subclasses there, since ``self`` may be one of them. Other references
are matched by name, not resolved: a method counts as used when any
attribute of that name is read on anything but ``self``, a module function
when its name is read, imported by another module or read as an
attribute. Dunder methods are called by Python itself and are skipped; the
package's own re-exports in ``__init__.py`` do not count as a use.
"""

import ast
import textwrap
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


class _Class:
    def __init__(self, module: str, node: ast.ClassDef):
        self.qual = f"{module}.{node.name}"
        self.module = module
        self.node = node
        self.methods = {
            sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)
        }
        self.bases: list["_Class"] = []
        self.subclasses: list["_Class"] = []

    def mro(self) -> list["_Class"]:
        order = [self]
        for base in self.bases:
            order += [klass for klass in base.mro() if klass not in order]
        return order

    def descendants(self) -> list["_Class"]:
        found: list[_Class] = []
        for sub in self.subclasses:
            found += [klass for klass in [sub, *sub.descendants()] if klass not in found]
        return found


def _link_bases(classes: list[_Class]) -> None:
    """Resolve base-class names to the package's classes, own module first."""
    by_name: dict[str, list[_Class]] = {}
    for klass in classes:
        by_name.setdefault(klass.node.name, []).append(klass)
    for klass in classes:
        for base in klass.node.bases:
            if not isinstance(base, ast.Name):
                continue
            candidates = by_name.get(base.id, [])
            local = [c for c in candidates if c.module == klass.module]
            for resolved in (local or candidates)[:1]:
                klass.bases.append(resolved)
                resolved.subclasses.append(klass)


def _self_reads(klass: _Class) -> set[ast.Attribute]:
    """The ``self.x`` nodes in the class's methods."""
    nodes = set()
    for sub in klass.node.body:
        if not isinstance(sub, ast.FunctionDef):
            continue
        for node in ast.walk(sub):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                nodes.add(node)
    return nodes


def unreferenced_definitions(package_dir: Path) -> set[str]:
    defs: list[tuple[str, str, bool]] = []
    names: set[str] = set()
    attrs: set[str] = set()
    used: set[str] = set()
    classes: list[_Class] = []
    trees = {}
    for path in sorted(package_dir.glob("*.py")):
        tree = trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        for item in tree.body:
            if isinstance(item, ast.FunctionDef):
                defs.append((f"{path.stem}.{item.name}", item.name, False))
            elif isinstance(item, ast.ClassDef):
                classes.append(_Class(path.stem, item))
                for sub in item.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs.append((f"{path.stem}.{item.name}.{sub.name}", sub.name, True))
    _link_bases(classes)

    resolved_nodes = set()
    for klass in classes:
        for node in _self_reads(klass):
            resolved_nodes.add(node)
            owner = next((c for c in klass.mro() if node.attr in c.methods), None)
            if owner is not None:
                used.add(f"{owner.qual}.{node.attr}")
            for sub in klass.descendants():
                if node.attr in sub.methods:
                    used.add(f"{sub.qual}.{node.attr}")

    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node not in resolved_nodes:
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names.update(alias.name for alias in node.names)
    return {
        qual
        for qual, name, is_method in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in attrs
        and qual not in used
        and (is_method or name not in names)
    }


def test_only_allowlisted_code_is_unreferenced():
    package_dir = Path(phalanx.__file__).parent
    assert unreferenced_definitions(package_dir) == set(ALLOWED)


def test_self_call_does_not_cover_a_same_named_method(tmp_path):
    # Alpha calls its own step; Beta's step shares the name but nothing calls
    # it. Gamma overrides Alpha's step, so Alpha's self.step() may run it.
    (tmp_path / "shapes.py").write_text(textwrap.dedent("""\
        class Alpha:
            def run(self):
                return self.step()

            def step(self):
                return 1


        class Beta:
            def step(self):
                return 2


        class Gamma(Alpha):
            def step(self):
                return 3


        def main():
            return Alpha().run()
    """))
    assert unreferenced_definitions(tmp_path) == {"shapes.Beta.step", "shapes.main"}
