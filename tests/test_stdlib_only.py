"""Guard: the package imports nothing outside the standard library.

Walks every ``import`` under ``src/phalanx`` with ``ast``, imports inside
functions included, and requires each to be a standard-library module or
``phalanx`` itself, so a runtime dependency cannot come back unnoticed.
"""

import ast
import sys
import textwrap
from pathlib import Path

import phalanx


def third_party_imports(package_dir: Path) -> list[str]:
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "phalanx" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {module}")
    return found


def test_package_imports_only_the_standard_library():
    assert third_party_imports(Path(phalanx.__file__).parent) == []


def test_imports_inside_functions_are_seen(tmp_path):
    (tmp_path / "signer.py").write_text(textwrap.dedent("""\
        import hashlib
        from . import types
        from phalanx.types import Digest


        def keys():
            from cryptography.hazmat.primitives import hashes
            import numpy.linalg
            return hashes, numpy
    """))
    assert third_party_imports(tmp_path) == [
        "signer.py:7 cryptography.hazmat.primitives",
        "signer.py:8 numpy.linalg",
    ]
