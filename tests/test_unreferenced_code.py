"""Guard against code that only tests run.

Lists every function and method defined under ``src/phalanx`` whose name
nothing else under ``src/`` references, and checks that list against a
short allowlist whose entries each say why the code earns its place.

A read ``obj.x`` inside a function is resolved where the receiver's class
is known: ``self`` in a method is its class; a parameter or local name
annotated with the package's classes is those classes; a local name
whose every assignment is a call of one of the package's classes is
those classes; and ``obj.a`` is the classes an attribute ``a`` of
``obj``'s class is annotated with (in the class body or as ``self.a: T``)
or, unannotated, is assigned by constructor call in every ``self.a = ...``
of that class. An annotation counts when it names package classes only,
optionally with ``None``, ``Optional[...]`` or ``|``. A resolved read of
``x`` on class C counts as a use of the first class in C's MRO under the
package that defines ``x``, and of every override of ``x`` in C's
subclasses there, since the object may be one of them. Other reads are
matched by name: a method counts as used when any attribute of that name
is read on an unresolved receiver, a module function when its name is
read, imported by another module or read as an attribute. Dunder methods
are called by Python itself and are skipped; the package's own
re-exports in ``__init__.py`` do not count as a use.
"""

import ast
import textwrap
from pathlib import Path
from typing import Optional

import phalanx

ALLOWED = {
    "authenticators.Authenticator.aggregate":
        "tracer hook: perfbench spans it; tests build certificates through this "
        "checked entry point",
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
        # Attribute name -> its annotation, or the values ``self.a = ...``
        # assigns it (None once any other binding is seen).
        self.annotated: dict[str, ast.expr] = {}
        self.assigned: dict[str, Optional[list[ast.expr]]] = {}

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


def _plain_assignments(tree: ast.AST) -> dict[ast.expr, ast.expr]:
    """Target -> value of every ``target = value`` with one target."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            found[node.targets[0]] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            found[node.target] = node.value
    return found


def _bind(bound: dict, key: str, target: ast.expr,
          assignments: dict[ast.expr, ast.expr]) -> None:
    """Add the value ``target`` is assigned to ``bound[key]``; None once
    ``key`` has a binding that is not a plain assignment."""
    values = bound.setdefault(key, [])
    if values is not None and target in assignments:
        values.append(assignments[target])
    else:
        bound[key] = None


def _is_self_attr(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _functions(scope: ast.AST):
    return [item for item in scope.body if isinstance(item, ast.FunctionDef)]


class _Package:
    """The package's classes, and which of them a name or attribute holds."""

    def __init__(self, classes: list[_Class], assignments: dict[ast.expr, ast.expr]):
        self.by_name: dict[str, list[_Class]] = {}
        for klass in classes:
            self.by_name.setdefault(klass.node.name, []).append(klass)
        for klass in classes:
            for base in klass.node.bases:
                if isinstance(base, ast.Name):
                    for resolved in self.named(base.id, klass.module):
                        klass.bases.append(resolved)
                        resolved.subclasses.append(klass)
            for item in klass.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    klass.annotated[item.target.id] = item.annotation
            for method in _functions(klass.node):
                for node in ast.walk(method):
                    if isinstance(node, ast.AnnAssign) and _is_self_attr(node.target):
                        klass.annotated[node.target.attr] = node.annotation
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                            and _is_self_attr(node):
                        _bind(klass.assigned, node.attr, node, assignments)

    def named(self, name: str, module: str) -> list[_Class]:
        """The package class ``name`` seen from ``module`` (own module first),
        as a list of at most one."""
        candidates = self.by_name.get(name, [])
        local = [c for c in candidates if c.module == module]
        return (local or candidates)[:1]

    def annotated_classes(self, annotation: ast.expr, module: str) -> Optional[set]:
        """The classes an annotation names; None unless it names package
        classes only, optionally with ``None``, ``Optional`` or ``|``."""
        if isinstance(annotation, ast.Constant):
            if annotation.value is None:
                return set()
            if isinstance(annotation.value, str):
                parsed = ast.parse(annotation.value, mode="eval").body
                return self.annotated_classes(parsed, module)
        elif isinstance(annotation, ast.Name):
            return set(self.named(annotation.id, module)) or None
        elif isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            left = self.annotated_classes(annotation.left, module)
            right = self.annotated_classes(annotation.right, module)
            if left is not None and right is not None:
                return left | right
        elif (isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name)
              and annotation.value.id == "Optional"):
            return self.annotated_classes(annotation.slice, module)
        return None

    def constructed_classes(self, values: Optional[list], module: str) -> Optional[set]:
        """The classes the values construct; None unless every value is a
        call of a package class."""
        if not values:
            return None
        found: set = set()
        for value in values:
            if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and self.named(value.func.id, module)):
                return None
            found.update(self.named(value.func.id, module))
        return found

    def attribute_classes(self, klass: _Class, attr: str) -> Optional[set]:
        """The classes attribute ``attr`` of a ``klass`` object holds."""
        for owner in klass.mro():
            if attr in owner.annotated:
                return self.annotated_classes(owner.annotated[attr], owner.module)
            if attr in owner.assigned:
                return self.constructed_classes(owner.assigned[attr], owner.module)
        return None


class _Scope:
    """The classes each name inside one function is known to hold."""

    def __init__(self, package: _Package, module: str, function: ast.FunctionDef,
                 klass: Optional[_Class], assignments: dict[ast.expr, ast.expr]):
        self.package = package
        args = function.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        self.names: dict[str, Optional[set]] = {}
        for arg in params:
            self.names[arg.arg] = (None if arg.annotation is None
                                   else package.annotated_classes(arg.annotation, module))
        if klass is not None and params and params[0].arg == "self":
            self.names["self"] = {klass}
        values: dict[str, Optional[list]] = {}
        for node in ast.walk(function):
            if isinstance(node, ast.arg) and node not in params:
                self.names[node.arg] = None  # a nested function's or a lambda's
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.names[node.target.id] = package.annotated_classes(node.annotation, module)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                _bind(values, node.id, node, assignments)
        for name, bound in values.items():
            if name not in self.names:
                self.names[name] = package.constructed_classes(bound, module)

    def classes_of(self, node: ast.expr) -> Optional[set]:
        """The classes the expression's value is known to be one of."""
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            found: set = set()
            for klass in self.classes_of(node.value) or ():
                classes = self.package.attribute_classes(klass, node.attr)
                if classes is None:
                    return None
                found |= classes
            return found or None
        return None


def unreferenced_definitions(package_dir: Path) -> set[str]:
    defs: list[tuple[str, str, bool]] = []
    names: set[str] = set()
    attrs: set[str] = set()
    used: set[str] = set()
    classes: list[_Class] = []
    trees = {}
    assignments: dict[ast.expr, ast.expr] = {}
    for path in sorted(package_dir.glob("*.py")):
        tree = trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        assignments.update(_plain_assignments(tree))
        for item in tree.body:
            if isinstance(item, ast.FunctionDef):
                defs.append((f"{path.stem}.{item.name}", item.name, False))
            elif isinstance(item, ast.ClassDef):
                classes.append(_Class(path.stem, item))
                for sub in item.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs.append((f"{path.stem}.{item.name}.{sub.name}", sub.name, True))
    package = _Package(classes, assignments)

    # A function nested in another is resolved as part of it.
    scopes = [(path.stem, function, None)
              for path, tree in trees.items() for function in _functions(tree)]
    scopes += [(klass.module, function, klass)
               for klass in classes for function in _functions(klass.node)]
    resolved_nodes = set()
    for module, function, klass in scopes:
        scope = _Scope(package, module, function, klass, assignments)
        for node in ast.walk(function):
            if not isinstance(node, ast.Attribute):
                continue
            receivers = scope.classes_of(node.value)
            if not receivers:
                continue
            resolved_nodes.add(node)
            for receiver in receivers:
                owner = next((c for c in receiver.mro() if node.attr in c.methods), None)
                if owner is not None:
                    used.add(f"{owner.qual}.{node.attr}")
                for sub in receiver.descendants():
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


def test_typed_receiver_does_not_cover_a_same_named_method(tmp_path):
    # Every .total read is on a Ledger: an annotated parameter, a local
    # built by Ledger(), an attribute assigned Ledger(). The one .close read
    # is on an attribute annotated Optional[Draft]. box is unannotated, so
    # box.seal() still counts as a use of every method named seal.
    (tmp_path / "books.py").write_text(textwrap.dedent("""\
        from typing import Optional


        class Ledger:
            def total(self):
                return 1


        class Draft:
            def total(self):
                return 2

            def close(self):
                return 3


        class Crate:
            def close(self):
                return 4

            def seal(self):
                return 5


        class Shelf:
            def __init__(self):
                self.ledger = Ledger()
                self.draft: Optional[Draft] = None


        def audit(ledger: Ledger, shelf: Shelf, box):
            fresh = Ledger()
            return (ledger.total() + fresh.total() + shelf.ledger.total()
                    + shelf.draft.close() + box.seal())
    """))
    assert unreferenced_definitions(tmp_path) == {
        "books.Draft.total", "books.Crate.close", "books.audit"}
