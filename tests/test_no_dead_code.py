"""Every module- or class-level name the package defines must be used
somewhere in ``src/`` or ``perfbench/``: a function, method, class,
constant or field that nothing reads is dead code, and dead code is deleted
rather than kept in step.  Reads from ``tests/`` do not count, so a helper
that only tests call lives in ``tests/oracles.py``, not in the package.  An
entry in ``__init__._EXPORTS`` is not a use either: a public name that no
command reaches is dead too.

A use is a read of the name (``name``, ``obj.name``), an import of it, a
keyword argument spelled like it, or the name inside a string literal (for
``getattr``/``setattr`` and ``__all__``); docstrings do not count.  A
class's fields are the strings of its ``__slots__``, and a field is used
only through an attribute read ``obj.name`` or a string elsewhere: a local
variable or keyword argument that shares its name reads no field.  Dunder
names are exempt, since the language calls them.  A CLI handler is used by
the command table that names it.

A read ``obj.name`` is matched by name, not by owner, so a class member
whose name another class also defines counts as used when only the other
one is read.  Every name defined in two or more classes of the package must
therefore be listed, with all its owners, in ``SHARED_CLASS_MEMBERS``; an
entry is added only after checking that ``src/`` or ``perfbench/`` reads
each owner's member.  A new owner fails the check, and so does an entry that
no longer matches the package.

Likewise every name a module in ``src/`` or ``tests/`` imports must be read
in that module.  The package's ``__init__.py`` is exempt: its imports are
the re-exports behind ``__all__``.

A defaulted parameter of a package function that no call in ``src/`` or
``perfbench/`` sets is a knob with one value: it becomes a constant, and
tests that want another value build it themselves.  Calls are matched by
name, as uses are, a class name standing for its ``__init__``; a call sets a
parameter by keyword, by position, or through ``*args``/``**kwargs``, and an
argument spelled as the parameter's default sets nothing.  The exceptions
are listed in ``ONE_VALUE_PARAMETERS`` with their reasons.
"""

import ast
import re
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dualshare"
CORPUS = sorted(
    path for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")
)
IMPORTERS = sorted(
    path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
    if path != PACKAGE / "__init__.py"
)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# name -> every "module.Class" that defines it; each owner's member is read
SHARED_CLASS_MEMBERS = {
    "K": {"approxlab.RampParams", "symcheb.SymmetrizedTest"},
    "degree": {"ratpoly.RationalPoly", "simplex.MinimaxSolution", "weightdeg.WeightDegreeReport"},
    "epsilon": {"dualand.DualAndWitness", "simplex.MinimaxSolution", "symcheb.AmplificationParams"},
    "from_coeffs": {"ratpoly.ChebyshevExpansion", "ratpoly.RationalPoly"},
    "n": {"approxlab.RampParams", "boolcube.SymmetricDistribution", "dualand.DualAndParams",
          "dualand.WeightVector", "symcheb.SymmetrizedTest", "weightdeg.SymmetricSpec",
          "weightdeg._BlockTables"},
    "of": {"boolcube.SymmetricDistribution", "dualand.BitCountClasses",
           "dualand.WeightVector", "ratpoly.RationalPoly"},
    "poly": {"simplex.MinimaxSolution", "symcheb.SymmetrizedTest"},
    "w": {"dualand.DualAndParams", "symcheb.SymmetrizedTest"},
}

# "module.function parameter" -> why its default is the only value src/ passes
ONE_VALUE_PARAMETERS = {
    "cli.main argv": "the in-process entry point: tests and embedding callers pass a "
                     "command line, the program itself runs sys.argv",
}


def _slots(node: ast.stmt) -> list[ast.Constant]:
    """The strings of a ``__slots__ = (...)`` assignment; none for any other node."""
    if (isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["__slots__"]
            and isinstance(node.value, (ast.Tuple, ast.List))):
        return [elt for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
    return []


def _defined(body):
    """(name, line, is field) of every definition directly in ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, False
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, False
            for slot in _slots(node):
                yield slot.value, slot.lineno, True
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.lineno, False


def _definitions(tree: ast.Module):
    """(name, line, is field) of every module-level and class-level definition."""
    yield from _defined(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _defined(node.body)


def _uses(tree: ast.Module) -> tuple[Counter, Counter]:
    """(every use of a name, the uses that can read a field)."""
    # docstrings, and the __slots__ strings, which define fields
    skipped = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    skipped.update(id(slot) for node in ast.walk(tree) for slot in _slots(node))
    # the keys of ``__init__._EXPORTS``, which export names rather than use them
    skipped.update(
        id(key) for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and [getattr(target, "id", None) for target in node.targets] == ["_EXPORTS"]
        for key in node.value.keys
    )
    uses: Counter = Counter()
    field_uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            uses[node.attr] += 1
            field_uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses.update(node.name.split("."))
            if node.asname:
                uses[node.asname] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            uses[node.arg] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped):
            uses.update(_IDENTIFIER.findall(node.value))
            field_uses.update(_IDENTIFIER.findall(node.value))
    return uses, field_uses


def test_every_package_definition_is_used():
    assert PACKAGE.is_dir() and CORPUS
    uses: Counter = Counter()
    field_uses: Counter = Counter()
    for path in CORPUS:
        found, fields = _uses(ast.parse(path.read_text(), filename=str(path)))
        uses.update(found)
        field_uses.update(fields)
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line, is_field in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if not (name.startswith("__") and name.endswith("__"))
        and not (field_uses if is_field else uses)[name]
    ]
    assert not dead, f"defined in src/dualshare but used nowhere: {dead}"


def test_every_shared_class_member_is_listed_with_its_owners():
    owners = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                for name, _, _ in _defined(node.body):
                    if not (name.startswith("__") and name.endswith("__")):
                        owners[name].add(f"{path.stem}.{node.name}")
    shared = {name: found for name, found in owners.items() if len(found) > 1}
    unlisted = {name: sorted(found) for name, found in shared.items()
                if SHARED_CLASS_MEMBERS.get(name) != found}
    stale = sorted(set(SHARED_CLASS_MEMBERS) - set(shared))
    assert not unlisted, f"class members sharing a name, not listed with these owners: {unlisted}"
    assert not stale, f"SHARED_CLASS_MEMBERS entries no class pair defines any more: {stale}"


def _unread_imports(tree: ast.Module):
    """(name, line) of every name the module imports but never reads."""
    reads = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in reads:
                    yield name, node.lineno


def test_every_import_is_read():
    assert IMPORTERS
    unread = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in IMPORTERS
        for name, line in _unread_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not unread, f"imported but never read: {unread}"


def _defaulted_parameters(tree: ast.Module):
    """(called name, parameter, position, qualified name, default) of every
    defaulted parameter of a function or method: the position counts a
    call's positional arguments, so a method's self is not counted, and a
    keyword-only parameter has none (None)."""
    scopes = [(tree.body, None)] + [(node.body, node) for node in ast.walk(tree)
                                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
    for body, owner in scopes:
        for node in body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            decorators = {getattr(d, "id", None) for d in node.decorator_list}
            if isinstance(owner, ast.ClassDef) and "staticmethod" not in decorators:
                positional = positional[1:]  # self, or cls
            name = owner.name if node.name == "__init__" else node.name
            qualified = (f"{owner.name}.{node.name}" if isinstance(owner, ast.ClassDef)
                         else node.name)
            first = len(positional) - len(args.defaults)
            for i, (arg, default) in enumerate(zip(positional[first:], args.defaults), first):
                yield name, arg.arg, i, qualified, default
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None, qualified, default


def _sets(call: ast.Call, parameter: str, position: int | None, default: ast.expr) -> bool:
    """Whether ``call`` can pass ``parameter`` (at ``position``, when it has
    one) a value other than ``default``: an argument spelled as the default
    (``f(x, -1)`` for ``lo=-1``) sets nothing."""
    def other(value: ast.expr) -> bool:
        return ast.dump(value) != ast.dump(default)

    if any(kw.arg is None or kw.arg == parameter and other(kw.value) for kw in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args[:position + 1]):
        return True
    return len(call.args) > position and other(call.args[position])


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = defaultdict(list)
    for path in CORPUS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", None) or getattr(func, "attr", None)].append(node)
    unset = sorted(
        f"{path.stem}.{qualified} {parameter}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, parameter, position, qualified, default in _defaulted_parameters(
            ast.parse(path.read_text(), filename=str(path)))
        if not any(_sets(call, parameter, position, default) for call in calls[name])
    )
    assert unset == sorted(ONE_VALUE_PARAMETERS), (
        f"defaulted parameters that no call in src/ or perfbench/ sets: {unset}")
