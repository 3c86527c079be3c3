"""Every module- or class-level name the package defines must be used
somewhere in ``src/``, ``tests/`` or ``perfbench/``: a function, method,
class, constant or field that nothing reads is dead code, and dead code is
deleted rather than kept in step.

A use is a read of the name (``name``, ``obj.name``), an import of it, a
keyword argument spelled like it, or the name inside a string literal (for
``getattr``/``setattr`` and ``__all__``); docstrings do not count.  Dunder
names are exempt, since the language calls them.  A CLI handler is used by
the command table that names it.

Likewise every name a module in ``src/`` or ``tests/`` imports must be read
in that module.  The package's ``__init__.py`` is exempt: its imports are
the re-exports behind ``__all__``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dualshare"
CORPUS = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)
IMPORTERS = sorted(
    path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
    if path != PACKAGE / "__init__.py"
)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree: ast.Module):
    """(name, line) of every module-level and class-level definition."""
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, node.lineno
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield target.id, node.lineno
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id, node.lineno


def _uses(tree: ast.Module) -> Counter:
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses.update(node.name.split("."))
            if node.asname:
                uses[node.asname] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            uses[node.arg] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            uses.update(_IDENTIFIER.findall(node.value))
    return uses


def test_every_package_definition_is_used():
    assert PACKAGE.is_dir() and CORPUS
    uses: Counter = Counter()
    for path in CORPUS:
        uses.update(_uses(ast.parse(path.read_text(), filename=str(path))))
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if not (name.startswith("__") and name.endswith("__")) and not uses[name]
    ]
    assert not dead, f"defined in src/dualshare but used nowhere: {dead}"


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
