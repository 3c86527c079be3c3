"""Trust-path checks must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import dualshare

SOURCES = sorted(Path(dualshare.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements on the trust path: {found}"
