"""Trust-path checks must survive ``python -O``, which strips ``assert``, and
raise PropertyViolation (exit 3) rather than a bare AssertionError."""

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


def test_package_raises_no_assertion_error():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise AssertionError on the trust path (use PropertyViolation): {found}"
