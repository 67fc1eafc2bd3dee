"""The library checks its input with explicit raises: an ``assert``
statement is dropped under ``python -O``, and the check with it."""

import ast
from pathlib import Path

import spinor_s3

PACKAGE = Path(spinor_s3.__file__).parent


def test_the_library_has_no_assert_statement():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
