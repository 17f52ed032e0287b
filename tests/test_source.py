"""Checks on the package source itself."""

import ast
import pathlib

import weakcross


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so a certificate re-check
    # written as one would let a wrong witness through unchecked.
    found = []
    for path in sorted(pathlib.Path(weakcross.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
