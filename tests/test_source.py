"""Checks on the package source itself."""

import ast
import pathlib
import re

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


def test_no_recursive_functions():
    # Searches run on explicit stacks: a function that calls itself is as
    # deep as its input, and large families would pass the recursion limit.
    found = []
    for path in sorted(pathlib.Path(weakcross.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)
                          and node.func.id == func.name]
    assert found == []


def test_version_matches_pyproject():
    # Reports embed weakcross.__version__; pyproject.toml repeats it.  Read
    # with a regex, since Python 3.10 has no tomllib.
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    found = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, re.MULTILINE)
    assert found == [weakcross.__version__]
