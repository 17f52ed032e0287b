"""Checks on the package source, its public names and the README example."""

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


def test_all_names_exist():
    # ``from weakcross import *`` fails on a name that ``__all__`` lists
    # but the package no longer defines.
    for name in weakcross.__all__:
        getattr(weakcross, name)


def test_readme_library_example_runs():
    # The first ``python`` block of README.md is the library example; run
    # it as written, so a renamed or removed export breaks this test.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["verdict"].verdict in ("satisfied", "violated", "vacuous")
