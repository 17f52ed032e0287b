"""Checks on the package source, its public names and the README examples."""

import ast
import importlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import weakcross
from weakcross.cli import main


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


def test_import_loads_no_heavy_modules():
    # Every CLI command starts a fresh interpreter, so the import is part
    # of its wall time.  dataclasses alone pulls in inspect, ast, dis and
    # tokenize; -S keeps site .pth files from loading any of them first.
    src = pathlib.Path(weakcross.__file__).resolve().parents[1]
    probe = ("import sys, weakcross, weakcross.cli; "
             "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.split() == []


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
    # The package's list is its modules' lists: every public name of every
    # module that declares one, each once.
    assert len(set(weakcross.__all__)) == len(weakcross.__all__)
    package = pathlib.Path(weakcross.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"weakcross.{path.stem}")
        missing = set(getattr(module, "__all__", ())) - set(weakcross.__all__)
        assert not missing, (path.name, sorted(missing))


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


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Every ``weakcross ...`` line of README.md runs as written, from a
    # directory holding the F.fam and G.fam it reads, and exits with a
    # verdict code, not a usage or internal error.  F.fam's 3-sets hold a
    # sunflower with kernel {1} and four petals, the (1 + k') * ell that
    # ``refute`` needs against G.fam's 3-sets at ell = 1.
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.fam").write_text("10 3\n1 2 3\n1 4 5\n1 6 7\n1 8 9\n2 4 6\n3 5 10\n2 5 8\n")
    (tmp_path / "G.fam").write_text("10 3\n1 2 3\n1 2 4\n2 4 6\n5 7 9\n")
    reports = {}
    for line in re.findall(r"^weakcross .*$", readme, re.MULTILINE):
        code = main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), line
        reports[line] = json.loads(out)
    assert len(reports) >= 15
    refuted = [r["result"] for line, r in reports.items() if line.startswith("weakcross refute ")]
    assert refuted and all(r["witness"] for r in refuted)
    # The numbers in the comment above the ell = 2 example are its report's.
    nodes, best, line = re.search(
        r"^# ell = 2, exhaustive: ([\d,]+) nodes, best product (\d+) = the star's.*\n(weakcross .*)$",
        readme, re.MULTILINE).groups()
    result = reports[line]["result"]
    assert result["exhaustive"] is True
    assert result["nodes_explored"] == int(nodes.replace(",", ""))
    assert result["best_product"] == result["star_product"] == best
