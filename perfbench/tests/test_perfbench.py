"""Self-test of the benchmark: its checks catch wrong reports, tracing
changes no report, and the runner keeps its output contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import spans  # noqa: E402
import workloads  # noqa: E402
from weakcross import cli, kernels  # noqa: E402


def call(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def read_fam(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")[1:]
    return workloads.canon(tuple(map(int, line.split())) for line in lines if line)


def find(ops, label_start):
    return next(op for op in ops if op.label.startswith(label_start))


def tampered(stdout, edit):
    report = json.loads(stdout)
    edit(report["result"])
    return json.dumps(report)


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = workloads.build("verify-batch", 7, str(a))
    ops_b = workloads.build("verify-batch", 7, str(b))
    assert [op.label for op in ops_a] == [op.label for op in ops_b]
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ops_c = workloads.build("verify-batch", 8, str(tmp_path))
    assert [op.label for op in ops_c] != [op.label for op in ops_a]


def test_wrong_best_product_fails():
    op = find(workloads.build("search-l1-bb", 1, "unused"), "search (6,2,2,1,1)")
    code, out = call(op)
    assert workloads.evaluate(op, code, out) is None

    def bump(res):
        res["best_product"] = str(int(res["best_product"]) + 1)
    assert workloads.evaluate(op, code, tampered(out, bump)) is not None

    def drop_block(res):
        res["left"].pop()
        res["left_size"] -= 1
        res["best_product"] = str(res["left_size"] * res["right_size"])
    assert workloads.evaluate(op, code, tampered(out, drop_block)) is not None
    assert workloads.evaluate(op, 3, out) is not None


def test_invalid_witnesses_fail(tmp_path):
    ops = workloads.build("verify-batch", 1, str(tmp_path))
    op = find(ops, "verify-cross tight 13x14 ell=2 t=2")
    code, out = call(op)
    assert code == 1 and workloads.evaluate(op, code, out) is None

    # Every grid that avoids the one right block missing the core sums to
    # at least ell^2 * t, above the reported minimum.
    left = read_fam(op.argv[op.argv.index("--left") + 1])
    right = read_fam(op.argv[op.argv.index("--right") + 1])
    core = set.intersection(*map(set, left))
    ell = int(op.argv[op.argv.index("--ell") + 1])
    others = [j for j, b in enumerate(right) if core <= set(b)]

    def avoid_extra(res):
        res["witness"]["cols"] = others[:ell]
    assert workloads.evaluate(op, code, tampered(out, avoid_extra)) is not None
    assert workloads.evaluate(op, 0, out) is not None

    op = find(ops, "matching covering")
    code, out = call(op)
    assert workloads.evaluate(op, code, out) is None

    def add_meeting_block(res):
        extra = min(set(range(10)) - set(res["certificate"]))
        res["certificate"] = sorted(res["certificate"] + [extra])
        res["nu"] = len(res["certificate"])
    assert workloads.evaluate(op, code, tampered(out, add_meeting_block)) is not None

    op = find(ops, "refute")
    code, out = call(op)
    assert workloads.evaluate(op, code, out) is None

    def raise_sum(res):
        res["witness"]["sum"] += 1
    assert workloads.evaluate(op, code, tampered(out, raise_sum)) is not None


def test_traced_and_untraced_reports_identical(tmp_path):
    ops = [op for op in workloads.build("verify-batch", 2, str(tmp_path))
           if "ell=3" not in op.label and "dense 150x200 ell=2" not in op.label]
    originals = dict(vars(kernels))
    plain = []
    for op in ops:
        try:
            plain.append(call(op))
        except RecursionError:
            plain.append("raised")
    tracer = spans.Tracer()
    traced = []
    with tracer:
        assert kernels.max_disjoint is not originals["max_disjoint"]
        for index, op in enumerate(ops):
            tracer.op = index
            try:
                traced.append(call(op))
            except RecursionError:
                traced.append("raised")
    assert traced == plain
    assert all(vars(kernels)[k] is v for k, v in originals.items())
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"cli.main", "families.parse_family", "kernels.min_grid_sum_bucket",
            "kernels.max_disjoint", "refutation.cover_by_cores"} <= names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["cli.main.calls"] == len(ops)
    assert tracer.counts["kernels.min_grid_sum_bucket.subsets"] > 0


def test_self_time_subtracts_child_coverage():
    # parent [0, 10] with children [1, 4] and [5, 6] -> self 6; a task span
    # adds self time to its submitter's name but no call.
    trace = [["p", 0.0, 10.0, -1, 0, "call", False],
             ["c", 1.0, 4.0, 0, 0, "call", False],
             ["c", 5.0, 6.0, 0, 0, "call", True],
             ["p", 5.5, 5.75, 2, 0, "task", False]]
    metrics = spans.layer_metrics(trace)
    assert metrics["p.self_s"] == pytest.approx(6.25)
    assert metrics["c.self_s"] == pytest.approx(3.75)
    assert metrics["p.calls"] == 1
    assert metrics["c.calls"] == 2 and metrics["c.errors"] == 1
    halved = spans.layer_metrics(trace, scales=[0.5])
    assert halved["p.s"] == pytest.approx(5.0)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_output_contract(trace):
    proc = run_bench(ROOT, "--workload", "verify-batch", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert result["correct"] is True
    if kernels.BACKEND == "python":
        # The 1,500-block matching exhausts the recursion limit of the
        # pure-Python kernel, once per pass.
        assert result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "verify-batch", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def write_record(path, backend, value):
    record = {"workload": "verify-batch", "trace": 0,
              "env": {"backend": backend, "python": "3.11.7"},
              "metrics": {"pass_s": {"value": value, "unit": "s"}}}
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_flags_backend_mismatch(tmp_path):
    base = write_record(tmp_path / "record-a.json", "python", 2.0)
    same = write_record(tmp_path / "record-b.json", "python", 1.0)
    other = write_record(tmp_path / "record-c.json", "c", 1.0)
    script = os.path.join(BENCH, "compare.py")
    ok = subprocess.run([sys.executable, script, base, "--new", same],
                        capture_output=True, text=True, timeout=60)
    assert ok.returncode == 0 and "-50.0%" in ok.stdout
    bad = subprocess.run([sys.executable, script, base, "--new", other],
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 1 and "NOT COMPARABLE: backend" in bad.stdout
