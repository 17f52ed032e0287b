#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for weakcross.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-batch --seed 1 --seconds 30 --trace 0

Runs one workload in this process and one thread, through
``weakcross.cli.main`` as the checkout's ``src/`` imports it, the same
way tier-1 does (``PYTHONPATH=src``).  It builds no extension: whatever
``weakcross.kernels.BACKEND`` reports is what is measured.  All inputs
are generated from the seed before timing; the program sees only files
and argv.  Passes over the workload's operation list repeat until
``--seconds`` is spent, and every report is checked against the
benchmark's own naive re-validation (``workloads.py``).  Times are
rescaled for the host's momentary speed (``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics named in
``BENCHMARK.json`` (see ``spans.py``).  Human-readable lines come
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (environment,
per-operation medians, metrics) goes to ``perfbench/out/``, and a traced
run also writes its spans there; ``compare.py`` compares records.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 15
# A run stops starting passes once the next one would end after this,
# whatever --seconds says, so it exits well inside three minutes.
HARD_LIMIT_S = 150.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import weakcross, weakcross.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark cannot run here (no package, no BENCHMARK.json)."""


def load_program():
    """Import weakcross from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "weakcross", "__init__.py")):
        raise BenchError(f"no weakcross package under {SRC}")
    sys.path.insert(0, SRC)
    import weakcross
    import weakcross.cli
    import weakcross.kernels
    if os.path.dirname(os.path.dirname(os.path.abspath(weakcross.__file__))) != SRC:
        raise BenchError(f"weakcross imported from {weakcross.__file__}, not {SRC}")
    return weakcross


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(weakcross) -> dict:
    return {
        "backend": weakcross.kernels.BACKEND,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit(),
    }


def measure_setup() -> list[float]:
    """Import time of weakcross + weakcross.cli in fresh interpreters.

    One warm-up import first, so bytecode compilation, which users pay
    once per install, is not counted.  Each sample is rescaled by host
    probes taken right before and after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    host = hostspeed.HostSpeed()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        host.probe()
        began = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append((float(proc.stdout.strip()), began, time.perf_counter()))
    host.probe()
    return [seconds * host.scale(a, b) for seconds, a, b in samples]


def run_op(cli, op):
    """(start, end, exit code or None, stdout, exception repr or None) of one call."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # the operation failed; the run goes on
        raised = repr(exc)
    return start, time.perf_counter(), code, out.getvalue(), raised


def run_pass(cli, ops, tracer=None):
    gc.collect()
    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        results.append(run_op(cli, op))
    return results


def nearest_rank(n, p) -> int:
    return max(1, math.ceil(n * p / 100))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[nearest_rank(len(sorted_values), p) - 1]


def tail_percentile(n):
    """Highest of p50/p75/p90/p95/p99/p99.9 leaving >= 10 samples above it."""
    fits = [p for p in (50, 75, 90, 95, 99, 99.9) if n - nearest_rank(n, p) >= 10]
    return fits[-1] if fits else None


class Ledger:
    """Per-operation outcomes across passes; pass 1 is the reference output."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = None
        self.status = [None] * len(ops)
        self.checked = {}
        self.times = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, results):
        if self.reference is None:
            self.reference = [(code, out) for _t, code, out, _r in results]
        for i, (seconds, code, out, raised) in enumerate(results):
            self.times[i].append(seconds)
            self.attempted += 1
            if raised is not None:
                problem, wrong = f"raised {raised}", False
            elif (code, out) != self.reference[i]:
                problem, wrong = "report differs from the first pass", True
            else:
                if i not in self.checked:
                    self.checked[i] = workloads.evaluate(self.ops[i], code, out)
                problem = self.checked[i]
                wrong = problem is not None and not problem.startswith("exit code")
            if problem is not None:
                self.failed += 1
                self.wrong += int(wrong)
                self.status[i] = self.status[i] or problem

    def exhaustive_share(self) -> float:
        """Share of search operations reporting ``exhaustive: true``.

        With no search operation in the workload nothing stopped on its
        budget, so the share is 1.
        """
        flags = []
        for op, (code, out) in zip(self.ops, self.reference):
            if op.is_search:
                try:
                    flags.append(json.loads(out)["result"]["exhaustive"] is True)
                except (ValueError, KeyError, TypeError):
                    flags.append(False)
        return sum(flags) / len(flags) if flags else 1.0

    def op_medians_ms(self):
        """Each operation's median time over the passes, ascending, in ms."""
        return sorted(statistics.median(t) * 1e3 for t in self.times)


def timed_passes(cli, ops, host, seconds, start, traced_factory=None):
    """Passes until ``seconds`` are spent, as [(tracer or None, results)].

    With ``traced_factory`` passes alternate untraced, traced, ...
    """
    deadline = time.perf_counter() + seconds
    hard = start + HARD_LIMIT_S
    passes, walls = [], []
    minimum = 2 if traced_factory else 3
    with host:
        while True:
            began = time.perf_counter()
            tracer = None
            if traced_factory is not None and len(passes) % 2 == 1:
                tracer = traced_factory()
                with tracer:
                    results = run_pass(cli, ops, tracer)
            else:
                results = run_pass(cli, ops)
            passes.append((tracer, results))
            now = time.perf_counter()
            walls.append(now - began)
            estimate = statistics.median(walls)
            if now + estimate > hard or (len(passes) >= minimum and now + estimate > deadline):
                return passes


def end_to_end(ledger, plain, setup_samples):
    medians = ledger.op_medians_ms()
    p = tail_percentile(len(medians))
    tail = percentile(medians, p) if p else medians[-1]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(plain),
        "op_p50_ms": percentile(medians, 50),
        "op_tail_ms": tail,
        "ok_share": 1.0 - ledger.failed / ledger.attempted,
        "exhaustive_share": ledger.exhaustive_share(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_tail_ms.percentile": (f"p{p}" if p else "max (fewer than 11 operations)")
                                 + f" of {len(medians)} per-operation medians over {len(plain)} passes",
        "failed_share": ledger.failed / ledger.attempted,
    }
    return metrics, notes


class TracedRun:
    """Builds one tracer per traced pass and keeps every span for the record."""

    def __init__(self):
        self.tracers = []

    def __call__(self):
        tracer = spans.Tracer()
        self.tracers.append(tracer)
        return tracer

    def per_layer(self, host, plain, traced):
        per_pass = []
        for tracer in self.tracers:
            values = spans.layer_metrics(tracer.spans, host.net, tracer.scales)
            values.update(tracer.counts)
            values["trace.spans"] = len(tracer.spans)
            per_pass.append(values)
        names = sorted({k for values in per_pass for k in values})
        metrics = {k: statistics.median(v.get(k, 0) for v in per_pass) for k in names}
        search_s = metrics.get("search.search_max_product.s", 0.0)
        metrics["search.nodes_per_s"] = metrics.get("search.nodes", 0) / search_s if search_s else 0.0
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return metrics

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for number, tracer in enumerate(self.tracers):
                for name, start, end, parent, op, kind, error in tracer.spans:
                    fh.write(json.dumps({"pass": number, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op,
                                         "kind": kind, "error": error}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        spec = load_spec()
        weakcross = load_program()
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    env = environment(weakcross)
    setup_samples = [] if args.trace else measure_setup()
    os.makedirs(OUT, exist_ok=True)
    host = hostspeed.HostSpeed()
    traced_run = TracedRun() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as inputs:
        ops = workloads.build(args.workload, args.seed, inputs)
        passes = timed_passes(weakcross.cli, ops, host, args.seconds, start, traced_run)
    env["host_probe_ms"] = host.median_probe() * 1e3

    ledger = Ledger(ops)
    plain, traced, raw_passes = [], [], []
    for tracer, results in passes:
        scales = [host.scale(a, b) for a, b, *_ in results]
        rescaled = [(host.net(a, b) * f, code, out, raised)
                    for (a, b, code, out, raised), f in zip(results, scales)]
        ledger.add(rescaled)
        (plain if tracer is None else traced).append(sum(r[0] for r in rescaled))
        raw_passes.append(sum(host.net(a, b) for a, b, *_ in results))
        if tracer is not None:
            tracer.scales = scales

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values = traced_run.per_layer(host, plain, traced)
        wanted = spec["per_layer"]
        notes = {}
        traced_run.write_spans(os.path.join(OUT, f"spans-{tag}.jsonl"))
    else:
        values, notes = end_to_end(ledger, plain, setup_samples)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for key, value in sorted(env.items()):
        print(f"  {key}: {value}")
    for op, times, status in zip(ops, ledger.times, ledger.status):
        print(f"  best {min(times) * 1e3:10.3f} ms  median {statistics.median(times) * 1e3:10.3f} ms"
              f"  {op.label}" + (f"  FAILED: {status}" if status else ""))
    shown = values if args.trace else {**values, **notes}
    units = {m["name"]: m["unit"] for m in wanted}
    for name in sorted(shown):
        print(f"  {name} = {shown[name]}" + (f" {units[name]}" if name in units else ""))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics, "all_values": values,
        "notes": notes, "passes": {"untraced": plain, "traced": traced, "raw": raw_passes},
        "operations": [{"label": op.label, "best_ms": min(t) * 1e3,
                        "median_ms": statistics.median(t) * 1e3, "failure": s}
                       for op, t, s in zip(ops, ledger.times, ledger.status)],
    }
    with open(os.path.join(OUT, f"record-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": ledger.wrong == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
