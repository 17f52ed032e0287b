"""In-memory spans around the package's layer boundaries.

The tracer wraps public functions from the outside: each wrapper is
installed under every name a ``weakcross`` module binds the original
to (``weakcross.cli.check_weak_cross`` as well as
``weakcross.analysis.check_weak_cross``), so calls are caught where the
caller looks the name up.  The kernel backends themselves are never
patched: a span covers one call into ``weakcross.kernels``, not the
recursion inside it.

A span is ``[name, start, end, parent, op, kind, error]``; ``parent`` is
the index of the enclosing span (-1 at top level) and ``op`` the index
of the benchmark operation that caused it.  Spans stay in memory until
the run ends.  Callbacks handed to ``kernels.run_buckets`` get spans of
kind ``"task"`` named after the layer that submitted them, so the pool's
own cost is ``kernels.run_buckets.self_s`` while the bucket work counts
toward the submitting layer's self time.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict

# Modules whose functions are wrapped, besides every public callable
# that ``weakcross.kernels`` exposes at run time.
LAYERS = {
    "weakcross.cli": ("main",),
    "weakcross.families": ("parse_family",),
    "weakcross.analysis": ("intersection_matrix", "min_grid_sum",
                           "check_weak_cross", "check_weak_single"),
    "weakcross.search": ("search_max_product",),
    "weakcross.structures": ("find_sunflower", "matching_number", "max_family_no_matching"),
    "weakcross.refutation": ("refute_with_sunflower", "cover_by_cores"),
}
# Backend modules: their internal calls are the kernel, not a boundary.
BACKENDS = ("weakcross._kernels_py", "weakcross._ckernels")

NAME, START, END, PARENT, OP, KIND, ERROR = range(7)


def _bucket_subsets(args, _result):
    """ell-subsets ``min_grid_sum_bucket`` enumerates, from its arguments."""
    _flat, n_rows, n_cols, ell, _swap, lo, hi = args[:7]
    if ell <= 0 or n_rows < ell or n_cols < ell:
        return 0
    return sum(math.comb(n_rows - first - 1, ell - 1)
               for first in range(lo, min(hi, n_rows - ell + 1)))


# Exact work counts taken at a boundary: name -> (counter, fn(args, result)).
COUNTERS = {
    "search.search_max_product": ("search.nodes", lambda a, r: r.nodes_explored),
    "kernels.min_grid_sum_bucket": ("kernels.min_grid_sum_bucket.subsets", _bucket_subsets),
    "kernels.max_family_no_matching_bb": ("kernels.max_family_no_matching_bb.nodes",
                                          lambda a, r: r[2]),
    "families.parse_family": ("families.parse_family.blocks", lambda a, r: len(r)),
}


def kernel_functions(kernels_module) -> list[str]:
    """Public functions of ``weakcross.kernels`` defined inside the package."""
    names = []
    for name, obj in vars(kernels_module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", "").startswith("weakcross"):
            names.append(name)
    return sorted(names)


def layer_targets() -> list[tuple[str, str]]:
    targets = [("weakcross.kernels", name) for name in kernel_functions(sys.modules["weakcross.kernels"])]
    for module, names in LAYERS.items():
        targets += [(module, name) for name in names if hasattr(sys.modules[module], name)]
    return targets


class Tracer:
    """Collects spans and counts while installed; restores every name on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, kind, parent=None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, kind, False])
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def _close(self, index, failed) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ERROR] = failed
        self._stack().pop()

    def _call(self, name, kind, parent, fn, args, kwargs):
        index = self._open(name, kind, parent)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            self._close(index, failed)
        return result

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tasks = name == "kernels.run_buckets"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tasks:
                args = (self._task_fn(args[0]),) + args[1:]
            result = self._call(name, "call", None, fn, args, kwargs)
            if counter:
                self.counts[counter[0]] += counter[1](args, result)
            return result
        return traced

    def _task_fn(self, fn):
        stack = self._stack()
        # The submitting span is the one open when run_buckets is entered;
        # the pool span itself is opened right after this returns.
        submitter = self.spans[stack[-1]][NAME] if stack else "top"
        pool_index = len(self.spans)

        def task(item):
            return self._call(submitter, "task", pool_index, fn, (item,), {})
        return task

    def install(self) -> None:
        for module_name, attr in layer_targets():
            original = getattr(sys.modules[module_name], attr)
            short = module_name.removeprefix("weakcross.")
            wrapper = self.wrap(f"{short}.{attr}", original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "weakcross" and not mod_name.startswith("weakcross."):
                    continue
                if mod_name in BACKENDS:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans, net=None, scales=None) -> dict[str, float]:
    """Per-layer calls, inclusive time, self time and errors of ``spans``.

    Self time is a span's duration minus the time its child spans cover;
    children never overlap, since the benchmark calls the package from
    one thread.  ``net(start, end)``, when given, replaces raw durations
    (it takes host probes out) and ``scales[op]`` multiplies the times
    of spans caused by operation ``op``.
    """
    net = net or (lambda start, end: end - start)
    durations = [net(span[START], span[END]) * (scales[span[OP]] if scales else 1.0)
                 for span in spans]
    child_time = defaultdict(float)
    for span, duration in zip(spans, durations):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += duration
    out: dict[str, float] = defaultdict(float)
    for index, (span, duration) in enumerate(zip(spans, durations)):
        name = span[NAME]
        out[f"{name}.self_s"] += duration - child_time[index]
        if span[KIND] == "task":
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += duration
        out[f"{name}.errors"] += int(span[ERROR])
    return dict(out)
