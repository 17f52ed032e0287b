#!/usr/bin/env python3
"""Compare two sets of benchmark records written by ``run.py``.

Usage:

    python3 perfbench/compare.py BASE_DIR_OR_FILES... --new NEW_DIR_OR_FILES...

Records are grouped by workload and trace mode; for each metric the
table shows each side's median and quartiles over its runs and the
change of the medians.  Results measured on different kernel backends
(or Python versions) are not comparable: the comparison then says so
at the top and bottom of its output and exits with status 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict


def load(paths) -> list[dict]:
    files = []
    for path in paths:
        files += sorted(glob.glob(os.path.join(path, "record-*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def grouped(records):
    """{(workload, trace): {metric: [value per run]}}."""
    out = defaultdict(lambda: defaultdict(list))
    for rec in records:
        for name, metric in rec["metrics"].items():
            out[(rec["workload"], rec["trace"])][name].append(metric["value"])
    return out


def runs(group) -> int:
    return max(len(values) for values in group.values())


def mismatches(base, new) -> list[str]:
    found = []
    for key in ("backend", "python"):
        left = sorted({r["env"][key] for r in base})
        right = sorted({r["env"][key] for r in new})
        if left != right or len(left) > 1:
            found.append(f"{key}: base ran on {', '.join(left)}, new on {', '.join(right)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+", help="record files or directories of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="record files or directories of the change")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        sys.stderr.write("error: no records on one side\n")
        return 2
    banner = mismatches(base, new)
    for line in banner:
        print(f"!!! NOT COMPARABLE: {line}")
    old_groups, new_groups = grouped(base), grouped(new)
    for key in sorted(set(old_groups) & set(new_groups)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): {runs(old_groups[key])} base runs, "
              f"{runs(new_groups[key])} new runs")
        for name in sorted(set(old_groups[key]) & set(new_groups[key])):
            q1, m1, q3 = quartiles(old_groups[key][name])
            r1, m2, r3 = quartiles(new_groups[key][name])
            change = f"{(m2 - m1) / m1:+.1%}" if m1 else "n/a"
            print(f"  {name:48s} {m1:12.6g} [{q1:.6g}, {q3:.6g}] -> "
                  f"{m2:12.6g} [{r1:.6g}, {r3:.6g}]  {change}")
    for line in banner:
        print(f"!!! NOT COMPARABLE: {line}")
    return 1 if banner else 0


if __name__ == "__main__":
    sys.exit(main())
