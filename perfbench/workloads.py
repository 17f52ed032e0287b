"""Workload generation and output checks for the weakcross benchmark.

Each workload is a fixed list of CLI operations.  Every input is built
from the workload seed before any timing, with this module's own set
code (no call into the package), and written as ``.fam`` files; the
program under test only ever sees those files and an argv list.

Every operation carries a check written here from first principles: it
parses the JSON report, matches the exit code to the verdict, and
re-validates each certificate naively against the generated families.
Where theory fixes the answer, the answer is pinned exactly.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

# Exit codes documented by ``weakcross.cli``.
EXIT_OK, EXIT_VIOLATED, EXIT_VACUOUS, EXIT_BUDGET = 0, 1, 2, 3
VERDICT_EXIT = {"satisfied": EXIT_OK, "violated": EXIT_VIOLATED, "vacuous": EXIT_VACUOUS}
ANSWER_EXITS = {EXIT_OK, EXIT_VIOLATED, EXIT_VACUOUS, EXIT_BUDGET}

WORKLOADS = ("search-generic", "search-l1-bb", "verify-batch")


class CheckFailed(Exception):
    """An operation's report is wrong: bad exit code, verdict or certificate."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One CLI call and the check its report must pass."""

    label: str
    argv: list[str]
    check: Callable[[int, dict], None]
    is_search: bool = False


# --- plain set helpers ---------------------------------------------------

def mask(block) -> int:
    return sum(1 << (e - 1) for e in block)


def canon(blocks) -> list[tuple[int, ...]]:
    """Distinct blocks in the package's canonical order (ascending mask)."""
    return sorted({tuple(sorted(b)) for b in blocks}, key=mask)


def star(n, k, core):
    rest = [e for e in range(1, n + 1) if e not in core]
    return [tuple(sorted(set(core) | set(c))) for c in combinations(rest, k - len(core))]


def permuted(blocks, perm):
    return [tuple(sorted(perm[e] for e in b)) for b in blocks]


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return dict(zip(range(1, n + 1), images))


def random_blocks(rng, n, k, size):
    return rng.sample(list(combinations(range(1, n + 1), k)), size)


def inter(a, b) -> int:
    return len(set(a) & set(b))


def threshold_cross(ell, t):
    return ell * ell * t - ell + 1


def disjoint_pick(blocks, count):
    """Greedy: ``count`` pairwise disjoint blocks, or None."""
    used = set()
    picked = []
    for b in blocks:
        if used.isdisjoint(b):
            picked.append(b)
            used.update(b)
            if len(picked) == count:
                return picked
    return None


def grid_sum(left, right, rows, cols):
    return sum(inter(left[r], right[c]) for r in rows for c in cols)


def increasing_indices(seq, size, bound, what):
    require(isinstance(seq, list) and len(seq) == size,
            f"{what}: expected {size} indices, got {seq!r}")
    require(all(isinstance(i, int) and 0 <= i < bound for i in seq),
            f"{what}: index out of range in {seq!r}")
    require(all(a < b for a, b in zip(seq, seq[1:])),
            f"{what}: indices not strictly increasing in {seq!r}")


def naive_min_grid(left, right, ell):
    """Minimum ell x ell grid sum by full enumeration (small pairs only)."""
    return min(grid_sum(left, right, rs, cs)
               for rs in combinations(range(len(left)), ell)
               for cs in combinations(range(len(right)), ell))


def has_matching(blocks, size) -> bool:
    return any(all(set(a).isdisjoint(b) for a, b in combinations(sel, 2))
               for sel in combinations(blocks, size))


# --- report checks ---------------------------------------------------------

def expect_command(report, command):
    require(isinstance(report, dict) and report.get("command") == command,
            f"expected a {command!r} report")
    return report["result"]


def check_verify_cross(left, right, ell, t, verdict, min_sum=None):
    def check(code, report):
        res = expect_command(report, "verify-cross")
        thr = threshold_cross(ell, t)
        require(res["threshold"] == thr, f"threshold {res['threshold']} != {thr}")
        require(res["verdict"] == verdict, f"verdict {res['verdict']} != {verdict}")
        require(code == VERDICT_EXIT[verdict], f"exit {code} does not match {verdict}")
        if verdict == "violated":
            w = res["witness"]
            increasing_indices(w["rows"], ell, len(left), "witness rows")
            increasing_indices(w["cols"], ell, len(right), "witness cols")
            got = grid_sum(left, right, w["rows"], w["cols"])
            require(got == res["min_sum"], f"witness sums to {got}, report says {res['min_sum']}")
            require(got < thr, f"witness sum {got} is not below {thr}")
        else:
            require(res["witness"] is None, "satisfied verdict carries a witness")
            require(res["min_sum"] >= thr, f"min_sum {res['min_sum']} below {thr}")
        if min_sum is not None:
            require(res["min_sum"] == min_sum, f"min_sum {res['min_sum']} != {min_sum}")
    return check


def check_verify_single(blocks, ell, verdict, min_sum=None):
    def check(code, report):
        res = expect_command(report, "verify-single")
        thr = math.comb(ell - 1, 2) + 1
        require(res["threshold"] == thr, f"threshold {res['threshold']} != {thr}")
        require(res["verdict"] == verdict, f"verdict {res['verdict']} != {verdict}")
        require(code == VERDICT_EXIT[verdict], f"exit {code} does not match {verdict}")
        if verdict == "violated":
            sel = res["witness"]["indices"]
            increasing_indices(sel, ell, len(blocks), "witness")
            got = sum(inter(blocks[a], blocks[b]) for a, b in combinations(sel, 2))
            require(got == res["min_sum"], f"witness sums to {got}, report says {res['min_sum']}")
            require(got < thr, f"witness sum {got} is not below {thr}")
        else:
            require(res["witness"] is None and res["min_sum"] >= thr, "bad satisfied report")
        if min_sum is not None:
            require(res["min_sum"] == min_sum, f"min_sum {res['min_sum']} != {min_sum}")
    return check


def validate_sunflower(blocks, kernel, members, t, petals):
    require(len(kernel) == t, f"kernel {kernel} does not have {t} elements")
    require(len(members) >= petals, f"{len(members)} petals, need {petals}")
    increasing_indices(members, len(members), len(blocks), "sunflower members")
    for i, j in combinations(members, 2):
        require(set(blocks[i]) & set(blocks[j]) == set(kernel),
                f"members {i} and {j} meet outside the kernel {kernel}")


def check_sunflower(blocks, t, petals):
    def check(code, report):
        res = expect_command(report, "sunflower")
        require(code == EXIT_OK, f"exit {code}")
        require(res["found"] is True, "planted sunflower not found")
        sf = res["sunflower"]
        require(sf["petals"] == len(sf["members"]), "petal count != member count")
        validate_sunflower(blocks, sf["kernel"], sf["members"], t, petals)
    return check


def check_refute(left, right, ell, t, petals):
    def check(code, report):
        res = expect_command(report, "refute")
        require(code == EXIT_OK, f"exit {code}")
        validate_sunflower(left, res["kernel"], res["stage0"], t, petals)
        w = res["witness"]
        increasing_indices(w["rows"], ell, len(left), "witness rows")
        increasing_indices(w["cols"], ell, len(right), "witness cols")
        got = grid_sum(left, right, w["rows"], w["cols"])
        require(got == w["sum"], f"witness sums to {got}, report says {w['sum']}")
        require(got <= ell * ell * t - ell, f"witness sum {got} exceeds {ell * ell * t - ell}")
    return check


def check_cover(left, right, indices, t):
    chosen = [left[i] for i in indices]
    exceptional = [j for j, b in enumerate(right) if all(inter(a, b) <= t - 1 for a in chosen)]
    cores = sorted({c for a in chosen for c in combinations(a, t)})
    parts = [{"core": list(c), "members": [j for j, b in enumerate(right) if set(c) <= set(b)]}
             for c in cores]

    def check(code, report):
        res = expect_command(report, "cover")
        require(code == EXIT_OK, f"exit {code}")
        require(res["left_indices"] == list(indices), "left indices not echoed")
        require(res["exceptional"] == exceptional, "exceptional set differs from a direct recount")
        require(res["parts"] == parts, "core parts differ from a direct recount")
    return check


def check_matching(blocks, nu=None):
    def check(code, report):
        res = expect_command(report, "matching")
        require(code == EXIT_OK, f"exit {code}")
        cert = res["certificate"]
        increasing_indices(cert, len(cert), len(blocks), "matching")
        require(res["nu"] == len(cert), f"nu {res['nu']} != certificate size {len(cert)}")
        used = set()
        for i in cert:
            require(used.isdisjoint(blocks[i]), f"block {i} meets the rest of the matching")
            used.update(blocks[i])
        require(all(not used.isdisjoint(b) for b in blocks), "matching is not even maximal")
        if nu is not None:
            require(res["nu"] == nu, f"nu {res['nu']} != {nu}")
    return check


def star_product(n, k, kprime, t):
    return math.comb(n - t, k - t) * math.comb(n - t, kprime - t)


def check_search(n, k, kprime, ell, t, budget, best=None):
    star_prod = star_product(n, k, kprime, t)

    def check(code, report):
        res = expect_command(report, "search")
        exhaustive = res["exhaustive"]
        require(code == (EXIT_OK if exhaustive else EXIT_BUDGET),
                f"exit {code} does not match exhaustive={exhaustive}")
        require(budget is not None or exhaustive, "unbudgeted search not exhaustive")
        require(res["nodes_explored"] > 0, "no nodes explored")
        require(int(res["star_product"]) == star_prod,
                f"star product {res['star_product']} != {star_prod}")
        left = [tuple(b) for b in res["left"]]
        right = [tuple(b) for b in res["right"]]
        product = int(res["best_product"])
        require(product == len(left) * len(right) == res["left_size"] * res["right_size"],
                "best product does not match the reported pair")
        for blocks, size in ((left, k), (right, kprime)):
            require(len(set(blocks)) == len(blocks), "repeated block in the best pair")
            require(all(len(b) == size and set(b) <= set(range(1, n + 1)) for b in blocks),
                    "block of the wrong size or outside [n]")
        if len(left) >= ell and len(right) >= ell:
            got = naive_min_grid(left, right, ell)
            require(got >= threshold_cross(ell, t), f"best pair is violated (min grid {got})")
        require(product >= star_prod, f"best product {product} below the star's {star_prod}")
        if best is not None:
            require(product == best, f"best product {product} != {best}")
    return check


def check_erdos(n, k, ell, max_size):
    bound = math.comb(n, k) - math.comb(n - ell + 1, k)

    def check(code, report):
        res = expect_command(report, "erdos")
        require(code == EXIT_OK, f"exit {code}")
        require(int(res["bound"]) == bound, f"bound {res['bound']} != {bound}")
        require(res["max_size"] == max_size, f"max_size {res['max_size']} != {max_size}")
        require(res["matches_bound"] is (max_size == bound), "matches_bound is wrong")
        witness = [tuple(b) for b in res["witness"]]
        require(len(set(witness)) == len(witness) == max_size, "witness size or repeats")
        require(all(len(b) == k and set(b) <= set(range(1, n + 1)) for b in witness),
                "witness block of the wrong size or outside [n]")
        require(not has_matching(witness, ell), f"witness has {ell} pairwise disjoint blocks")
    return check


# --- workloads -------------------------------------------------------------

class FamWriter:
    """Writes generated families as ``.fam`` files with shuffled block lines."""

    def __init__(self, directory, rng):
        self.directory = directory
        self.rng = rng
        self.count = 0

    def write(self, n, k, blocks) -> tuple[str, list[tuple[int, ...]]]:
        blocks = canon(blocks)
        lines = [" ".join(map(str, b)) for b in blocks]
        self.rng.shuffle(lines)
        path = os.path.join(self.directory, f"f{self.count:03d}.fam")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n} {k}\n" + "\n".join(lines) + "\n")
        return path, blocks


def search_op(n, k, kprime, ell, t, budget=None, best=None) -> Op:
    argv = ["search", "--n", str(n), "--k", str(k), "--kprime", str(kprime),
            "--ell", str(ell), "--t", str(t)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    label = f"search ({n},{k},{kprime},{ell},{t})" + (f" budget {budget}" if budget else "")
    return Op(label, argv, check_search(n, k, kprime, ell, t, budget, best), is_search=True)


def search_generic_ops(rng, _writer) -> list[Op]:
    # Anchors: (5,2,2,2,1) is optimal at the star (16); (5,2,3,2,1) beats
    # the star's 24 with 36.  The budgeted n = 6 run is checked for validity.
    ops = [search_op(5, 2, 2, 2, 1, best=16),
           search_op(5, 2, 3, 2, 1, best=36),
           search_op(6, 2, 2, 2, 1, budget=8000)]
    rng.shuffle(ops)
    return ops


def search_l1_bb_ops(rng, _writer) -> list[Op]:
    # For ell = 1 and n >= 2k the star product C(n-1, k-1)^2 is the maximum
    # (Matsumoto and Tokushige, 1989), which pins both exhaustive runs.  At
    # (7,3,2) a matching-free family is intersecting, so Erdos-Ko-Rado pins
    # the maximum at C(6,2) = 15, the bound.
    ops = [search_op(6, 2, 2, 1, 1, best=25),
           search_op(6, 3, 3, 1, 1, best=100),
           search_op(7, 3, 3, 1, 1, budget=200000),
           Op("erdos (7,3,2) exhaustive",
              ["erdos", "--n", "7", "--k", "3", "--ell", "2", "--exhaustive", "--force"],
              check_erdos(7, 3, 2, 15))]
    rng.shuffle(ops)
    return ops


def _verify_cross_ops(writer, n, k, kprime, left, right, cases, tag):
    lpath, left = writer.write(n, k, left)
    rpath, right = writer.write(n, kprime, right)
    ops = []
    for ell, t, verdict, min_sum in cases:
        argv = ["verify-cross", "--left", lpath, "--right", rpath,
                "--ell", str(ell), "--t", str(t)]
        ops.append(Op(f"verify-cross {tag} {len(left)}x{len(right)} ell={ell} t={t}", argv,
                      check_verify_cross(left, right, ell, t, verdict, min_sum)))
    return ops, (lpath, left), (rpath, right)


def _sparse_pair(rng, n, k, kprime, sizes, ell):
    """Random pair with an ell x ell grid of empty intersections, found greedily."""
    while True:
        left = canon(random_blocks(rng, n, k, sizes[0]))
        right = canon(random_blocks(rng, n, kprime, sizes[1]))
        rows = disjoint_pick(left, ell)
        if rows is None:
            continue
        used = set().union(*rows)
        if sum(1 for b in right if used.isdisjoint(b)) >= ell:
            return left, right


def verify_batch_ops(rng, writer) -> list[Op]:
    # 146 operations per pass.  The mix keeps the ranks read by op_p50_ms
    # and op_tail_ms (p90) inside runs of like operations: 65 commands are
    # cheaper than the 16 star ell=1 / tight ell=3 checks and 65 dearer,
    # and the 14 operations above p90 are the four largest plus 10 of the
    # 12 equal-sized sparse ell=2 checks.  Noise then cannot flip which
    # kind of operation a percentile reads.
    ops: list[Op] = []
    for rep in range(8):
        # Star pair on a 2-element core: every entry is >= t = 2, so the
        # pair satisfies the condition at every ell (45 x 120 at n = 12).
        perm = random_perm(rng, 12)
        core = (1, 2)
        left = permuted(star(12, 4, core), perm)
        right = permuted(star(12, 5, core), perm)
        cases = [(1, 2, "satisfied", None), (2, 2, "satisfied", None)]
        if rep == 0:
            cases.append((3, 2, "satisfied", None))
        got, _, _ = _verify_cross_ops(writer, 12, 4, 5, left, right, cases, "star")
        ops += got

        # Tight pair: every grid has at most one column on the extra block,
        # so the minimum is at least threshold - 1, and n >= k + k' + 3 * 3
        # makes it attain exactly that.
        n, t = 15, 2
        perm = random_perm(rng, n)
        extra = tuple(range(1, t)) + tuple(range(t + 1, t + 1 + (3 - t + 1)))
        left = permuted(star(n, 3, (1, 2)), perm)
        right = permuted(star(n, 3, (1, 2)) + [extra], perm)
        cases = [(ell, t, "violated", threshold_cross(ell, t) - 1) for ell in (1, 2, 3)]
        # At t = 1 every entry is >= 1, so every grid clears ell^2 - ell + 1.
        cases.append((2, 1, "satisfied", None))
        if rep == 0:
            cases.append((1, 1, "satisfied", None))
        got, (lp, lb), (rp, rb) = _verify_cross_ops(writer, n, 3, 3, left, right, cases, "tight")
        ops += got
        idx = sorted(rng.sample(range(len(lb)), 2))
        ops.append(Op(f"cover tight indices={idx}",
                      ["cover", "--left", lp, "--right", rp, "--t", str(t),
                       "--indices", ",".join(map(str, idx))],
                      check_cover(lb, rb, idx, t)))

        # Sparse random pair: a greedy all-zero grid exists, so the minimum is 0.
        left, right = _sparse_pair(rng, 30, 3, 4, (120, 160), 2)
        cases = [(1, 1, "violated", 0), (2, 1, "violated", 0)]
        if rep < 4:
            cases.append((2, 2, "violated", 0))
        got, _, _ = _verify_cross_ops(writer, 30, 3, 4, left, right, cases, "sparse")
        ops += got

        # Dense random pair: |A & B| >= 7 + 8 - 12 = 3 for all blocks, so
        # every grid clears the threshold at t = 3.
        left = random_blocks(rng, 12, 7, 150)
        right = random_blocks(rng, 12, 8, 200)
        cases = [(1, 3, "satisfied", None)]
        if rep < 2:
            cases.append((2, 3, "satisfied", None))
        got, (lp, lb), (rp, rb) = _verify_cross_ops(writer, 12, 7, 8, left, right, cases, "dense")
        ops += got
        idx = sorted(rng.sample(range(len(lb)), 2))
        ops.append(Op(f"cover dense indices={idx}",
                      ["cover", "--left", lp, "--right", rp, "--t", "6",
                       "--indices", ",".join(map(str, idx))],
                      check_cover(lb, rb, idx, 6)))

        # Single-family checks: a sparse family has three pairwise disjoint
        # blocks (minimum 0); a dense one meets pairwise in >= 2 points.
        while True:
            sparse = canon(random_blocks(rng, 30, 3, 60))
            if disjoint_pick(sparse, 3):
                break
        path, sparse = writer.write(30, 3, sparse)
        ops.append(Op("verify-single sparse ell=3", ["verify-single", "--family", path, "--ell", "3"],
                      check_verify_single(sparse, 3, "violated", 0)))
        path, blocks = writer.write(30, 3, random_blocks(rng, 30, 3, 40))
        ops.append(Op("matching random 40 blocks", ["matching", "--family", path],
                      check_matching(blocks)))
        path, dense = writer.write(10, 6, random_blocks(rng, 10, 6, 40))
        for ell in (2, 3):
            ops.append(Op(f"verify-single dense ell={ell}",
                          ["verify-single", "--family", path, "--ell", str(ell)],
                          check_verify_single(dense, ell, "satisfied")))

        # Planted sunflower (kernel 2, 6 petals) among random 4-blocks.
        perm = random_perm(rng, 30)
        planted = [(1, 2, 2 * i + 1, 2 * i + 2) for i in range(1, 7)]
        blocks = permuted(planted, perm) + random_blocks(rng, 30, 4, 80)
        path, blocks = writer.write(30, 4, blocks)
        ops.append(Op("sunflower t=2 petals=6",
                      ["sunflower", "--family", path, "--t", "2", "--petals", "6"],
                      check_sunflower(blocks, 2, 6)))

        # Refutation: a kernel-1 sunflower with (1 + k') * ell petals on the
        # left; the right side holds two disjoint blocks, so some right block
        # avoids any kernel.
        ell = 2 if rep % 2 == 0 else 3
        petals = 4 * ell
        perm = random_perm(rng, 30)
        planted = [(1, 2 * i, 2 * i + 1) for i in range(1, petals + 1)]
        left = permuted(planted, perm) + random_blocks(rng, 30, 3, 30)
        while True:
            right = random_blocks(rng, 30, 3, 40)
            if disjoint_pick(right, 2):
                break
        lp, left = writer.write(30, 3, left)
        rp, right = writer.write(30, 3, right)
        ops.append(Op(f"refute ell={ell}",
                      ["refute", "--left", lp, "--right", rp, "--ell", str(ell), "--t", "1"],
                      check_refute(left, right, ell, 1, petals)))

    # All 3-blocks of [12] meeting a fixed 3-set: nu = 3 exactly (three
    # disjoint blocks through its points exist; four would need a fourth point).
    perm = random_perm(rng, 12)
    covering = [c for c in combinations(range(1, 13), 3) if set(c) & {1, 2, 3}]
    path, covering = writer.write(12, 3, permuted(covering, perm))
    ops.append(Op("matching covering n=12", ["matching", "--family", path],
                  check_matching(covering, 3)))

    # 1,500 random 3-blocks of [40]: deep enough to exhaust the recursion
    # limit of a recursive matching kernel.
    path, big = writer.write(40, 3, random_blocks(rng, 40, 3, 1500))
    ops.append(Op("matching 1500 blocks on [40]", ["matching", "--family", path],
                  check_matching(big)))
    rng.shuffle(ops)
    return ops


WORKLOAD_OPS = {
    "search-generic": search_generic_ops,
    "search-l1-bb": search_l1_bb_ops,
    "verify-batch": verify_batch_ops,
}


def build(workload: str, seed: int, directory: str) -> list[Op]:
    """The workload's operation list; input files go to ``directory``."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOAD_OPS[workload](rng, FamWriter(directory, rng))


def evaluate(op: Op, code, stdout: str) -> str | None:
    """None when the report passes its check, else the reason it failed."""
    if code not in ANSWER_EXITS:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report"
    try:
        op.check(code, report)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report ({exc!r})"
    return None
