"""Max-product search against double-powerset enumeration oracles."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from functools import reduce
from operator import or_

import pytest

from weakcross import (
    InstanceTooLargeError,
    WeakCrossParams,
    check_weak_cross,
    search,
    search_max_product,
)
from weakcross.families import all_masks, binomial
from oracles import oracle_search


def _result_masks(result):
    return (result.best_pair.left.masks, result.best_pair.right.masks)


def _left_holds_first_block(result, k):
    # Relabelling [n] maps a feasible pair to a feasible pair with the same
    # product, and any family can be relabelled so that its first block
    # becomes {1, ..., k}, the least mask.  A left family without that
    # block is then lex-larger than its relabelled twin, so whenever the
    # product is positive the lex-least optimal pair's left family
    # contains block 0.
    return result.best_product == 0 or result.best_pair.left.masks[0] == (1 << k) - 1


def test_search_triangle_instance():
    result = search_max_product(4, 2, 2, WeakCrossParams(1, 1))
    product, left, right = oracle_search(4, 2, 2, 1, 1)
    assert result.best_product == product == 9
    assert _result_masks(result) == (left, right)
    assert result.star_product == 9
    assert result.exhaustive
    assert result.nodes_explored == 16


def test_search_star_is_optimal_at_five_points():
    result = search_max_product(5, 2, 2, WeakCrossParams(1, 1))
    assert result.best_product == 16
    assert result.star_product == 16
    assert result.exhaustive
    verdict = check_weak_cross(result.best_pair, WeakCrossParams(1, 1))
    assert verdict.verdict != "violated"


# Every (n, k, k', ell, t) with n in {3, 4}, ell in {1, 2, 3} and t in
# {1, 2}: 150 instances within reach of the double-powerset oracle, the
# earlier hand-picked ones among them.
_ORACLE_CASES = [
    (n, k, kprime, ell, t)
    for n in (3, 4) for k in range(1, n + 1) for kprime in range(1, n + 1)
    for ell in (1, 2, 3) for t in (1, 2)]


@pytest.mark.parametrize("n,k,kprime,ell,t", _ORACLE_CASES)
def test_search_matches_oracle_small(n, k, kprime, ell, t):
    result = search_max_product(n, k, kprime, WeakCrossParams(ell, t))
    product, left, right = oracle_search(n, k, kprime, ell, t)
    assert result.best_product == product
    assert _result_masks(result) == (left, right)
    assert result.exhaustive
    assert _left_holds_first_block(result, k)


def test_search_matches_oracle_pair_blocks():
    result = search_max_product(4, 2, 2, WeakCrossParams(2, 1))
    product, left, right = oracle_search(4, 2, 2, 2, 1)
    assert result.best_product == product
    assert _result_masks(result) == (left, right)


def test_search_result_is_feasible_and_beats_star():
    # The budgeted ell = 3 run takes its pair after its right walk has
    # backed out of other columns, which the reported right family must
    # no longer hold.
    for (n, k, kprime, ell, t), budget in [
            ((4, 2, 2, 1, 1), None), ((4, 2, 2, 2, 1), None), ((4, 2, 1, 2, 1), None),
            ((5, 2, 1, 1, 1), None), ((6, 3, 3, 3, 1), 1500)]:
        params = WeakCrossParams(ell, t)
        result = search_max_product(n, k, kprime, params, node_budget=budget)
        assert result.best_product >= result.star_product
        assert check_weak_cross(result.best_pair, params).verdict != "violated"
        sizes = (len(result.best_pair.left), len(result.best_pair.right))
        assert result.best_product == sizes[0] * sizes[1]


@pytest.mark.parametrize("n,k,kprime,want,left,right", [
    (4, 2, 2, (9, 9, 16), "12 13 23", "12 13 23"),
    (4, 2, 1, (3, 3, 8), "12 13 14", "1"),
    (5, 1, 1, (1, 1, 3), "1", "1"),
    (5, 2, 2, (16, 16, 25), "12 13 14 15", "12 13 14 15"),
    (5, 2, 3, (25, 24, 63), "12 13 23 14 24", "123 124 134 234 125"),
    (5, 3, 3, (100, 36, 11), "123 124 134 234 125 135 235 145 245 345",
     "123 124 134 234 125 135 235 145 245 345"),
])
def test_search_ell1_pinned(n, k, kprime, want, left, right):
    # (best, star, nodes) and the lex-least pair at ell = 1, n = 5 past
    # the oracle's reach.  (5,2,2), (5,2,3) and (5,3,3) have many tied
    # products, so they check that building a candidate only when it can
    # tie keeps the lex-least pair.
    params = WeakCrossParams(1, 1)
    result = search_max_product(n, k, kprime, params)
    assert (result.best_product, result.star_product, result.nodes_explored) == want
    assert result.exhaustive
    report = result.to_json_dict()
    assert ["".join(map(str, b)) for b in report["left"]] == left.split()
    assert ["".join(map(str, b)) for b in report["right"]] == right.split()


def test_search_budget_truncates():
    result = search_max_product(5, 2, 2, WeakCrossParams(1, 1), node_budget=5)
    assert not result.exhaustive
    assert result.nodes_explored <= 5
    assert result.best_product >= result.star_product == 16
    with pytest.raises(ValueError):
        search_max_product(5, 2, 2, WeakCrossParams(1, 1), node_budget=0)


def test_search_guard_requires_budget_on_large_instances():
    with pytest.raises(InstanceTooLargeError):
        search_max_product(7, 3, 3, WeakCrossParams(1, 1))
    result = search_max_product(7, 3, 3, WeakCrossParams(1, 1), node_budget=200)
    assert not result.exhaustive
    assert result.best_product >= result.star_product == 225


def test_search_pinned_results():
    # (best product, nodes, exhaustive) pin the atom cut, the orbit cut,
    # the dominance cut, the one walk under the whole budget, the left
    # bound and its end-of-node cut, the colouring bound and the one
    # ``need`` that only a strictly larger product passes: any drift in
    # them moves the node count.
    pins = [
        ((5, 2, 2, 1, 1), 40, (16, 25, True)),
        ((6, 2, 2, 1, 1), None, (25, 36, True)),
        ((7, 3, 3, 1, 1), 200, (225, 200, False)),
        ((6, 2, 2, 2, 1), 8000, (25, 118, True)),
        ((5, 2, 2, 2, 1), None, (16, 85, True)),
        ((5, 2, 3, 2, 1), None, (36, 218, True)),
        ((5, 2, 2, 2, 2), None, (10, 6, True)),
        ((5, 2, 2, 3, 1), 3000, (25, 1012, True)),
        ((5, 2, 3, 3, 2), 3000, (20, 1000, True)),
        # ell = 2 with intersections up to 3 and t = 2; all but the first
        # end within the budget, and the last has a wide right side where
        # no column can fail.  The first reaches 144, the exhaustive best.
        ((6, 3, 3, 2, 1), 20000, (144, 20000, False)),
        ((6, 2, 3, 2, 1), 30000, (50, 318, True)),
        ((6, 3, 3, 2, 2), 20000, (20, 404, True)),
        ((10, 8, 3, 2, 1), 20000, (5400, 4290, True)),
        # The README's exhaustive ell = 2 example.
        ((6, 2, 2, 2, 1), None, (25, 118, True)),
        # The benchmark's n = 7 search, now exhaustive within its budget.
        ((7, 3, 3, 1, 1), 200000, (225, 13575, True)),
        # n = 8 ell = 1 walks past the orbit cap, carried by the atom and
        # dominance cuts.
        ((8, 3, 3, 1, 1), 200000, (441, 200000, False)),
        ((8, 4, 4, 1, 1), 100000, (1225, 100000, False)),
    ]
    for (n, k, kprime, ell, t), budget, want in pins:
        result = search_max_product(n, k, kprime, WeakCrossParams(ell, t),
                                    node_budget=budget)
        assert (result.best_product, result.nodes_explored, result.exhaustive) == want
        if budget is None:
            assert _left_holds_first_block(result, k)


def test_small_budget_builds_little():
    # Each left row's tables are built on the row's first visit, so a
    # budget of 10 nodes on C(14, 7) = 3,432 blocks a side ends at once:
    # building them all up front took 42.6 s and 531 MB at ell = 2.  At
    # ell = 1, m * r_m = 3,432 * 3,432 is past the dominance cap, so the
    # walk does without the cut.  At (11, 5) m * r_m = 462 * 462 is just
    # under it, so the dominance cut reads byte tables of 256 masks of 462
    # bits, each built when the cut first reaches its group: 10 nodes
    # reach 32 of the 58 groups, a 0.84 MB peak against 1.46 MB for all.
    for n, k, ell in ((14, 7, 2), (14, 7, 1), (11, 5, 1)):
        started = time.perf_counter()
        result = search_max_product(n, k, k, WeakCrossParams(ell, 1), node_budget=10)
        elapsed = time.perf_counter() - started
        assert (result.nodes_explored, result.exhaustive) == (10, False)
        assert result.best_product >= result.star_product
        assert elapsed < 1.0, (n, k, ell, elapsed)
    tracemalloc.start()
    try:
        search_max_product(11, 5, 5, WeakCrossParams(1, 1), node_budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_100_000, peak


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("n,k,kprime,ell,budget,want", [
    # The 210 5-sets of [11] through 1 make a left chain 210 deep.
    (11, 5, 1, 1, 200_000, (210, 1_062, True, 210)),
    # A 7-set and a 3-set of [9] always meet, so every pair is feasible
    # and the right chain runs through all 84 right blocks.
    (9, 7, 3, 2, 6_000, (3_024, 2_340, True, 36)),
    # Any two 6-sets of [11] meet, so the best pair is all 462 blocks on
    # each side, against the star's 252 * 252 = 63,504: only a left chain
    # 462 deep finds it.
    (11, 6, 6, 1, 5_000, (213_444, 463, True, 462)),
])
def test_search_deep_trees_stay_off_the_call_stack(n, k, kprime, ell, budget, want):
    # With only 100 frames to spare, a search that recursed once per
    # block would raise RecursionError (the CLI's exit 70).  The pair of
    # an exhaustive search is one the walk took, so its left size is the
    # depth the left walk reached; the dominance cut ends both ell = 1
    # cases within about a thousand nodes, so the node count alone no
    # longer shows a deep chain.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        result = search_max_product(n, k, kprime, WeakCrossParams(ell, 1),
                                    node_budget=budget)
    finally:
        sys.setrecursionlimit(limit)
    assert (result.best_product, result.nodes_explored, result.exhaustive,
            len(result.best_pair.left)) == want


def _blocks(*blocks):
    return [[int(e) for e in b] for b in blocks]


_PAIRS = ("12", "13", "23", "14", "24", "34", "15", "25", "35", "45")
_TRIPLES = ("123", "124", "134", "234", "125", "135", "235", "145", "245", "345")
_STAR6 = ("12", "13", "14", "15", "16")
_TRIPLES6 = _TRIPLES + ("126", "136", "236", "146", "246", "346", "156", "256", "356", "456")
_STAR7_2 = _STAR6 + ("17",)
_STAR7_3 = ("123", "124", "134", "125", "135", "145", "126", "136", "146", "156",
            "127", "137", "147", "157", "167")
_QUADS6 = ("1234", "1235", "1245", "1345", "2345", "1236", "1246", "1346", "2346",
           "1256", "1356", "2356", "1456", "2456", "3456")
_STAR7_4 = ("1234", "1235", "1245", "1345", "1236", "1246", "1346", "1256", "1356", "1456",
            "1237", "1247", "1347", "1257", "1357", "1457", "1267", "1367", "1467", "1567")


@pytest.mark.parametrize("instance,want", [
    ((5, 2, 2, 2, 1), (16, 16, _blocks(*_PAIRS[:4]), _blocks(*_PAIRS[:4]))),
    ((5, 2, 3, 2, 1),
     (36, 24, _blocks(*_PAIRS[:6]), _blocks(*_TRIPLES[:5], "345"))),
    ((5, 2, 2, 2, 2), (10, 1, _blocks("12"), _blocks(*_PAIRS))),
    ((5, 2, 3, 2, 2), (10, 3, _blocks("12"), _blocks(*_TRIPLES))),
    ((5, 3, 3, 2, 1), (100, 36, _blocks(*_TRIPLES), _blocks(*_TRIPLES))),
    ((5, 2, 3, 3, 1),
     (56, 24, _blocks(*_PAIRS[:8]), _blocks(*_TRIPLES[:6], "245"))),
    # The benchmark's exhaustive searches not pinned above.
    ((6, 2, 2, 1, 1), (25, 25, _blocks(*_STAR6), _blocks(*_STAR6))),
    ((6, 3, 3, 1, 1), (100, 100, _blocks(*_TRIPLES), _blocks(*_TRIPLES))),
    ((6, 2, 2, 2, 1), (25, 25, _blocks(*_STAR6), _blocks(*_STAR6))),
    # Ties past the oracle's n <= 4: the first pair the walk meets at the
    # best product must be the lex-least one.
    ((6, 2, 3, 2, 1), (50, 50, _blocks(*_STAR6),
                       _blocks(*(b for b in _TRIPLES6 if "1" in b)))),
    ((6, 3, 3, 2, 2), (20, 16, _blocks("123"), _blocks(*_TRIPLES6))),
    # Past the oracle and past the guard, measured before the orbit cut,
    # which the left walk of these searches depends on most.
    ((7, 3, 3, 1, 1), (225, 225, _blocks(*_STAR7_3), _blocks(*_STAR7_3))),
    ((7, 2, 3, 2, 1), (90, 90, _blocks(*_STAR7_2), _blocks(*_STAR7_3))),
    ((6, 3, 3, 2, 1), (144, 100, _blocks(*_TRIPLES, "126", "346"),
                       _blocks(*_TRIPLES, "136", "246"))),
    # Past the guard at ell = 1, measured before the dominance cut and
    # the end-of-node cut, both of which fire on them.
    ((7, 4, 4, 1, 2), (225, 100, _blocks(*_QUADS6), _blocks(*_QUADS6))),
    ((7, 3, 5, 1, 2), (120, 50, _blocks(*_TRIPLES6),
                       _blocks("12345", "12346", "12356", "12456", "13456", "23456"))),
    ((7, 4, 2, 1, 1), (120, 120, _blocks(*_STAR7_4), _blocks(*_STAR7_2))),
])
def test_search_exhaustive_reports_pinned(instance, want):
    # Exhaustive reports past the oracle's reach (n = 5 to 7), measured
    # before the right-extension bound, the atom cut, the colouring bound,
    # the orbit cut or the dominance and end-of-node cuts changed: the
    # best product, the star product and the lex-least pair must not move
    # with node counts.  Instances past the 40-block guard run under a
    # budget they never reach.
    n, k, kprime, ell, t = instance
    best, star, left, right = want
    budget = None if binomial(n, k) + binomial(n, kprime) <= search.MAX_SEARCH_BLOCKS else 10**12
    report = search_max_product(n, k, kprime, WeakCrossParams(ell, t),
                                node_budget=budget).to_json_dict()
    del report["nodes_explored"]
    assert report == {
        "best_product": str(best), "star_product": str(star), "exhaustive": True,
        "left_size": len(left), "right_size": len(right),
        "left": left, "right": right,
    }


def _image(perm, mask):
    return sum(1 << perm[e] for e in range(len(perm)) if mask >> e & 1)


def test_atom_test_matches_permutations():
    # The walk admits block b below L when b meets every atom of L (the
    # elements lying in the same blocks of L) in its lowest elements.
    # That must hold exactly when b is the least image of itself under
    # the permutations of [n] that fix every block of L.
    rng = random.Random(18)
    for _ in range(120):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        cands = all_masks(n, k)
        family = rng.sample(cands, rng.randint(0, min(4, len(cands))))
        atoms: dict = {}
        for e in range(n):
            key = tuple(b >> e & 1 for b in family)
            atoms[key] = atoms.get(key, 0) | 1 << e
        admitted = (1 << len(cands)) - 1
        for atom in atoms.values():
            admitted &= search._passing(atom, cands)
        fixing = [p for p in itertools.permutations(range(n))
                  if all(_image(p, b) == b for b in family)]
        least = sum(1 << i for i, b in enumerate(cands)
                    if min(_image(p, b) for p in fixing) == b)
        assert admitted == least, (n, k, family)


def _orbit_cut(tables, family, b):
    # The walk's orbit test on the child family + [b], family ascending:
    # cover[x] holds the permutations taking some block of the family
    # onto block x, and the scan starts from those moving b down.
    onto, down = tables
    cover = [reduce(or_, (onto[j][x] for j in family)) for x in range(len(onto))]
    held = sum(1 << j for j in family)
    return search._lex_smaller(down[b], held, cover, onto[b], b)


def _check_orbit_bits(tables, act, perms):
    # Bit p of onto[b][x] is set iff the p-th permutation takes b to x, and
    # bit p of down[b] iff it takes b to a lower block; act[p][b] is the
    # index of the image of block b under the p-th permutation.
    onto, down = tables
    for p in perms:
        a = act[p]
        for b, row in enumerate(onto):
            assert [x >> p & 1 for x in row] == [int(a[b] == x) for x in range(len(row))]
            assert down[b] >> p & 1 == (a[b] < b)


def test_canonical_test_matches_permutations():
    # A child L + [b] of a family L that is lex-least in its orbit must be
    # cut exactly when some permutation of [n] maps it to a lex-smaller
    # ascending index tuple, found here by trying every permutation.
    # The table bits are checked against every permutation for n <= 6
    # and a seeded sample of them at n = 7, the largest n the walk builds
    # tables for.
    rng = random.Random(22)
    known = {}
    for _ in range(150):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        if (n, k) not in known:
            cands = all_masks(n, k)
            index = {b: i for i, b in enumerate(cands)}
            act = [[index[_image(p, b)] for b in cands]
                   for p in itertools.permutations(range(n))]
            tables = search._orbit_tables(n, cands)
            _check_orbit_bits(tables, act, range(len(act)))
            known[n, k] = act, tables
        act, tables = known[n, k]
        m = len(act[0])
        picked = rng.sample(range(m), rng.randint(1, min(5, m - 1)))
        family = min(tuple(sorted(a[j] for j in picked)) for a in act)
        for b in range(family[-1] + 1, m):
            child = family + (b,)
            least = all(tuple(sorted(a[j] for j in child)) >= child for a in act)
            assert _orbit_cut(tables, family, b) != least, (n, k, child)
    perms = list(itertools.permutations(range(7)))
    for k in (3, 4):
        cands = all_masks(7, k)
        index = {b: i for i, b in enumerate(cands)}
        sample = rng.sample(range(len(perms)), 150)
        act = {p: [index[_image(perms[p], b)] for b in cands] for p in sample}
        _check_orbit_bits(search._orbit_tables(7, cands), act, sample)


def test_star_left_family_lies_on_the_walk():
    # A budgeted search reports the star pair when it stops before taking
    # a pair of the star's product.  That matches the uncut walk only if
    # the atom test admits every block of the star's left family (core
    # {1, ..., t}, ascending) below the blocks before it, and the orbit
    # test, whose tables the walk builds up to n = 7, cuts none of them,
    # so that the walk reaches the star pair itself.
    for n in range(1, 10):
        for k in range(1, n + 1):
            cands = all_masks(n, k)
            tables = search._orbit_tables(n, cands) if n <= 7 else None
            for t in range(1, k + 1):
                core = (1 << t) - 1
                star = [i for i, b in enumerate(cands) if b & core == core]
                atoms = [(1 << n) - 1]
                for depth, i in enumerate(star):
                    block = cands[i]
                    assert all(search._passing(atom, [block]) for atom in atoms), (
                        n, k, t, block)
                    atoms = [a for c in atoms for a in (c & block, c & ~block) if a]
                    if tables and depth:
                        assert not _orbit_cut(tables, star[:depth], i), (n, k, t, block)


def test_cheap_cuts_run_before_the_orbit_test(monkeypatch):
    # At ell = 1 a tested child first faces its own left bound and the
    # dominance cut; a child either one cuts costs no orbit test.  Neither
    # changes a node count here (each child they cut would have no tested
    # child), so the count of orbit tests pins them: (6, 3, 2, 1, 1)
    # orbit-tests 119 children without the child's bound and 132 without
    # the dominance cut's test of the blocks before the child.
    calls = []
    lex_smaller = search._lex_smaller
    monkeypatch.setattr(search, "_lex_smaller", lambda *args: calls.append(1) or lex_smaller(*args))
    for (n, k, kprime), budget, want in [((6, 3, 2), None, (215, 98)),
                                         ((7, 3, 3), 200_000, (13_575, 5_358))]:
        calls.clear()
        result = search_max_product(n, k, kprime, WeakCrossParams(1, 1), node_budget=budget)
        assert (result.nodes_explored, len(calls)) == want


_CACHE_RUN = [((6, 3, 3, 1, 1), None), ((7, 3, 3, 1, 1), 200_000),
              ((6, 2, 2, 2, 1), None), ((6, 3, 3, 1, 1), None)]


def test_orbit_tables_carry_over_between_searches(monkeypatch):
    # The orbit tables are kept per (n, k) for the life of the process, so
    # searches in one process, the first (6, 3) one coming back after the
    # tables grew under other searches, must each report what a fresh
    # process reports.
    monkeypatch.setattr(search, "_ORBIT_TABLES", {})
    src = os.path.dirname(os.path.dirname(search.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = {}
    for (n, k, kprime, ell, t), budget in _CACHE_RUN:
        report = search_max_product(n, k, kprime, WeakCrossParams(ell, t),
                                    node_budget=budget).to_json_dict()
        key = (n, k, kprime, ell, t, budget)
        if key not in fresh:
            code = ("import json, weakcross; print(json.dumps(weakcross.search_max_product("
                    f"{n}, {k}, {kprime}, weakcross.WeakCrossParams({ell}, {t}), "
                    f"node_budget={budget}).to_json_dict()))")
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, check=True)
            fresh[key] = json.loads(proc.stdout)
        assert report == fresh[key], key
    assert sorted(search._ORBIT_TABLES) == [(6, 2), (6, 3), (7, 3)]


def test_orbit_table_cache_stays_small(monkeypatch):
    # Only tables within the orbit cap are kept: every k up to n = 7 and
    # k = 1, 7, 8 at n = 8.  Each is built whole, and those up to n = 7
    # hold about 2.3 MB, and n = 8 adds 0.7 MB.
    monkeypatch.setattr(search, "_ORBIT_TABLES", {})
    for n in range(1, 10):
        for k in range(1, n + 1):
            search_max_product(n, k, k, WeakCrossParams(1, 1), node_budget=3)
    admitted = {(n, k) for n in range(1, 8) for k in range(1, n + 1)} | {
        (8, 1), (8, 7), (8, 8)}
    assert set(search._ORBIT_TABLES) == admitted
    size = dict.fromkeys((7, 8), 0)
    for (n, k), (onto, down) in search._ORBIT_TABLES.items():
        m = len(all_masks(n, k))
        assert len(onto) == len(down) == m and all(len(row) == m for row in onto)
        held = [x for row in onto for x in row] + down
        size[max(n, 7)] += sum(map(sys.getsizeof, held + onto))
    assert size[7] < 2_500_000 and size[8] < 1_100_000, size


def test_dominance_cuts_the_star_only_when_it_is_beaten():
    # At ell = 1 the dominance cut may cut a prefix of the star's left
    # family, but only when some block j outside it t-intersects every
    # block the prefix leaves on the right: then the star plus j is a
    # feasible pair of larger product, so the exhaustive best must beat
    # the star.
    cut = 0
    for n in range(2, 7):
        for k in range(1, n + 1):
            left = all_masks(n, k)
            for kprime in range(1, n + 1):
                right = all_masks(n, kprime)
                for t in range(1, min(k, kprime) + 1):
                    core = (1 << t) - 1
                    state, held = (1 << len(right)) - 1, 0
                    for i, block in enumerate(left):
                        if block & core != core:
                            continue
                        state &= sum(1 << c for c, b in enumerate(right)
                                     if (block & b).bit_count() >= t)
                        held |= 1 << i
                        # Some j < i outside the prefix meets every block of state.
                        if any(all((left[j] & b).bit_count() >= t
                                   for c, b in enumerate(right) if state >> c & 1)
                               for j in range(i) if not held >> j & 1):
                            break
                    else:
                        continue
                    cut += 1
                    result = search_max_product(n, k, kprime, WeakCrossParams(1, t),
                                                node_budget=10**9)
                    assert result.exhaustive
                    assert result.best_product > result.star_product, (n, k, kprime, t)
    assert cut == 25


@pytest.mark.parametrize("n,k,kprime,t", [
    (4, 2, 1, 1),  # r_m = 4, fewer than one group
    (5, 2, 3, 1),  # r_m = 10, not a multiple of the group width
    (5, 2, 3, 2),
    (7, 3, 3, 1),  # r_m = 35, the benchmark's n = 7 search
])
def test_meet_tables_give_the_and_of_meet_rows(n, k, kprime, t):
    # One lookup per group of right candidates in the byte tables keeps,
    # of the left blocks outside a family, those that t-intersect every
    # right block of ``compat``: the AND of the meet rows over its bits.
    # An empty ``compat`` keeps every block outside the family.
    left, right = all_masks(n, k), all_masks(n, kprime)
    meet = [sum(1 << i for i, a in enumerate(left) if (a & b).bit_count() >= t)
            for b in right]
    width = search._GROUP
    tables = [search._meet_table(left, right[g:g + width], t)
              for g in range(0, len(right), width)]
    rng = random.Random(n * 1000 + kprime * 10 + t)
    for compat in [0, (1 << len(right)) - 1] + [rng.getrandbits(len(right)) for _ in range(300)]:
        outside = rng.getrandbits(len(left))
        got = outside
        for g, tab in enumerate(tables):
            got &= tab[compat >> (width * g) & (1 << width) - 1]
        want = reduce(lambda x, c: x & meet[c],
                      [c for c in range(len(right)) if compat >> c & 1], outside)
        assert got == want, (compat, outside, got, want)


def test_pair_tables_do_not_grow_with_t():
    # At ell = 2 no grid sum passes 4 * top, top the largest intersection,
    # so a larger t fails the same pairs and the tables stop there.
    small = search_max_product(5, 2, 2, WeakCrossParams(2, 3))
    tracemalloc.start()
    try:
        large = search_max_product(5, 2, 2, WeakCrossParams(2, 10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert large.to_json_dict() == small.to_json_dict()
    assert peak < 2_000_000


def test_colours_bound_every_clique():
    # Bit j > d of ok[d] says that columns d and j fit.  A right family
    # of two or more columns is a clique of that graph, so the colour
    # count must reach the largest clique, brute-forced here, and 1 on
    # any non-empty candidate set.
    rng = random.Random(19)
    for _ in range(300):
        r_m = rng.randint(1, 10)
        density = rng.random()
        ok = [sum(1 << j for j in range(d + 1, r_m) if rng.random() < density)
              | rng.getrandbits(d + 1) for d in range(r_m)]
        cands = rng.randint(1, (1 << r_m) - 1)
        members = [j for j in range(r_m) if cands >> j & 1]
        largest = max(size for size in range(1, len(members) + 1)
                      for s in itertools.combinations(members, size)
                      if all(ok[d] >> j & 1 for d, j in itertools.combinations(s, 2)))
        assert search._colours(cands, ok) >= largest >= 1, (ok, cands)


def test_search_infeasible_instance_reports_empty_pair():
    result = search_max_product(4, 2, 3, WeakCrossParams(1, 3))
    assert result.best_product == 0
    assert result.star_product == 0
    assert len(result.best_pair.left) == 0
    assert len(result.best_pair.right) == 0


def test_search_validation():
    with pytest.raises(ValueError):
        search_max_product(4, 5, 2, WeakCrossParams(1, 1))
    with pytest.raises(ValueError):
        search_max_product(4, 2, 0, WeakCrossParams(1, 1))


def test_search_json_shape():
    result = search_max_product(4, 2, 2, WeakCrossParams(1, 1))
    d = result.to_json_dict()
    assert d["best_product"] == "9"
    assert d["star_product"] == "9"
    assert d["exhaustive"] is True
    assert d["left_size"] == d["right_size"] == 3
    assert all(len(b) == 2 for b in d["left"])
