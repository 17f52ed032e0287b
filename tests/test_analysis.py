"""Weak cross-intersection checks against naive enumeration oracles."""

import math
import random
import time
from itertools import combinations

import pytest

from weakcross import (
    Family,
    FamilyPair,
    GroundSet,
    IntersectionMatrix,
    VacuousChoiceError,
    WeakCrossParams,
    WitnessTuple,
    check_weak_cross,
    check_weak_single,
    intersection_matrix,
    min_grid_sum,
)
from weakcross.constructions import StarSpec, make_star, random_family
from oracles import (
    direct_cross_t_check,
    family_sets,
    naive_min_grid_sum,
    naive_single_min,
    naive_weak_cross,
)


def _matrix(entries):
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    return IntersectionMatrix(rows, cols, tuple(tuple(r) for r in entries))


def test_params_threshold():
    assert WeakCrossParams(1, 5).threshold == 5
    assert WeakCrossParams(2, 1).threshold == 3
    assert WeakCrossParams(3, 2).threshold == 16
    with pytest.raises(ValueError):
        WeakCrossParams(0, 1)
    with pytest.raises(ValueError):
        WeakCrossParams(1, 0)


def test_intersection_matrix_star():
    star = make_star(StarSpec.default(4, 2, 1))
    m = intersection_matrix(FamilyPair(star, star))
    assert m.entries == ((2, 1, 1), (1, 2, 1), (1, 1, 2))


def test_intersection_matrix_shape():
    left = Family.from_sets(6, 2, [(1, 2), (3, 4)])
    right = Family.from_sets(6, 3, [(1, 2, 3)])
    m = intersection_matrix(FamilyPair(left, right))
    assert (m.rows, m.cols) == (2, 1)
    assert m.entries == ((2,), (1,))


def _brute_matrix(pair):
    left, right = family_sets(pair.left), family_sets(pair.right)
    return tuple(tuple(len(a & b) for b in right) for a in left)


def _packed_cases():
    rng = random.Random(33)
    g64 = GroundSet(64)
    full = Family.from_sets(64, 64, [range(1, 65)])
    top = Family.from_sets(64, 3, [(1, 2, 64), (5, 63, 64), (7, 8, 9)])
    wide = random_family(g64, 20, 30, rng)
    mixed = random_family(GroundSet(9), 4, 12, rng)
    return {
        # Element 64 is the top bit of a 64-bit mask and the last column.
        "n64-element-64": FamilyPair(top, random_family(g64, 20, 25, rng)),
        "n64-wide": FamilyPair(wide, top),
        # 64 = min(k, k') is the largest entry a byte must hold.
        "one-64-block": FamilyPair(full, full),
        "64-block-left": FamilyPair(full, wide),
        "empty-right": FamilyPair(mixed, Family(GroundSet(9), 2, ())),
        "empty-left": FamilyPair(Family(GroundSet(9), 2, ()), mixed),
        "one-block-left": FamilyPair(Family.from_sets(9, 3, [(2, 5, 9)]), mixed),
        "gram": FamilyPair(mixed, mixed),
    }


@pytest.mark.parametrize("case", sorted(_packed_cases()))
def test_intersection_matrix_matches_brute_force(case):
    pair = _packed_cases()[case]
    m = intersection_matrix(pair)
    assert m == IntersectionMatrix(len(pair.left), len(pair.right), _brute_matrix(pair))
    if pair.left == pair.right:
        assert [row[i] for i, row in enumerate(m.entries)] == [pair.left.k] * len(pair.left)


def test_intersection_matrix_large_pair_sampled():
    # 1,200 x 1,200 blocks at n = 40: a row is one 1,200-byte integer
    # summed from element columns; check 3,000 sampled entries and three
    # full rows, the first, a middle and the last, against set sizes.
    rng = random.Random(40)
    ground = GroundSet(40)
    pair = FamilyPair(random_family(ground, 6, 1200, rng), random_family(ground, 7, 1200, rng))
    m = intersection_matrix(pair)
    assert (m.rows, m.cols) == (1200, 1200)
    assert all(len(row) == 1200 for row in m.entries)
    left, right = family_sets(pair.left), family_sets(pair.right)
    for i, j in [(rng.randrange(1200), rng.randrange(1200)) for _ in range(3000)]:
        assert m.entries[i][j] == len(left[i] & right[j]), (i, j)
    for i in (0, 600, 1199):
        assert m.entries[i] == tuple(len(left[i] & b) for b in right), i


def test_min_grid_sum_examples():
    value, w = min_grid_sum(_matrix([[1]]), 1)
    assert value == 1 and w == WitnessTuple((0,), (0,), 1)
    value, w = min_grid_sum(_matrix([[1, 1], [1, 1]]), 2)
    assert value == 4
    value, w = min_grid_sum(_matrix([[2, 0], [1, 1], [3, 2]]), 2)
    assert value == 4
    assert (w.row_indices, w.col_indices) == ((0, 1), (0, 1))


def test_min_grid_sum_tie_break_is_lex_least():
    value, w = min_grid_sum(_matrix([[1] * 4 for _ in range(4)]), 2)
    assert value == 4
    assert (w.row_indices, w.col_indices) == ((0, 1), (0, 1))


def test_witness_tuple_validation():
    with pytest.raises(ValueError, match="^witness indices must be strictly increasing$"):
        WitnessTuple((1, 0), (0, 1), 0)
    with pytest.raises(ValueError, match="^witness indices must be strictly increasing$"):
        WitnessTuple((0, 1), (2, 2), 0)
    with pytest.raises(ValueError, match="^witness must pick equally many rows and columns$"):
        WitnessTuple((0,), (0, 1), 0)


def test_min_grid_sum_vacuous():
    with pytest.raises(ValueError, match="^ell must be at least 1, got 0$"):
        min_grid_sum(_matrix([[1, 2]]), 0)
    with pytest.raises(VacuousChoiceError):
        min_grid_sum(_matrix([[1, 2]]), 2)
    with pytest.raises(VacuousChoiceError):
        min_grid_sum(_matrix([[1], [2]]), 2)


def test_min_grid_sum_matches_oracle():
    rng = random.Random(112)
    for _ in range(150):
        ell = rng.randint(1, 3)
        n_rows = rng.randint(ell, 7)
        n_cols = rng.randint(ell, 7)
        entries = [[rng.randint(0, 5) for _ in range(n_cols)] for _ in range(n_rows)]
        value, w = min_grid_sum(_matrix(entries), ell)
        want = naive_min_grid_sum(entries, ell)
        assert (value, w.row_indices, w.col_indices) == want


def _random_pair(rng, max_n=10, max_k=4):
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(max_k, n))
    kp = rng.randint(1, min(max_k, n))
    ground = GroundSet(n)
    left = random_family(ground, k, rng.randint(1, min(8, math.comb(n, k))), rng)
    right = random_family(ground, kp, rng.randint(1, min(8, math.comb(n, kp))), rng)
    return FamilyPair(left, right)


def test_check_weak_cross_matches_oracle():
    rng = random.Random(114)
    for _ in range(120):
        pair = _random_pair(rng)
        ell = rng.randint(1, 3)
        t = rng.randint(1, 3)
        verdict = check_weak_cross(pair, WeakCrossParams(ell, t))
        want = naive_weak_cross(family_sets(pair.left), family_sets(pair.right), ell, t)
        assert verdict.verdict == want
        if want == "violated":
            w = verdict.witness
            achieved = sum(
                (pair.left.masks[i] & pair.right.masks[j]).bit_count()
                for i in w.row_indices for j in w.col_indices)
            assert achieved == verdict.min_sum == w.achieved_sum
            assert verdict.min_sum < verdict.threshold


def test_check_weak_cross_ell1_is_cross_t():
    rng = random.Random(115)
    for _ in range(120):
        pair = _random_pair(rng)
        t = rng.randint(1, 3)
        verdict = check_weak_cross(pair, WeakCrossParams(1, t))
        direct = direct_cross_t_check(family_sets(pair.left), family_sets(pair.right), t)
        assert (verdict.verdict != "violated") == direct


def test_check_weak_cross_vacuous():
    left = Family.from_sets(5, 2, [(1, 2)])
    right = Family.from_sets(5, 2, [(3, 4), (1, 5)])
    verdict = check_weak_cross(FamilyPair(left, right), WeakCrossParams(2, 1))
    assert verdict.verdict == "vacuous"
    assert verdict.min_sum is None and verdict.witness is None


def test_check_weak_cross_monotone_under_deletion():
    rng = random.Random(116)
    seen = 0
    while seen < 30:
        pair = _random_pair(rng, max_n=8, max_k=3)
        ell = rng.randint(1, 2)
        t = rng.randint(1, 2)
        params = WeakCrossParams(ell, t)
        if check_weak_cross(pair, params).verdict != "satisfied":
            continue
        seen += 1
        smaller = FamilyPair(pair.left.drop(rng.randrange(len(pair.left))), pair.right)
        assert check_weak_cross(smaller, params).verdict != "violated"


def test_verdict_json_shape():
    left = Family.from_sets(4, 2, [(1, 2)])
    right = Family.from_sets(4, 2, [(3, 4)])
    verdict = check_weak_cross(FamilyPair(left, right), WeakCrossParams(1, 1))
    d = verdict.to_json_dict()
    assert d == {
        "verdict": "violated",
        "min_sum": 0,
        "threshold": 1,
        "witness": {"rows": [0], "cols": [0]},
    }


def test_check_weak_single_examples():
    star = make_star(StarSpec.default(6, 3, 1))
    verdict = check_weak_single(star, 3)
    assert verdict.verdict == "satisfied"
    assert verdict.threshold == 2

    disjoint = Family.from_sets(6, 2, [(1, 2), (3, 4), (5, 6)])
    verdict = check_weak_single(disjoint, 3)
    assert verdict.verdict == "violated"
    assert verdict.min_sum == 0
    assert verdict.indices == (0, 1, 2)


def test_check_weak_single_vacuous():
    f = Family.from_sets(6, 2, [(1, 2), (3, 4)])
    assert check_weak_single(f, 1).verdict == "vacuous"
    assert check_weak_single(f, 3).verdict == "vacuous"


def test_check_weak_single_matches_oracle():
    rng = random.Random(117)
    for _ in range(100):
        n = rng.randint(3, 9)
        ground = GroundSet(n)
        k = rng.randint(1, min(4, n - 1))
        f = random_family(ground, k, rng.randint(2, min(7, math.comb(n, k))), rng)
        ell = rng.randint(2, 3)
        if len(f) < ell:
            continue
        verdict = check_weak_single(f, ell)
        value, sel = naive_single_min(family_sets(f), ell)
        assert verdict.min_sum == value
        if verdict.verdict == "violated":
            assert verdict.indices == sel
    # Tie-heavy: up to 20 blocks on at most 7 points, so many ell-subsets
    # share the minimum, and the floor stop and the last pick by one min
    # must still give the oracle's lex-least witness.
    for _ in range(150):
        n = rng.randint(3, 7)
        k = rng.randint(1, min(3, n - 1))
        f = random_family(GroundSet(n), k, rng.randint(2, min(20, math.comb(n, k))), rng)
        ell = rng.randint(2, 4)
        if len(f) < ell:
            continue
        verdict = check_weak_single(f, ell)
        value, sel = naive_single_min(family_sets(f), ell)
        assert verdict.min_sum == value
        if verdict.verdict == "violated":
            assert verdict.indices == sel


def test_check_weak_single_star_stops_at_the_floor():
    # The 171 3-subsets of [20] through 1 pairwise meet in 1 or 2 points,
    # so no 3 of them sum below 3; the walk stops at the first triple
    # that does, where a full walk took 0.5-0.8 s.
    star = Family.from_sets(20, 3, [c for c in combinations(range(1, 21), 3) if 1 in c])
    assert len(star) == 171
    started = time.perf_counter()
    verdict = check_weak_single(star, 3)
    elapsed = time.perf_counter() - started
    assert (verdict.verdict, verdict.min_sum) == ("satisfied", 3)
    assert elapsed < 0.1, elapsed


def test_check_weak_single_threshold_formula():
    f = Family.from_sets(8, 2, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert check_weak_single(f, 2).threshold == 1
    assert check_weak_single(f, 3).threshold == 2
    assert check_weak_single(f, 4).threshold == 4
