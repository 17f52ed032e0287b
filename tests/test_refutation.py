"""Staged sunflower refutation and the core-cover decomposition."""

import random

import pytest

from weakcross import (
    Family,
    FamilyPair,
    GroundSet,
    Sunflower,
    WeakCrossParams,
    check_weak_cross,
    cover_by_cores,
    elements_from_mask,
    find_sunflower,
    refute_with_sunflower,
)
from weakcross.constructions import make_star, make_sunflower, StarSpec


def _pair(n, k, left_sets, kprime, right_sets):
    return FamilyPair(
        Family.from_sets(n, k, left_sets),
        Family.from_sets(n, kprime, right_sets),
    )


def test_refute_single_choice_worked_example():
    pair = _pair(4, 2, [(1, 2), (1, 3), (1, 4)], 2, [(2, 3)])
    flower = find_sunflower(pair.left, 1, 3)
    trace = refute_with_sunflower(pair, flower, WeakCrossParams(1, 1))
    assert trace.kernel == (1,)
    assert (trace.d, trace.h) == (0, 0)
    assert trace.right_indices == (0,)
    assert trace.stage0 == (0, 1, 2)
    assert trace.stage1 == (0, 1, 2)
    assert trace.stage2 == (2,)
    assert trace.witness.row_indices == (2,)
    assert trace.witness.col_indices == (0,)
    assert trace.witness.achieved_sum == 0
    assert check_weak_cross(pair, WeakCrossParams(1, 1)).verdict == "violated"


def test_refute_kernel_containing_branch():
    # d = 2 kernel-containing right blocks with ell = 2 exercises the
    # "containing first, then one avoider" choice and both discard stages.
    pair = _pair(7, 2,
                 [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)],
                 2, [(1, 2), (1, 3), (2, 3), (4, 5)])
    flower = find_sunflower(pair.left, 1, 6)
    trace = refute_with_sunflower(pair, flower, WeakCrossParams(2, 1))
    assert (trace.d, trace.h) == (2, 1)
    assert trace.right_indices == (0, 2)
    assert trace.stage1 == (1, 2, 3, 4, 5)
    assert trace.stage2 == (2, 3, 4, 5)
    assert trace.witness.row_indices == (2, 3)
    assert trace.witness.col_indices == (0, 2)
    assert trace.witness.achieved_sum == 2
    assert check_weak_cross(pair, WeakCrossParams(2, 1)).verdict == "violated"


def test_refute_few_containing_branch():
    # d = 0 < ell - 1 forces all chosen blocks to be kernel avoiders.
    pair = _pair(8, 2,
                 [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8)],
                 2, [(2, 3), (4, 5)])
    flower = find_sunflower(pair.left, 1, 6)
    trace = refute_with_sunflower(pair, flower, WeakCrossParams(2, 1))
    assert (trace.d, trace.h) == (0, 0)
    assert trace.right_indices == (0, 1)
    assert trace.stage1 == trace.stage0
    assert trace.stage2 == (4, 5, 6)
    assert trace.witness.row_indices == (4, 5)
    assert trace.witness.achieved_sum == 0


def test_refute_rejects_wrong_kernel_size():
    pair = _pair(6, 3, [(1, 2, 3), (1, 2, 4), (1, 2, 5)], 2, [(3, 4)])
    flower = find_sunflower(pair.left, 2, 3)
    with pytest.raises(ValueError, match="hypothesis failed.*need exactly t"):
        refute_with_sunflower(pair, flower, WeakCrossParams(1, 1))


def test_refute_rejects_too_few_petals():
    pair = _pair(4, 2, [(1, 2), (1, 3), (1, 4)], 3, [(2, 3, 4)])
    flower = find_sunflower(pair.left, 1, 3)
    with pytest.raises(ValueError, match=r"hypothesis failed.*\(1 \+ k'\) \* ell"):
        refute_with_sunflower(pair, flower, WeakCrossParams(1, 1))


def test_refute_rejects_small_right_family():
    pair = _pair(7, 2,
                 [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)],
                 2, [(2, 3)])
    flower = find_sunflower(pair.left, 1, 6)
    with pytest.raises(ValueError, match="hypothesis failed.*right family"):
        refute_with_sunflower(pair, flower, WeakCrossParams(2, 1))


def test_refute_rejects_missing_avoider():
    pair = _pair(4, 2, [(1, 2), (1, 3), (1, 4)], 2, [(1, 2)])
    flower = find_sunflower(pair.left, 1, 3)
    with pytest.raises(ValueError, match="hypothesis failed.*avoiding"):
        refute_with_sunflower(pair, flower, WeakCrossParams(1, 1))


def test_refute_rejects_foreign_sunflower():
    pair = _pair(4, 2, [(1, 2), (1, 3), (1, 4)], 2, [(2, 3)])
    with pytest.raises(ValueError):
        refute_with_sunflower(
            pair, Sunflower((1,), (0, 1, 5), 3), WeakCrossParams(1, 1))


def _random_refutation_instance(rng):
    ell = rng.randint(1, 3)
    t = rng.randint(1, 2)
    k = rng.randint(t + 1, 4)
    kprime = rng.randint(1, 4)
    r = (1 + kprime) * ell
    n = t + r * (k - t) + rng.randint(2, 6)
    n = max(n, t + kprime)
    ground = GroundSet(n)
    left = make_sunflower(ground, k, t, r)

    kernel = set(range(1, t + 1))
    right_sets = {tuple(sorted(rng.sample(range(t + 1, n + 1), kprime)))}
    target = ell + rng.randint(0, 3)
    while len(right_sets) < target:
        if kprime >= t and rng.random() < 0.4:
            cand = sorted(kernel | set(rng.sample(range(t + 1, n + 1), kprime - t)))
        else:
            cand = sorted(rng.sample(range(1, n + 1), kprime))
        right_sets.add(tuple(cand))
    right = Family.from_sets(n, kprime, sorted(right_sets))
    return FamilyPair(left, right), WeakCrossParams(ell, t), r


def test_refute_random_instances():
    rng = random.Random(411)
    for _ in range(60):
        pair, params, r = _random_refutation_instance(rng)
        flower = find_sunflower(pair.left, params.t, r)
        assert flower is not None and flower.petal_count == r
        trace = refute_with_sunflower(pair, flower, params)
        ell, t = params.ell, params.t
        kprime = pair.right.k

        assert len(trace.right_indices) == ell
        assert len(set(trace.right_indices)) == ell
        assert trace.h == min(trace.d, ell - 1)
        assert set(trace.stage2) <= set(trace.stage1) <= set(trace.stage0)
        assert len(trace.stage1) >= r - trace.h * (kprime - t)
        assert len(trace.stage2) >= ell + trace.h * t
        assert trace.witness.row_indices == tuple(trace.stage2[:ell])
        assert trace.witness.col_indices == tuple(sorted(trace.right_indices))
        assert trace.witness.achieved_sum <= ell * ell * t - ell
        verdict = check_weak_cross(pair, params)
        assert verdict.verdict == "violated"
        assert verdict.min_sum <= trace.witness.achieved_sum


def test_refutation_trace_json_shape():
    pair = _pair(4, 2, [(1, 2), (1, 3), (1, 4)], 2, [(2, 3)])
    flower = find_sunflower(pair.left, 1, 3)
    trace = refute_with_sunflower(pair, flower, WeakCrossParams(1, 1))
    d = trace.to_json_dict()
    assert d["kernel"] == [1]
    assert d["right_indices"] == [0]
    assert d["witness"] == {"rows": [2], "cols": [0], "sum": 0}


def test_cover_star_pair_has_no_exceptional_blocks():
    star = make_star(StarSpec.default(6, 2, 1))
    pair = FamilyPair(star, star)
    cover = cover_by_cores(pair, (0, 1), 1)
    assert cover.exceptional == ()
    parts = cover.parts_dict()
    assert set(parts) == {(1,), (2,), (3,)}
    assert parts[(1,)] == tuple(range(len(star)))
    assert cover.covered_indices() == set(range(len(star)))


def test_cover_worked_example():
    pair = _pair(6, 2, [(1, 2), (3, 4)], 2, [(1, 3), (2, 4), (5, 6), (1, 2)])
    cover = cover_by_cores(pair, (0, 1), 2)
    # Only (1, 2) contains a full 2-core of a chosen left block; the rest
    # meet both left blocks in at most one point each.
    right_elems = [elements_from_mask(m) for m in pair.right.masks]
    assert (1, 2) in right_elems
    covered = cover.parts_dict()[(1, 2)]
    assert covered == (right_elems.index((1, 2)),)
    assert len(cover.exceptional) == 3
    assert cover.covered_indices() == set(range(len(pair.right)))


def test_cover_exceptional_small_when_satisfied():
    rng = random.Random(412)
    from weakcross.constructions import random_family

    checked = 0
    for _ in range(400):
        if checked >= 25:
            break
        n = rng.randint(5, 9)
        k = rng.randint(2, 3)
        kprime = rng.randint(2, 3)
        ell = rng.randint(1, 3)
        t = rng.randint(1, min(k, kprime))
        ground = GroundSet(n)
        left = random_family(ground, k, rng.randint(ell, 6), rng)
        right = random_family(ground, kprime, rng.randint(1, 6), rng)
        pair = FamilyPair(left, right)
        params = WeakCrossParams(ell, t)
        if check_weak_cross(pair, params).verdict != "satisfied":
            continue
        checked += 1
        cover = cover_by_cores(pair, tuple(range(ell)), t)
        assert len(cover.exceptional) <= ell - 1
        assert cover.covered_indices() == set(range(len(right)))
    assert checked >= 10


def test_cover_exceptional_can_reach_ell_when_violated():
    pair = _pair(4, 2, [(1, 2), (3, 4)], 2, [(1, 3), (2, 4)])
    params = WeakCrossParams(2, 2)
    assert check_weak_cross(pair, params).verdict == "violated"
    cover = cover_by_cores(pair, (0, 1), 2)
    assert cover.exceptional == (0, 1)


def test_cover_part_keys_are_all_cores():
    from itertools import combinations

    pair = _pair(7, 3, [(1, 2, 3), (2, 4, 6), (3, 5, 7)], 2,
                 [(1, 2), (4, 6), (3, 5), (6, 7)])
    cover = cover_by_cores(pair, (0, 2), 2)
    want = set()
    for i in (0, 2):
        want.update(combinations(elements_from_mask(pair.left.masks[i]), 2))
    assert set(cover.parts_dict()) == want
    for core, members in cover.parts:
        core_set = set(core)
        for j in members:
            assert core_set <= set(elements_from_mask(pair.right.masks[j]))


def test_cover_validation():
    pair = _pair(5, 2, [(1, 2), (3, 4)], 2, [(1, 3)])
    with pytest.raises(ValueError, match="distinct"):
        cover_by_cores(pair, (0, 0), 1)
    with pytest.raises(ValueError, match="outside"):
        cover_by_cores(pair, (0, 5), 1)
    with pytest.raises(ValueError, match="exceeds"):
        cover_by_cores(pair, (0,), 3)
    with pytest.raises(ValueError, match="at least 1"):
        cover_by_cores(pair, (0,), 0)


def test_cover_json_shape():
    pair = _pair(5, 2, [(1, 2)], 2, [(1, 2), (3, 4)])
    cover = cover_by_cores(pair, (0,), 2)
    d = cover.to_json_dict()
    assert d["left_indices"] == [0]
    assert d["exceptional"] == [1]
    assert d["parts"] == [{"core": [1, 2], "members": [0]}]
