"""Reference constructions: shapes, sizes, and their promised properties."""

import math
import random

import pytest

from weakcross import (
    FamilyPair,
    GroundSet,
    WeakCrossParams,
    check_weak_cross,
    elements_from_mask,
    erdos_bound,
    find_sunflower,
    mask_from_elements,
    matching_number,
    parse_family,
)
from weakcross.cli import main
from weakcross.constructions import (
    StarSpec,
    TightPairSpec,
    make_covering,
    make_star,
    make_sunflower,
    make_tight_pair,
    random_family,
)


def test_star_exact_blocks():
    ground = GroundSet(5)
    spec = StarSpec(ground, 2, mask_from_elements(5, [3]))
    star = make_star(spec)
    assert [elements_from_mask(m) for m in star.masks] == [(1, 3), (2, 3), (3, 4), (3, 5)]


def test_star_default_core():
    star = make_star(StarSpec.default(6, 3, 2))
    assert len(star) == math.comb(4, 1)
    assert all(elements_from_mask(m)[:2] == (1, 2) for m in star.masks)


def test_star_size_matches_filtered_enumeration():
    from itertools import combinations

    for n, k, t in [(6, 2, 1), (7, 3, 2), (8, 4, 3), (9, 3, 1)]:
        star = make_star(StarSpec.default(n, k, t))
        core = set(range(1, t + 1))
        direct = [c for c in combinations(range(1, n + 1), k) if core <= set(c)]
        assert len(star) == len(direct) == math.comb(n - t, k - t)
        assert (sorted(elements_from_mask(m) for m in star.masks)
                == sorted(tuple(c) for c in direct))


def test_star_spec_validation():
    ground = GroundSet(5)
    with pytest.raises(ValueError, match=r"need \|core\| <= k <= n"):
        StarSpec(ground, 1, mask_from_elements(5, [1, 2]))
    # The core is a block mask: nonempty and inside the ground set.
    with pytest.raises(ValueError, match="^a block must be nonempty$"):
        StarSpec(ground, 2, 0)
    with pytest.raises(ValueError, match="^block mask has bits outside the ground set$"):
        StarSpec(ground, 2, mask_from_elements(6, [1, 6]))


def test_star_pair_is_weakly_cross_intersecting():
    # Two stars on a common core of size t meet pairwise in at least t
    # points, so every grid beats the threshold whenever a grid exists.
    for n, k, kprime, t in [(8, 2, 2, 1), (7, 3, 3, 2), (9, 3, 2, 1),
                            (10, 4, 3, 3), (6, 2, 3, 2)]:
        pair = FamilyPair(
            make_star(StarSpec.default(n, k, t)),
            make_star(StarSpec.default(n, kprime, t)),
        )
        for ell in (1, 2, 3):
            verdict = check_weak_cross(pair, WeakCrossParams(ell, t))
            if min(len(pair.left), len(pair.right)) < ell:
                assert verdict.verdict == "vacuous"
            else:
                assert verdict.verdict == "satisfied"


def test_tight_pair_default_blocks():
    spec = TightPairSpec.default(12, 3, 3, 2)
    assert spec.core == mask_from_elements(12, [1, 2])
    assert spec.extra == mask_from_elements(12, [1, 3, 4])
    pair = make_tight_pair(spec)
    assert len(pair.left) == math.comb(10, 1)
    assert len(pair.right) == math.comb(10, 1) + 1
    assert spec.extra in pair.right.masks


def test_tight_pair_misses_threshold_by_one():
    for ell in (1, 2, 3):
        n = 3 + 3 + ell * 3
        pair = make_tight_pair(TightPairSpec.default(n, 3, 3, 2), ell=ell)
        verdict = check_weak_cross(pair, WeakCrossParams(ell, 2))
        assert verdict.verdict == "violated"
        assert verdict.min_sum == verdict.threshold - 1 == ell * ell * 2 - ell


def test_tight_pair_spec_validation():
    ground = GroundSet(10)
    core = mask_from_elements(10, [1, 2])
    with pytest.raises(ValueError, match="contains the whole core"):
        TightPairSpec(ground, 3, 3, core, mask_from_elements(10, [1, 2, 3]))
    with pytest.raises(ValueError, match="meets the core in 0"):
        TightPairSpec(ground, 3, 3, core, mask_from_elements(10, [3, 4, 5]))
    with pytest.raises(ValueError, match="has size 2"):
        TightPairSpec(ground, 3, 3, core, mask_from_elements(10, [1, 3]))
    with pytest.raises(ValueError, match="exceeds a block size"):
        TightPairSpec(ground, 1, 1, core, mask_from_elements(10, [1]))
    # The core and the extra block are block masks: nonempty and inside
    # the ground set, the core checked first.
    outside = mask_from_elements(11, [1, 11])
    for bad_core, bad_extra, message in [
            (0, 0, "a block must be nonempty"),
            (0, outside, "a block must be nonempty"),
            (outside, 0, "block mask has bits outside the ground set"),
            (core, 0, "a block must be nonempty"),
            (core, outside, "block mask has bits outside the ground set")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            TightPairSpec(ground, 3, 3, bad_core, bad_extra)


def test_tight_pair_small_ground_warns():
    spec = TightPairSpec.default(8, 3, 3, 2)
    with pytest.warns(UserWarning, match="below"):
        make_tight_pair(spec, ell=3)


@pytest.mark.parametrize("ell", [0, -3])
def test_tight_pair_rejects_ell_below_one(ell):
    with pytest.raises(ValueError, match=f"ell must be at least 1, got {ell}"):
        make_tight_pair(TightPairSpec.default(12, 3, 3, 2), ell=ell)


def test_tight_pair_default_ground_too_small():
    with pytest.raises(ValueError, match="too small"):
        TightPairSpec.default(3, 3, 3, 2)


def test_make_sunflower_exact_petals():
    flower = make_sunflower(GroundSet(9), 3, 1, 4)
    assert [elements_from_mask(m) for m in flower.masks] == [
        (1, 2, 3), (1, 4, 5), (1, 6, 7), (1, 8, 9)]
    found = find_sunflower(flower, 1, 4)
    assert found is not None
    assert found.kernel == (1,)
    assert found.member_indices == (0, 1, 2, 3)


def test_make_sunflower_validation():
    ground = GroundSet(6)
    with pytest.raises(ValueError):
        make_sunflower(ground, 2, 2, 3)
    with pytest.raises(ValueError):
        make_sunflower(ground, 2, 1, 0)
    with pytest.raises(ValueError):
        make_sunflower(ground, 3, 1, 3)


def test_make_covering_matches_star_for_ell_two():
    covering = make_covering(GroundSet(10), 2, 2)
    star = make_star(StarSpec.default(10, 2, 1))
    assert covering.masks == star.masks
    assert len(covering) == 9


def test_make_covering_sizes_and_matchings():
    assert len(make_covering(GroundSet(5), 2, 1)) == 0
    assert len(make_covering(GroundSet(7), 2, 3)) == 11
    for n, k, ell in [(8, 2, 2), (9, 2, 3), (10, 3, 2), (9, 3, 3)]:
        covering = make_covering(GroundSet(n), k, ell)
        assert len(covering) == erdos_bound(n, k, ell)
        nu, _ = matching_number(covering)
        assert nu == ell - 1


def test_random_family_reproducible():
    ground = GroundSet(9)
    a = random_family(ground, 3, 10, random.Random(42))
    b = random_family(ground, 3, 10, random.Random(42))
    c = random_family(ground, 3, 10, random.Random(43))
    assert a.masks == b.masks
    assert len(a) == 10
    assert all(m.bit_count() == 3 for m in a.masks)
    assert a.masks != c.masks


# random_family(GroundSet(30), 10, 5, random.Random(1)): C(30, 10) is past
# the listed-universe limit, so the blocks come from rejection sampling.
# In family order, ascending by mask.
RANDOM_30_10 = [
    (1, 8, 14, 15, 16, 17, 18, 24, 25, 26),
    (3, 4, 5, 9, 15, 16, 19, 25, 26, 28),
    (1, 4, 8, 9, 15, 19, 20, 23, 25, 29),
    (1, 7, 11, 13, 18, 21, 26, 27, 28, 29),
    (1, 4, 7, 13, 14, 16, 21, 26, 28, 30),
]


def test_random_family_large_universe(tmp_path, capsys):
    assert math.comb(30, 10) > 50000
    family = random_family(GroundSet(30), 10, 5, random.Random(1))
    blocks = [elements_from_mask(m) for m in family.masks]
    assert blocks == RANDOM_30_10
    assert len(set(blocks)) == 5 and all(len(b) == 10 for b in blocks)
    out = tmp_path / "r.fam"
    code = main(["construct", "--kind", "random", "--n", "30", "--k", "10",
                 "--size", "5", "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert parse_family(out.read_text()) == family


def test_random_family_size_bounds():
    ground = GroundSet(5)
    with pytest.raises(ValueError):
        random_family(ground, 2, 11, random.Random(1))
    with pytest.raises(ValueError):
        random_family(ground, 2, -1, random.Random(1))
    assert len(random_family(ground, 2, 0, random.Random(1))) == 0
