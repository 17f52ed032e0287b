"""Sunflower search, matching numbers, and the matching-free maximum."""

import math
import random

import pytest

from weakcross import (
    Family,
    GroundSet,
    InstanceTooLargeError,
    MatchingCertificate,
    Sunflower,
    erdos_bound,
    find_sunflower,
    matching_number,
    max_family_no_matching,
    validate_sunflower,
)
from weakcross.constructions import make_covering, make_sunflower, random_family
from oracles import (
    exhaustive_matching_number,
    exhaustive_max_no_matching,
    family_sets,
    sunflower_exists,
)


def test_sunflower_dataclass_validation():
    Sunflower((1, 2), (0, 2, 5), 3)
    with pytest.raises(ValueError):
        Sunflower((2, 1), (0, 1), 2)
    with pytest.raises(ValueError):
        Sunflower((1,), (1, 0), 2)
    with pytest.raises(ValueError):
        Sunflower((1,), (0, 1), 3)


def test_matching_certificate_validation():
    MatchingCertificate((0, 3, 4))
    with pytest.raises(ValueError):
        MatchingCertificate((3, 0))


def test_find_sunflower_worked_example():
    f = Family.from_sets(5, 3, [(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    flower = find_sunflower(f, 2, 3)
    assert flower is not None
    assert flower.kernel == (1, 2)
    assert flower.member_indices == (0, 1, 2)
    assert flower.petal_count == 3


def test_find_sunflower_none_when_absent():
    f = Family.from_sets(5, 3, [(1, 2, 3), (1, 2, 4), (1, 4, 5)])
    assert find_sunflower(f, 2, 3) is None
    assert find_sunflower(f, 2, 2) is not None


def test_find_sunflower_prefers_lex_least_kernel():
    # Kernel (2,) has three petals, but (1,) also reaches the requested two
    # and is tried first; canonical order puts (1,3) and (1,4) at 0 and 2.
    f = Family.from_sets(
        6, 2, [(1, 3), (1, 4), (2, 5), (2, 6), (2, 3)])
    flower = find_sunflower(f, 1, 2)
    assert flower is not None
    assert flower.kernel == (1,)
    assert flower.member_indices == (0, 2)
    assert find_sunflower(f, 1, 3).kernel == (2,)


def test_find_sunflower_kernel_size_bounds():
    f = Family.from_sets(5, 2, [(1, 2), (1, 3)])
    with pytest.raises(ValueError):
        find_sunflower(f, 2, 2)
    with pytest.raises(ValueError):
        find_sunflower(f, 0, 2)
    with pytest.raises(ValueError):
        find_sunflower(f, 1, 0)


def test_find_sunflower_matches_existence_oracle():
    rng = random.Random(211)
    for _ in range(150):
        n = rng.randint(4, 9)
        k = rng.randint(2, min(4, n))
        ground = GroundSet(n)
        f = random_family(ground, k, rng.randint(1, min(9, math.comb(n, k))), rng)
        t = rng.randint(1, k - 1)
        r = rng.randint(1, 4)
        flower = find_sunflower(f, t, r)
        exists = sunflower_exists(family_sets(f), t, r)
        assert (flower is not None) == exists
        if flower is not None:
            assert len(flower.kernel) == t
            assert flower.petal_count >= r
            validate_sunflower(f, flower)


def test_validate_sunflower_rejects_bad_certificates():
    f = Family.from_sets(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    validate_sunflower(f, Sunflower((1, 2), (0, 1), 2))
    with pytest.raises(ValueError):
        validate_sunflower(f, Sunflower((1, 2), (0, 2), 2))
    with pytest.raises(ValueError):
        validate_sunflower(f, Sunflower((2, 3), (0, 1), 2))
    with pytest.raises(ValueError):
        validate_sunflower(f, Sunflower((1, 2), (0, 5), 2))
    with pytest.raises(ValueError):
        validate_sunflower(f, Sunflower((9,), (0,), 1))
    # Both members hold the kernel {1} but also share 3.
    g = Family.from_sets(5, 3, [(1, 2, 3), (1, 3, 4)])
    with pytest.raises(ValueError, match="^two members intersect outside the kernel$"):
        validate_sunflower(g, Sunflower((1,), (0, 1), 2))


def test_matching_number_examples():
    disjoint = Family.from_sets(6, 2, [(1, 2), (3, 4), (5, 6)])
    nu, cert = matching_number(disjoint)
    assert nu == 3 and cert.indices == (0, 1, 2)

    triangle = Family.from_sets(3, 2, [(1, 2), (1, 3), (2, 3)])
    nu, cert = matching_number(triangle)
    assert nu == 1 and cert.indices == (0,)

    star = Family.from_sets(6, 2, [(1, 2), (1, 3), (1, 4)])
    nu, _ = matching_number(star)
    assert nu == 1

    # An empty kernel makes the petals the whole members, hence a matching;
    # a singleton kernel forces every pair to meet, collapsing nu to 1.
    flower = make_sunflower(GroundSet(12), 3, 0, 4)
    nu, cert = matching_number(flower)
    assert nu == 4 and cert.indices == (0, 1, 2, 3)
    shared = make_sunflower(GroundSet(13), 4, 1, 4)
    nu, _ = matching_number(shared)
    assert nu == 1

    empty = Family.from_sets(4, 2, [])
    assert matching_number(empty) == (0, MatchingCertificate(()))


def test_matching_number_matches_oracle():
    rng = random.Random(212)
    for _ in range(120):
        n = rng.randint(3, 10)
        k = rng.randint(1, min(4, n))
        ground = GroundSet(n)
        f = random_family(ground, k, rng.randint(0, min(9, math.comb(n, k))), rng)
        nu, cert = matching_number(f)
        want_nu, want_sel = exhaustive_matching_number(family_sets(f))
        assert (nu, cert.indices) == (want_nu, want_sel)


def test_erdos_bound_examples():
    assert erdos_bound(10, 2, 2) == 9
    assert erdos_bound(7, 2, 3) == 11
    assert erdos_bound(6, 2, 2) == 5
    assert erdos_bound(5, 2, 2) == 4
    assert erdos_bound(4, 2, 2) == 3
    for n in range(2, 9):
        assert erdos_bound(n, 2, 1) == 0
    # When fewer than k points survive removing [ell-1], every block meets it.
    assert erdos_bound(4, 3, 3) == math.comb(4, 3)
    with pytest.raises(ValueError):
        erdos_bound(3, 4, 2)
    with pytest.raises(ValueError):
        erdos_bound(5, 2, 0)


def test_erdos_bound_counts_covering_family():
    for n, k, ell in [(6, 2, 2), (7, 2, 3), (6, 3, 2), (8, 3, 3)]:
        covering = make_covering(GroundSet(n), k, ell)
        assert len(covering) == erdos_bound(n, k, ell)


def test_max_family_no_matching_matches_exhaustive():
    for n, k in [(4, 2), (5, 2)]:
        for ell in (1, 2, 3):
            size, witness = max_family_no_matching(n, k, ell)
            want_size, want_masks = exhaustive_max_no_matching(n, k, ell)
            assert size == want_size
            assert witness.masks == want_masks
            nu, _ = matching_number(witness)
            assert nu < ell


def test_max_family_no_matching_agrees_with_bound():
    for n, k, ell in [(4, 2, 2), (5, 2, 2), (6, 2, 2)]:
        size, _ = max_family_no_matching(n, k, ell)
        assert size == erdos_bound(n, k, ell)


def test_max_family_no_matching_guard():
    with pytest.raises(InstanceTooLargeError):
        max_family_no_matching(8, 2, 2)
    size, witness = max_family_no_matching(8, 2, 2, force=True)
    assert size == erdos_bound(8, 2, 2) == 7
    nu, _ = matching_number(witness)
    assert nu == 1
