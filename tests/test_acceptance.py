"""Acceptance gate: ten end-to-end checks, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
and timings.  Every check is exact; the only tolerances are the runtime
ceilings asserted alongside each criterion.
"""

import json
import math
import random
import time
from functools import cache

from weakcross import (
    Family,
    FamilyPair,
    GroundSet,
    IntersectionMatrix,
    WeakCrossParams,
    check_weak_cross,
    cover_by_cores,
    erdos_bound,
    find_sunflower,
    matching_number,
    max_family_no_matching,
    min_grid_sum,
    refute_with_sunflower,
    search_max_product,
    serialize_family,
)
from weakcross.cli import main
from weakcross.constructions import (
    StarSpec,
    TightPairSpec,
    make_star,
    make_sunflower,
    make_tight_pair,
    random_family,
)
from oracles import (
    direct_cross_t_check,
    family_sets,
    naive_min_grid_sum,
    oracle_search,
    sunflower_exists,
)


def _finish(tag, description, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{tag} took {elapsed:.1f}s, limit {limit}s"
    print(f"ACCEPTANCE {tag} {description}: PASS ({elapsed:.2f}s)")


@cache
def _pair_corpus():
    """200 random family pairs with n <= 12 and k, k' <= 4, plus a t each."""
    rng = random.Random(20260823)
    out = []
    for _ in range(200):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(4, n))
        kp = rng.randint(1, min(4, n))
        ground = GroundSet(n)
        left = random_family(ground, k, rng.randint(1, min(8, math.comb(n, k))), rng)
        right = random_family(ground, kp, rng.randint(1, min(8, math.comb(n, kp))), rng)
        out.append((FamilyPair(left, right), rng.randint(1, 3)))
    return out


@cache
def _star_pair():
    return FamilyPair(
        make_star(StarSpec.default(12, 4, 2)),
        make_star(StarSpec.default(12, 5, 2)),
    )


def test_c1_threshold_reduction_to_cross_t():
    t0 = time.perf_counter()
    for pair, t in _pair_corpus():
        verdict = check_weak_cross(pair, WeakCrossParams(1, t))
        direct = direct_cross_t_check(family_sets(pair.left), family_sets(pair.right), t)
        assert (verdict.verdict != "violated") == direct
        if verdict.verdict == "violated":
            i, = verdict.witness.row_indices
            j, = verdict.witness.col_indices
            assert (pair.left.masks[i] & pair.right.masks[j]).bit_count() < t
    _finish("C1", "ell=1 reduces to the direct cross t-intersecting test "
            "on 200 random pairs", t0, 10.0)


def test_c2_grid_sum_matches_naive_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(20260824)
    for _ in range(500):
        ell = rng.randint(1, 3)
        rows = rng.randint(ell, 7)
        cols = rng.randint(ell, 7)
        entries = [[rng.randint(0, 5) for _ in range(cols)] for _ in range(rows)]
        matrix = IntersectionMatrix(rows, cols, tuple(tuple(r) for r in entries))
        value, witness = min_grid_sum(matrix, ell)
        want_value, want_rows, want_cols = naive_min_grid_sum(entries, ell)
        assert value == want_value
        assert (witness.row_indices, witness.col_indices) == (want_rows, want_cols)
    _finish("C2", "min_grid_sum equals naive double enumeration with the "
            "lex-least witness on 500 matrices", t0, 30.0)


def test_c3_star_pair_product_and_feasibility():
    t0 = time.perf_counter()
    pair = _star_pair()
    assert len(pair.left) == 45
    assert len(pair.right) == 120
    assert len(pair.left) * len(pair.right) == 5400
    assert len(pair.left) == math.comb(10, 2)
    assert len(pair.right) == math.comb(10, 3)
    for ell in (1, 2, 3):
        verdict = check_weak_cross(pair, WeakCrossParams(ell, 2))
        assert verdict.verdict == "satisfied"
        assert verdict.min_sum == ell * ell * 2
    _finish("C3", "the (12,4,5,2) star pair is feasible for ell in {1,2,3} "
            "with product 45*120 = 5400", t0, 5.0)


def test_c4_tight_pair_misses_threshold_by_exactly_one():
    t0 = time.perf_counter()
    ell, t = 2, 2
    pair = make_tight_pair(TightPairSpec.default(12, 3, 3, t), ell=ell)
    params = WeakCrossParams(ell, t)
    verdict = check_weak_cross(pair, params)
    assert verdict.verdict == "violated"
    assert verdict.min_sum == ell * ell * t - ell == 6
    assert verdict.threshold == 7

    entries = [[(a & b).bit_count() for b in pair.right.masks]
               for a in pair.left.masks]
    want_value, want_rows, want_cols = naive_min_grid_sum(entries, ell)
    assert want_value == 6
    assert (verdict.witness.row_indices, verdict.witness.col_indices) == \
        (want_rows, want_cols)

    product = len(pair.left) * len(pair.right)
    star_product = math.comb(10, 1) * math.comb(10, 1)
    assert product == math.comb(10, 1) * (math.comb(10, 1) + 1) == 110
    assert product > star_product == 100
    _finish("C4", "the (12,3,3,2) tight pair at ell=2 has min grid sum "
            "exactly 6 and product 110 > 100", t0, 10.0)


def _refutation_instances(count):
    """Instances meeting the refutation hypotheses: a planted sunflower with
    (1 + k') * ell petals on the left (plus noise blocks) and a right
    family with at least ell blocks, one of which avoids the kernel."""
    rng = random.Random(20260825)
    out = []
    while len(out) < count:
        ell = rng.randint(1, 3)
        t = rng.randint(1, 2)
        k = rng.randint(t + 1, 4)
        kprime = rng.randint(1, 4)
        r = (1 + kprime) * ell
        n = t + r * (k - t) + rng.randint(2, 6)
        n = max(n, t + kprime)
        ground = GroundSet(n)
        left = make_sunflower(ground, k, t, r)
        left_masks = set(left.masks)
        for _ in range(rng.randint(0, 3)):
            left_masks.add(random_family(ground, k, 1, rng).masks[0])
        left = Family.from_masks(ground, k, left_masks)

        flower = find_sunflower(left, t, r)
        assert flower is not None
        kernel = set(flower.kernel)

        size = ell + rng.randint(0, 3)
        right_sets = set()
        while len(right_sets) < size:
            right_sets.add(tuple(sorted(rng.sample(range(1, n + 1), kprime))))
        right_list = sorted(right_sets)
        if all(kernel <= set(s) for s in right_list):
            pool = sorted(set(range(1, n + 1)) - {flower.kernel[0]})
            right_list[0] = tuple(sorted(rng.sample(pool, kprime)))
            if tuple(right_list[0]) in right_list[1:]:
                continue
        right = Family.from_sets(n, kprime, right_list)
        out.append((FamilyPair(left, right), flower, WeakCrossParams(ell, t), r))
    return out


def test_c5_sunflower_refutation_mechanized():
    t0 = time.perf_counter()
    for pair, flower, params, r in _refutation_instances(50):
        trace = refute_with_sunflower(pair, flower, params)
        ell, t = params.ell, params.t
        assert trace.witness.achieved_sum <= ell * ell * t - ell
        assert len(trace.stage2) >= ell + trace.h * t
        assert len(trace.stage1) >= flower.petal_count - trace.h * (pair.right.k - t)
        verdict = check_weak_cross(pair, params)
        assert verdict.verdict == "violated"
    _finish("C5", "sunflower refutation traces on 50 instances stay within "
            "their stage bounds and are confirmed violations", t0, 30.0)


def test_c6_core_cover_on_satisfied_pairs():
    t0 = time.perf_counter()
    covered_pairs = 0
    for pair, t in _pair_corpus():
        params = WeakCrossParams(1, t)
        if check_weak_cross(pair, params).verdict != "satisfied":
            continue
        if t > pair.left.k:
            continue
        covered_pairs += 1
        cover = cover_by_cores(pair, (0,), t)
        assert len(cover.exceptional) <= 0
        assert cover.covered_indices() == set(range(len(pair.right)))
    assert covered_pairs >= 20

    star = _star_pair()
    for ell in (1, 2, 3):
        assert check_weak_cross(star, WeakCrossParams(ell, 2)).verdict == "satisfied"
        cover = cover_by_cores(star, tuple(range(ell)), 2)
        assert len(cover.exceptional) <= ell - 1
        assert cover.covered_indices() == set(range(len(star.right)))
    _finish("C6", "every satisfied pair decomposes into core parts with at "
            "most ell-1 exceptional blocks", t0, 10.0)


def test_c7_search_reproduces_known_maxima():
    t0 = time.perf_counter()
    small = search_max_product(4, 2, 2, WeakCrossParams(1, 1))
    product, left, right = oracle_search(4, 2, 2, 1, 1)
    assert small.best_product == product == 9 == math.comb(3, 1) ** 2
    assert small.exhaustive
    assert (small.best_pair.left.masks, small.best_pair.right.masks) == (left, right)
    assert time.perf_counter() - t0 < 60.0

    t1 = time.perf_counter()
    large = search_max_product(5, 2, 2, WeakCrossParams(1, 1))
    assert large.best_product == 16 == math.comb(4, 1) ** 2
    assert large.exhaustive
    verdict = check_weak_cross(large.best_pair, WeakCrossParams(1, 1))
    assert verdict.verdict != "violated"
    assert time.perf_counter() - t1 < 600.0
    _finish("C7", "max-product search returns 9 at n=4 (oracle-checked) and "
            "16 at n=5, both exhaustive", t0, 660.0)


def test_c8_matching_free_maximum_matches_bound():
    t0 = time.perf_counter()
    expected = {(4, 2, 2): 3, (5, 2, 2): 4, (6, 2, 2): 5, (7, 2, 3): 11}
    for (n, k, ell), value in expected.items():
        size, witness = max_family_no_matching(n, k, ell)
        assert size == erdos_bound(n, k, ell) == value
        nu, _ = matching_number(witness)
        assert nu < ell
    _finish("C8", "exhaustive matching-free maxima agree with the closed-form "
            "bound at four desk-scale points", t0, 300.0)


def test_c9_sunflower_detector_matches_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(20260826)
    for _ in range(300):
        n = rng.randint(3, 10)
        k = rng.randint(2, min(4, n))
        ground = GroundSet(n)
        size = rng.randint(1, min(10, math.comb(n, k)))
        family = random_family(ground, k, size, rng)
        t = rng.randint(1, k - 1)
        r = rng.randint(1, 4)
        found = find_sunflower(family, t, r)
        assert (found is not None) == sunflower_exists(family_sets(family), t, r)
    _finish("C9", "sunflower presence/absence matches exhaustive enumeration "
            "on 300 random families", t0, 30.0)


def test_c10_reports_identical_across_runs(tmp_path, capsys):
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    left_path = str(tmp_path / "left.fam")
    right_path = str(tmp_path / "right.fam")
    pair = make_tight_pair(TightPairSpec.default(12, 3, 3, 2))
    with open(left_path, "w") as fh:
        fh.write(serialize_family(pair.left))
    with open(right_path, "w") as fh:
        fh.write(serialize_family(pair.right))

    rleft_path = str(tmp_path / "rleft.fam")
    rright_path = str(tmp_path / "rright.fam")
    with open(rleft_path, "w") as fh:
        fh.write(serialize_family(Family.from_sets(4, 2, [(1, 2), (1, 3), (1, 4)])))
    with open(rright_path, "w") as fh:
        fh.write(serialize_family(Family.from_sets(4, 2, [(2, 3)])))

    commands = {
        "verify": ["verify-cross", "--left", left_path, "--right", right_path,
                   "--ell", "2", "--t", "2"],
        "refute": ["refute", "--left", rleft_path, "--right", rright_path,
                   "--ell", "1", "--t", "1"],
        "search": ["search", "--n", "5", "--k", "2", "--kprime", "2",
                   "--ell", "1", "--t", "1"],
    }
    for name, argv in commands.items():
        outputs = set()
        codes = set()
        for _repeat in range(3):
            code, out = run(argv)
            codes.add(code)
            outputs.add(out)
            json.loads(out)
        assert len(outputs) == 1, f"{name} reports differ across runs"
        assert len(codes) == 1

    first = search_max_product(5, 2, 2, WeakCrossParams(1, 1))
    second = search_max_product(5, 2, 2, WeakCrossParams(1, 1))
    assert first == second
    print("ACCEPTANCE C10 repeated runs of verify-cross, refute and search "
          "emit byte-identical reports: PASS")
