"""Max-product search against double-powerset enumeration oracles."""

import pytest

from weakcross import (
    InstanceTooLargeError,
    WeakCrossParams,
    check_weak_cross,
    search_max_product,
)
from oracles import oracle_search


def _result_masks(result):
    return (result.best_pair.left.masks, result.best_pair.right.masks)


def test_search_triangle_instance():
    result = search_max_product(4, 2, 2, WeakCrossParams(1, 1))
    product, left, right = oracle_search(4, 2, 2, 1, 1)
    assert result.best_product == product == 9
    assert _result_masks(result) == (left, right)
    assert result.star_product == 9
    assert result.exhaustive
    assert result.nodes_explored == 63


def test_search_star_is_optimal_at_five_points():
    result = search_max_product(5, 2, 2, WeakCrossParams(1, 1))
    assert result.best_product == 16
    assert result.star_product == 16
    assert result.exhaustive
    verdict = check_weak_cross(result.best_pair, WeakCrossParams(1, 1))
    assert verdict.verdict != "violated"


# Every (n, k, k', ell, t) with n in {3, 4}, ell in {2, 3} and t in {1, 2}:
# 100 instances within reach of the double-powerset oracle, the earlier
# hand-picked ones among them.
_ORACLE_CASES = [
    (n, k, kprime, ell, t)
    for n in (3, 4) for k in range(1, n + 1) for kprime in range(1, n + 1)
    for ell in (2, 3) for t in (1, 2)]


@pytest.mark.parametrize("n,k,kprime,ell,t", _ORACLE_CASES)
def test_search_matches_oracle_small(n, k, kprime, ell, t):
    result = search_max_product(n, k, kprime, WeakCrossParams(ell, t))
    product, left, right = oracle_search(n, k, kprime, ell, t)
    assert result.best_product == product
    assert _result_masks(result) == (left, right)
    assert result.exhaustive


def test_search_matches_oracle_pair_blocks():
    result = search_max_product(4, 2, 2, WeakCrossParams(2, 1))
    product, left, right = oracle_search(4, 2, 2, 2, 1)
    assert result.best_product == product
    assert _result_masks(result) == (left, right)


def test_search_result_is_feasible_and_beats_star():
    for n, k, kprime, ell, t in [(4, 2, 2, 1, 1), (4, 2, 2, 2, 1),
                                 (4, 2, 1, 2, 1), (5, 2, 1, 1, 1)]:
        params = WeakCrossParams(ell, t)
        result = search_max_product(n, k, kprime, params)
        assert result.best_product >= result.star_product
        assert check_weak_cross(result.best_pair, params).verdict != "violated"
        sizes = (len(result.best_pair.left), len(result.best_pair.right))
        assert result.best_product == sizes[0] * sizes[1]


def test_search_generic_path_agrees_with_fast_path():
    # (5,2,2), (5,2,3) and (5,3,3) have many tied products, so they check
    # that building a candidate only when it can tie keeps the lex-least pair.
    for n, k, kprime in [(4, 2, 2), (4, 2, 1), (5, 1, 1),
                         (5, 2, 2), (5, 2, 3), (5, 3, 3)]:
        params = WeakCrossParams(1, 1)
        fast = search_max_product(n, k, kprime, params)
        slow = search_max_product(n, k, kprime, params, force_generic=True)
        assert fast.best_product == slow.best_product
        assert _result_masks(fast) == _result_masks(slow)
        assert fast.exhaustive and slow.exhaustive


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
    # (best product, nodes, exhaustive) pin the bucket split, the
    # per-bucket budget shares and the incumbent the buckets hand on:
    # any drift in them moves the node count.
    pins = [
        ((5, 2, 2, 1, 1), 40, (16, 33, False)),
        ((6, 2, 2, 1, 1), None, (25, 1314, True)),
        ((7, 3, 3, 1, 1), 200, (225, 167, False)),
        ((6, 2, 2, 2, 1), 8000, (25, 5026, False)),
        ((5, 2, 2, 2, 1), None, (16, 12079, True)),
        ((5, 2, 3, 2, 1), None, (36, 19890, True)),
        ((5, 2, 2, 2, 2), None, (10, 10570, True)),
        ((5, 2, 2, 3, 1), 3000, (25, 1562, False)),
        ((5, 2, 3, 3, 2), 3000, (20, 1723, False)),
    ]
    for (n, k, kprime, ell, t), budget, want in pins:
        result = search_max_product(n, k, kprime, WeakCrossParams(ell, t),
                                    node_budget=budget)
        assert (result.best_product, result.nodes_explored, result.exhaustive) == want


def _blocks(*blocks):
    return [[int(e) for e in b] for b in blocks]


_PAIRS = ("12", "13", "23", "14", "24", "34", "15", "25", "35", "45")
_TRIPLES = ("123", "124", "134", "234", "125", "135", "235", "145", "245", "345")


@pytest.mark.parametrize("instance,want", [
    ((5, 2, 2, 2, 1), (16, 16, _blocks(*_PAIRS[:4]), _blocks(*_PAIRS[:4]))),
    ((5, 2, 3, 2, 1),
     (36, 24, _blocks(*_PAIRS[:6]), _blocks(*_TRIPLES[:5], "345"))),
    ((5, 2, 2, 2, 2), (10, 1, _blocks("12"), _blocks(*_PAIRS))),
    ((5, 2, 3, 2, 2), (10, 3, _blocks("12"), _blocks(*_TRIPLES))),
    ((5, 3, 3, 2, 1), (100, 36, _blocks(*_TRIPLES), _blocks(*_TRIPLES))),
    ((5, 2, 3, 3, 1),
     (56, 24, _blocks(*_PAIRS[:8]), _blocks(*_TRIPLES[:6], "245"))),
])
def test_search_exhaustive_reports_pinned(instance, want):
    # Exhaustive ell >= 2 reports past the oracle's reach (n = 5), measured
    # before the right-extension bound changed: the best product, the star
    # product and the lex-least pair must not move with node counts.
    n, k, kprime, ell, t = instance
    best, star, left, right = want
    report = search_max_product(n, k, kprime, WeakCrossParams(ell, t)).to_json_dict()
    del report["nodes_explored"]
    assert report == {
        "best_product": str(best), "star_product": str(star), "exhaustive": True,
        "left_size": len(left), "right_size": len(right),
        "left": left, "right": right,
    }


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
