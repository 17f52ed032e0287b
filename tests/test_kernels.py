"""Kernel backends: correctness against oracles and pure/compiled parity."""

import random

import pytest

from weakcross import _kernels_py
from weakcross import kernels
from oracles import (
    exhaustive_matching_number,
    mask_to_set,
    naive_min_grid_sum,
    planted_matching_blocks,
)

try:
    from weakcross import _ckernels
except ImportError:  # pragma: no cover - build dependent
    _ckernels = None

BACKENDS = [_kernels_py] + ([_ckernels] if _ckernels else [])


def _random_matrix(rng, max_dim=6, max_entry=5):
    n_rows = rng.randint(1, max_dim)
    n_cols = rng.randint(1, max_dim)
    entries = [[rng.randint(0, max_entry) for _ in range(n_cols)]
               for _ in range(n_rows)]
    return entries


def _random_masks(rng, count, n):
    return [rng.randint(1, (1 << n) - 1) for _ in range(count)]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_min_grid_sum_bucket_matches_oracle(impl):
    rng = random.Random(404)
    for _ in range(150):
        entries = _random_matrix(rng)
        n_rows, n_cols = len(entries), len(entries[0])
        ell = rng.randint(1, 3)
        if n_rows < ell or n_cols < ell:
            continue
        flat = [v for row in entries for v in row]
        got = impl.min_grid_sum_bucket(flat, n_rows, n_cols, ell, False, 0, n_rows)
        want = naive_min_grid_sum(entries, ell)
        assert got == want


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_min_grid_sum_bucket_split_merges_to_full(impl):
    rng = random.Random(505)
    for _ in range(60):
        entries = _random_matrix(rng)
        n_rows, n_cols = len(entries), len(entries[0])
        ell = rng.randint(1, 2)
        if n_rows < ell or n_cols < ell:
            continue
        flat = [v for row in entries for v in row]
        full = impl.min_grid_sum_bucket(flat, n_rows, n_cols, ell, False, 0, n_rows)
        parts = [impl.min_grid_sum_bucket(flat, n_rows, n_cols, ell, False, i, i + 1)
                 for i in range(n_rows)]
        best = None
        for cand in parts:
            if cand is None:
                continue
            key = impl.grid_candidate_key(cand, False)
            if best is None or key < impl.grid_candidate_key(best, False):
                best = cand
        assert best == full


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_min_grid_sum_bucket_empty_bucket(impl):
    assert impl.min_grid_sum_bucket([1, 2, 3, 4], 2, 2, 2, False, 1, 2) is None
    assert impl.min_grid_sum_bucket([1], 1, 1, 2, False, 0, 1) is None


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_max_disjoint_matches_oracle(impl):
    rng = random.Random(606)
    for _ in range(150):
        n = rng.randint(2, 10)
        masks = _random_masks(rng, rng.randint(0, 9), n)
        size, sel = impl.max_disjoint(masks)
        want_size, want_sel = exhaustive_matching_number([mask_to_set(m) for m in masks])
        assert size == want_size
        assert sel == want_sel


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_max_disjoint_deep_family(impl):
    # 1,500 blocks put the include-first search far deeper than Python's
    # recursion limit; 13 planted disjoint 3-blocks of [40] fix nu = 13.
    blocks = planted_matching_blocks(31)
    masks = sorted(sum(1 << (e - 1) for e in b) for b in blocks)
    size, sel = impl.max_disjoint(masks)
    assert size == len(sel) == 13
    union = 0
    for i in sel:
        assert masks[i] & union == 0
        union |= masks[i]


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND)
def test_has_disjoint_consistent_with_max(impl):
    rng = random.Random(707)
    for _ in range(150):
        n = rng.randint(2, 10)
        masks = _random_masks(rng, rng.randint(0, 9), n)
        size, _ = impl.max_disjoint(masks)
        for need in range(0, size + 2):
            assert impl.has_disjoint(masks, need) == (need <= size)


@pytest.mark.skipif(_ckernels is None, reason="compiled backend unavailable")
def test_backend_parity():
    rng = random.Random(808)
    for _ in range(100):
        entries = _random_matrix(rng)
        n_rows, n_cols = len(entries), len(entries[0])
        ell = rng.randint(1, min(3, n_rows, n_cols))
        flat = [v for row in entries for v in row]
        swap = rng.random() < 0.5
        lo = rng.randint(0, n_rows)
        hi = rng.randint(lo, n_rows)
        assert (_kernels_py.min_grid_sum_bucket(flat, n_rows, n_cols, ell, swap, lo, hi)
                == _ckernels.min_grid_sum_bucket(flat, n_rows, n_cols, ell, swap, lo, hi))
    for _ in range(100):
        n = rng.randint(2, 12)
        masks = _random_masks(rng, rng.randint(0, 10), n)
        assert _kernels_py.max_disjoint(masks) == _ckernels.max_disjoint(masks)
        need = rng.randint(0, 5)
        assert _kernels_py.has_disjoint(masks, need) == _ckernels.has_disjoint(masks, need)
    for _ in range(60):
        n = rng.randint(2, 8)
        masks = sorted(set(_random_masks(rng, rng.randint(0, 10), n)))
        ell = rng.randint(1, 3)
        assert (_kernels_py.max_family_no_matching_bb(masks, ell, -1)
                == _ckernels.max_family_no_matching_bb(masks, ell, -1))


def test_selected_backend_exports():
    assert kernels.BACKEND in ("c", "python")
    assert callable(kernels.min_grid_sum_bucket)
    assert callable(kernels.max_disjoint)
