"""Kernels: correctness against oracles, deep families and pinned node counts."""

import random
from itertools import combinations

import pytest

from weakcross import (
    Family,
    FamilyPair,
    IntersectionMatrix,
    erdos_bound,
    intersection_matrix,
    kernels,
    min_grid_sum,
)
from oracles import (
    exhaustive_matching_number,
    mask_to_set,
    naive_min_grid_sum,
    planted_matching_blocks,
)
from test_cli import SPARSE, TALL


def _random_matrix(rng, max_dim=6, max_entry=5):
    n_rows = rng.randint(1, max_dim)
    n_cols = rng.randint(1, max_dim)
    entries = [[rng.randint(0, max_entry) for _ in range(n_cols)]
               for _ in range(n_rows)]
    return entries


def _all_masks(n, k):
    return sorted(sum(1 << (e - 1) for e in c)
                  for c in combinations(range(1, n + 1), k))


def _random_masks(rng, count, n):
    return [rng.randint(1, (1 << n) - 1) for _ in range(count)]


def test_min_grid_sum_bucket_matches_oracle():
    rng = random.Random(404)
    for _ in range(150):
        entries = _random_matrix(rng)
        n_rows, n_cols = len(entries), len(entries[0])
        ell = rng.randint(1, 3)
        if n_rows < ell or n_cols < ell:
            continue
        got = kernels.min_grid_sum_bucket(entries, n_rows, n_cols, ell, False, 0, n_rows)
        want = naive_min_grid_sum(entries, ell)
        assert got == want


def test_min_grid_sum_bucket_split_merges_to_full():
    rng = random.Random(505)
    for _ in range(60):
        entries = _random_matrix(rng)
        n_rows, n_cols = len(entries), len(entries[0])
        ell = rng.randint(1, 2)
        if n_rows < ell or n_cols < ell:
            continue
        full = kernels.min_grid_sum_bucket(entries, n_rows, n_cols, ell, False, 0, n_rows)
        parts = [kernels.min_grid_sum_bucket(entries, n_rows, n_cols, ell, False, i, i + 1)
                 for i in range(n_rows)]
        # A candidate is its own comparison key.
        assert min(cand for cand in parts if cand is not None) == full


def _grid_result(entries, ell):
    matrix = IntersectionMatrix(len(entries), len(entries[0]), tuple(map(tuple, entries)))
    value, witness = min_grid_sum(matrix, ell)
    return value, witness.row_indices, witness.col_indices


@pytest.mark.parametrize("ell", [2, 3])
def test_min_grid_sum_tall_tie_heavy_matches_oracle(ell):
    # Entries in {0, 1, 2} tie often; tall matrices of up to 40 rows are
    # past the 7 rows the property tests draw.
    rng = random.Random(700 + ell)
    for _ in range(8):
        n_rows = rng.randint(ell + 1, 40)
        n_cols = rng.randint(ell, min(n_rows - 1, 5))
        entries = [[rng.randint(0, 2) for _ in range(n_cols)] for _ in range(n_rows)]
        assert _grid_result(entries, ell) == naive_min_grid_sum(entries, ell)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_min_grid_sum_skinny_matches_oracle(ell):
    # n_cols = ell: every grid takes all columns, so a row's floor, the
    # sum of its ell smallest entries, is exactly what the row adds.
    rng = random.Random(800 + ell)
    for _ in range(8):
        n_rows = rng.randint(ell, 40)
        entries = [[rng.randint(0, 2) for _ in range(ell)] for _ in range(n_rows)]
        assert _grid_result(entries, ell) == naive_min_grid_sum(entries, ell)


@pytest.mark.parametrize("pair", [TALL, SPARSE], ids=["tall", "sparse"])
@pytest.mark.parametrize("ell", [2, 3])
def test_min_grid_sum_transposed_cli_pairs_match_oracle(pair, ell):
    # The verify-cross pairs of test_cli with the two families swapped:
    # TALL becomes wide and SPARSE tall.
    n, k, kprime, left_sets, right_sets = pair
    pair = FamilyPair(Family.from_sets(n, kprime, right_sets),
                      Family.from_sets(n, k, left_sets))
    entries = intersection_matrix(pair).entries
    assert _grid_result(entries, ell) == naive_min_grid_sum(entries, ell)


def _naive_bucket(entries, ell, first):
    """The lex-least (value, rows, cols) whose least row is ``first``, or None."""
    n_rows, n_cols = len(entries), len(entries[0])
    return min(((sum(entries[r][c] for r in rsel for c in csel), rsel, csel)
                for rsel in combinations(range(first, n_rows), ell) if rsel[0] == first
                for csel in combinations(range(n_cols), ell)), default=None)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_min_grid_sum_bucket_floor_stop_matches_oracle(ell):
    # The walk returns once its incumbent reaches low[ell], the sum of the
    # ell smallest row floors.  0/1 entries, mostly 1, with all-zero rows
    # placed late, put the minimum (often equal to low[ell]) on late row
    # tuples with many ties; each bucket is checked too, since low[ell]
    # bounds every bucket but is reached in few of them.
    rng = random.Random(900 + ell)
    for _ in range(40):
        n_rows = rng.randint(ell, 9)
        n_cols = rng.randint(ell, 6)
        entries = [[int(rng.random() < 0.8) for _ in range(n_cols)] for _ in range(n_rows)]
        for r in rng.sample(range(n_rows // 2, n_rows), rng.randint(0, (n_rows + 1) // 2)):
            entries[r] = [0] * n_cols
        full = kernels.min_grid_sum_bucket(entries, n_rows, n_cols, ell, False, 0, n_rows)
        assert full == naive_min_grid_sum(entries, ell)
        for first in range(n_rows):
            got = kernels.min_grid_sum_bucket(entries, n_rows, n_cols, ell, False, first, first + 1)
            assert got == _naive_bucket(entries, ell, first), (entries, first)


def test_min_grid_sum_bucket_empty_bucket():
    assert kernels.min_grid_sum_bucket([[1, 2], [3, 4]], 2, 2, 2, False, 1, 2) is None
    assert kernels.min_grid_sum_bucket([[1]], 1, 1, 2, False, 0, 1) is None


def test_max_disjoint_matches_oracle():
    rng = random.Random(606)
    for _ in range(150):
        n = rng.randint(2, 10)
        masks = _random_masks(rng, rng.randint(0, 9), n)
        size, sel = kernels.max_disjoint(masks)
        want_size, want_sel = exhaustive_matching_number([mask_to_set(m) for m in masks])
        assert size == want_size
        assert sel == want_sel


def test_max_disjoint_deep_family():
    # 1,500 blocks put the include-first search far deeper than Python's
    # recursion limit; 13 planted disjoint 3-blocks of [40] fix nu = 13.
    blocks = planted_matching_blocks(31)
    masks = sorted(sum(1 << (e - 1) for e in b) for b in blocks)
    size, sel = kernels.max_disjoint(masks)
    assert size == len(sel) == 13
    union = 0
    for i in sel:
        assert masks[i] & union == 0
        union |= masks[i]


def test_max_family_no_matching_bb_deep_star():
    # 1,200 blocks through one point pairwise intersect, so the include
    # path alone is 1,200 levels deep; each exclude child is cut by the
    # bound, one node per level.  At ell = 3 the chosen set is a
    # 1,200-bit index bitset and every compat set is empty, so no
    # include test searches.
    star = [mask for mask in _all_masks(40, 4) if mask & 1][:1200]
    for ell in (2, 3):
        assert (kernels.max_family_no_matching_bb(star, ell, -1)
                == (1200, tuple(range(1200)), 2401))


def test_max_family_no_matching_bb_pinned_nodes():
    # (size, lex-least sel, nodes) with the erdos seed, as
    # structures.max_family_no_matching runs it: the node counts pin the
    # traversal order and the bound.  The (7,3,2) and (8,3,2) optima are
    # the stars through 1, the first a prefix of the second.
    star_sel = (0, 1, 2, 4, 5, 7, 10, 11, 13, 16, 20, 21, 23, 26, 30,
                35, 36, 38, 41, 45, 50)
    for (n, k, ell), want in [
            ((6, 3, 2), (10, tuple(range(10)), 2047)),
            ((7, 3, 2), (15, star_sel[:15], 5811)),
            ((8, 3, 2), (21, star_sel, 13599)),
            ((6, 2, 3), (10, tuple(range(10)), 2066)),
            ((7, 2, 3), (11, (0, 1, 2, 3, 4, 6, 7, 10, 11, 15, 16), 28646))]:
        got = kernels.max_family_no_matching_bb(
            _all_masks(n, k), ell, erdos_bound(n, k, ell) - 1)
        assert got == want


def test_max_family_no_matching_bb_seed_must_be_below_the_maximum():
    # The (6,3,2) maximum is 10, so a seed of 10 leaves no witness.
    masks = _all_masks(6, 3)
    with pytest.raises(ValueError, match="^seed_best was not strictly below an attainable size$"):
        kernels.max_family_no_matching_bb(masks, 2, 10)
    # The empty selection is a witness once the seed is below 0.
    assert kernels.max_family_no_matching_bb([], 2, -1) == (0, (), 1)


def test_kernel_module_exports():
    # A tracer wraps every public callable of the package bound here, so
    # a new public helper would be traced once per call from a kernel.
    public = {name for name, obj in vars(kernels).items()
              if not name.startswith("_") and callable(obj)
              and str(getattr(obj, "__module__", "")).startswith("weakcross.")}
    assert public == {"max_disjoint", "max_family_no_matching_bb",
                      "min_grid_sum_bucket"}
    assert kernels.BACKEND == "python"
