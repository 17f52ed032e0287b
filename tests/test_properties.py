"""Property tests: the pruned kernels against the unpruned oracles.

The grid-sum kernel cuts every subtree whose bound reaches the
incumbent, ``max_disjoint`` keeps a bitset of live candidates, and
``max_family_no_matching_bb`` cuts by a bound and asks the same
disjointness search, cut short, whether a candidate may join; all must
agree with full enumeration on every input, ties included.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weakcross import IntersectionMatrix, kernels, min_grid_sum  # noqa: E402
from oracles import (  # noqa: E402
    exhaustive_matching_number,
    exhaustive_max_no_matching_sel,
    mask_to_set,
    naive_min_grid_sum,
)

# Fixed examples, no example database: the suite tests the same inputs
# on every run.
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@st.composite
def grids(draw):
    """(entries, ell): entries in {0, 1, 2}, so minima tie often; the
    matrix is tall, wide or square."""
    ell = draw(st.integers(1, 3))
    short = draw(st.integers(ell, 5))
    long = draw(st.integers(short, 7))
    shape = draw(st.sampled_from(["tall", "wide"]))
    n_rows, n_cols = (long, short) if shape == "tall" else (short, long)
    row = st.lists(st.integers(0, 2), min_size=n_cols, max_size=n_cols)
    entries = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    return entries, ell


@PROPERTY
@given(grids())
def test_min_grid_sum_matches_oracle(case):
    entries, ell = case
    matrix = IntersectionMatrix(len(entries), len(entries[0]),
                                tuple(tuple(r) for r in entries))
    value, witness = min_grid_sum(matrix, ell)
    assert (value, witness.row_indices, witness.col_indices) == naive_min_grid_sum(entries, ell)


@st.composite
def families(draw, max_n=10, max_size=10):
    n = draw(st.integers(1, max_n))
    return draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_size))


@PROPERTY
@given(families())
def test_max_disjoint_matches_oracle(masks):
    size, sel = kernels.max_disjoint(masks)
    assert (size, sel) == exhaustive_matching_number([mask_to_set(x) for x in masks])


@PROPERTY
@given(families(max_n=8, max_size=9), st.integers(1, 4))
def test_max_family_no_matching_bb_matches_oracle(masks, ell):
    # Empty and duplicate masks included; seed -1 leaves the bound unseeded.
    size, sel, _nodes = kernels.max_family_no_matching_bb(masks, ell, -1)
    assert (size, sel) == exhaustive_max_no_matching_sel(masks, ell)


@PROPERTY
@given(families(max_n=8, max_size=9), st.integers(1, 4))
def test_max_family_no_matching_bb_seeded_matches_oracle(masks, ell):
    # Seeded one below the optimum, the tightest seed erdos can pass:
    # nodes whose bound ties the seed are expanded before any witness
    # exists.
    want = exhaustive_max_no_matching_sel(masks, ell)
    size, sel, _nodes = kernels.max_family_no_matching_bb(masks, ell, want[0] - 1)
    assert (size, sel) == want
