"""Pure Python kernels: grid-sum minimisation and disjointness search.

These are the reference implementations.  ``weakcross._ckernels`` is a
compiled twin with the identical traversal order, tie-breaking, and
node accounting, so the two backends are interchangeable down to the
last byte of any report.  Keep the two files in lockstep.

Conventions shared by both backends:

* a "grid candidate" is ``(value, enum_indices, other_indices)`` where
  ``enum_indices`` are the enumerated-side rows of the matrix that was
  actually handed to the kernel; when ``swap`` is set the matrix was
  transposed by the caller, and candidates compare by
  ``(value, other, enum)`` so that ties still resolve in the caller's
  original (rows, cols) orientation,
* all searches are depth-first over indices in increasing order with
  the include branch first, which makes every reported witness the
  lexicographically least one,
* pruning never cuts a branch that could strictly beat, or lexicographically
  undercut a tie with, the incumbent.
"""

from __future__ import annotations

import heapq

BACKEND = "python"


def grid_candidate_key(cand: tuple, swap: bool) -> tuple:
    """Comparison key for grid candidates, honouring the caller's orientation."""
    value, enum_idx, other_idx = cand
    if swap:
        return (value, other_idx, enum_idx)
    return (value, enum_idx, other_idx)


def min_grid_sum_bucket(flat, n_rows, n_cols, ell, swap, first_lo, first_hi):
    """Best grid candidate whose least enumerated row lies in [first_lo, first_hi).

    ``flat`` is the row-major matrix over which row ell-subsets are
    enumerated; for each the ell columns with the smallest partial sums
    (ties to the smaller column index) complete the candidate.  Returns
    ``(value, enum_indices, other_indices)`` or None for an empty bucket.
    """
    if ell <= 0 or n_rows < ell or n_cols < ell:
        return None
    rows = [flat[r * n_cols:(r + 1) * n_cols] for r in range(n_rows)]
    hi = min(first_hi, n_rows - ell + 1)
    best = None
    best_key = None
    chosen: list[int] = []

    def leaf(sums):
        nonlocal best, best_key
        order = heapq.nsmallest(ell, range(n_cols), key=sums.__getitem__)
        value = sum(sums[c] for c in order)
        cand = (value, tuple(chosen), tuple(sorted(order)))
        key = grid_candidate_key(cand, swap)
        if best_key is None or key < best_key:
            best, best_key = cand, key

    def rec(depth, start, sums):
        if depth == ell:
            leaf(sums)
            return
        for r in range(start, n_rows - (ell - depth) + 1):
            chosen.append(r)
            rec(depth + 1, r + 1, [a + b for a, b in zip(sums, rows[r])])
            chosen.pop()

    for first in range(first_lo, hi):
        chosen.append(first)
        rec(1, first + 1, list(rows[first]))
        chosen.pop()
    return best


def max_disjoint(masks):
    """Largest pairwise-disjoint subset of ``masks``: (size, lex-least indices)."""
    m = len(masks)
    if m == 0:
        return 0, ()
    universe = 0
    for x in masks:
        universe |= x
    min_size = min(x.bit_count() for x in masks)
    best_size = -1
    best_sel: tuple = ()
    chosen: list[int] = []
    # Explicit stack of (index, union, size) nodes: the depth reaches
    # len(masks), far past Python's recursion limit on large families.
    # The exclude branch is pushed below the include branch so the
    # include subtree is visited first.  Everything visited in between
    # writes only chosen[size:], so chosen[:size] is still the popped
    # node's own selection.
    stack = [(0, 0, 0)]
    while stack:
        i, union, size = stack.pop()
        del chosen[size:]
        if size > best_size:
            best_size, best_sel = size, tuple(chosen)
        if i == m:
            continue
        free = (universe & ~union).bit_count()
        cap = free // min_size if min_size else m
        avail = 0
        for j in range(i, m):
            if masks[j] & union == 0:
                avail += 1
        if size + min(cap, avail) <= best_size:
            continue
        stack.append((i + 1, union, size))
        if masks[i] & union == 0:
            chosen.append(i)
            stack.append((i + 1, union | masks[i], size + 1))
    return best_size, best_sel


def has_disjoint(masks, need):
    """Whether ``masks`` contains ``need`` pairwise-disjoint members."""
    if need <= 0:
        return True
    m = len(masks)
    if m < need:
        return False
    universe = 0
    for x in masks:
        universe |= x
    min_size = min(x.bit_count() for x in masks)

    def rec(i, union, size):
        if size >= need:
            return True
        if i == m:
            return False
        free = (universe & ~union).bit_count()
        cap = free // min_size if min_size else m
        avail = 0
        for j in range(i, m):
            if masks[j] & union == 0:
                avail += 1
        if size + min(cap, avail) < need:
            return False
        if masks[i] & union == 0 and rec(i + 1, union | masks[i], size + 1):
            return True
        return rec(i + 1, union, size)

    return rec(0, 0, 0)


def max_family_no_matching_bb(masks, ell, seed_best):
    """Largest subfamily of ``masks`` with no ``ell`` pairwise-disjoint members.

    Branch and bound over candidates in index order.  ``seed_best`` must be
    strictly below some attainable size (use known_feasible_size - 1); it
    tightens pruning without displacing the lex-least optimal witness.
    Returns (size, lex-least witness indices, nodes visited).
    """
    m = len(masks)
    best = seed_best
    best_sel = None
    nodes = 0
    chosen_idx: list[int] = []
    chosen_masks: list[int] = []

    def rec(i):
        nonlocal best, best_sel, nodes
        nodes += 1
        size = len(chosen_idx)
        if size > best:
            best, best_sel = size, tuple(chosen_idx)
        if i == m:
            return
        ub = size + (m - i)
        if ub < best or (ub == best and best_sel is not None):
            return
        b = masks[i]
        compat = [x for x in chosen_masks if x & b == 0]
        if not has_disjoint(compat, ell - 1):
            chosen_idx.append(i)
            chosen_masks.append(b)
            rec(i + 1)
            chosen_idx.pop()
            chosen_masks.pop()
        rec(i + 1)

    rec(0)
    if best_sel is None:
        raise ValueError("seed_best was not strictly below an attainable size")
    return best, best_sel, nodes
