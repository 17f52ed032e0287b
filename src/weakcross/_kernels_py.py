"""The kernels: grid-sum minimisation and disjointness search.

Every kernel is pure Python; the package reaches them through
``weakcross.kernels``.  Reports, witnesses and node counts depend on
the traversal order, tie-breaking and node accounting below, so a
change to any of them is a change to the report contract.

Conventions:

* a "grid candidate" is ``(value, enum_indices, other_indices)`` where
  ``enum_indices`` are the enumerated-side rows of the matrix that was
  actually handed to the kernel; when ``swap`` is set the matrix was
  transposed by the caller, and candidates compare by
  ``(value, other, enum)`` so that ties still resolve in the caller's
  original (rows, cols) orientation,
* all searches are depth-first over indices in increasing order with
  the include branch first, which makes every reported witness the
  lexicographically least one,
* the disjointness searches run on an explicit stack, since their depth
  reaches the number of masks, far past Python's recursion limit on
  large families,
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

    Branch and bound, exact.  A node at depth d holding partial column
    sums ``sums`` has no completion below
    ``sum(ell smallest sums) + (ell - d) * ell * min(flat)``: each of the
    ell - d rows still to come adds at least ``min(flat)`` to each of the
    ell columns finally chosen.  At a leaf (d = ell) the bound is the
    value itself.  A node is cut when its bound exceeds the incumbent's
    value, and on an equal bound only when ``swap`` is false: subsets
    are visited in lex order, so every leaf below it has a larger
    ``enum`` than the incumbent and loses the tie, while under ``swap``
    ties are decided on ``other`` first and may still win.  At ell = 1
    every node is a leaf, and ``min(flat)`` is not computed.
    """
    if ell <= 0 or n_rows < ell or n_cols < ell:
        return None
    rows = [flat[r * n_cols:(r + 1) * n_cols] for r in range(n_rows)]
    hi = min(first_hi, n_rows - ell + 1)
    # Least sum one further row adds over ell columns.
    floor = ell * min(flat) if ell > 1 else 0
    best = None
    best_key = None
    chosen: list[int] = []

    def rec(depth, start, sums):
        nonlocal best, best_key
        if best is not None:
            bound = sum(heapq.nsmallest(ell, sums)) + (ell - depth) * floor
            if bound > best[0] or (bound == best[0] and not swap):
                return
        if depth == ell:
            order = heapq.nsmallest(ell, range(n_cols), key=sums.__getitem__)
            value = sum(sums[c] for c in order)
            cand = (value, tuple(chosen), tuple(sorted(order)))
            key = grid_candidate_key(cand, swap)
            if best_key is None or key < best_key:
                best, best_key = cand, key
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


def _clash_masks(masks):
    """Per index i, the bitset of indices j with ``masks[j] & masks[i] != 0``.

    Built from one bitset of indices per ground element, at O(m * k)
    big-integer operations for m masks of k elements each.
    """
    holders: dict[int, int] = {}
    for j, x in enumerate(masks):
        bit = 1 << j
        while x:
            low = x & -x
            holders[low] = holders.get(low, 0) | bit
            x ^= low
    clash = []
    for x in masks:
        c = 0
        while x:
            low = x & -x
            c |= holders[low]
            x ^= low
        clash.append(c)
    return clash


def max_disjoint(masks):
    """Largest pairwise-disjoint subset of ``masks``: (size, lex-least indices).

    Each node carries the bitset ``alive`` of the indices j whose
    ``masks[j]`` is disjoint from the node's ``union``.  So the bound
    counts the candidates left as ``(alive >> i).bit_count()``, the
    include test is one bit test, and including i clears ``clash[i]``,
    the indices of the masks meeting ``masks[i]``.  ``union`` is kept
    for the bound on how many more blocks its complement can hold.
    """
    m = len(masks)
    if m == 0:
        return 0, ()
    universe = 0
    for x in masks:
        universe |= x
    min_size = min(x.bit_count() for x in masks)
    clash = _clash_masks(masks)
    best_size = -1
    best_sel: tuple = ()
    chosen: list[int] = []
    # Stack of (index, union, alive, size) nodes.  The exclude branch is
    # pushed below the include branch so the include subtree is visited
    # first.  Everything visited in between writes only chosen[size:], so
    # chosen[:size] is still the popped node's own selection.
    stack = [(0, 0, (1 << m) - 1, 0)]
    while stack:
        i, union, alive, size = stack.pop()
        del chosen[size:]
        if size > best_size:
            best_size, best_sel = size, tuple(chosen)
        if i == m:
            continue
        room = best_size - size
        if (alive >> i).bit_count() <= room:
            continue
        if min_size and (universe & ~union).bit_count() // min_size <= room:
            continue
        stack.append((i + 1, union, alive, size))
        if alive >> i & 1:
            chosen.append(i)
            stack.append((i + 1, union | masks[i], alive & ~clash[i], size + 1))
    return best_size, best_sel


def has_disjoint(masks, need):
    """Whether ``masks`` contains ``need`` pairwise-disjoint members.

    ``need == 1`` asks only whether ``masks`` is non-empty, and returns
    before any search; this is the ell = 2 call of
    ``max_family_no_matching_bb``.
    """
    if need <= 0:
        return True
    m = len(masks)
    if m < need:
        return False
    if need == 1:
        return True
    universe = 0
    for x in masks:
        universe |= x
    min_size = min(x.bit_count() for x in masks)
    # (index, union, size) nodes in max_disjoint's order, with its bound
    # against ``need`` in place of the incumbent.
    stack = [(0, 0, 0)]
    while stack:
        i, union, size = stack.pop()
        if size >= need:
            return True
        if i == m:
            continue
        free = (universe & ~union).bit_count()
        cap = free // min_size if min_size else m
        avail = 0
        for j in range(i, m):
            if masks[j] & union == 0:
                avail += 1
        if size + min(cap, avail) < need:
            continue
        stack.append((i + 1, union, size))
        if masks[i] & union == 0:
            stack.append((i + 1, union | masks[i], size + 1))
    return False


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
    # (index, size) nodes, stacked and truncated as in max_disjoint.
    stack = [(0, 0)]
    while stack:
        i, size = stack.pop()
        del chosen_idx[size:]
        del chosen_masks[size:]
        nodes += 1
        if size > best:
            best, best_sel = size, tuple(chosen_idx)
        if i == m:
            continue
        ub = size + (m - i)
        if ub < best or (ub == best and best_sel is not None):
            continue
        stack.append((i + 1, size))
        b = masks[i]
        compat = [x for x in chosen_masks if x & b == 0]
        if not has_disjoint(compat, ell - 1):
            chosen_idx.append(i)
            chosen_masks.append(b)
            stack.append((i + 1, size + 1))
    if best_sel is None:
        raise ValueError("seed_best was not strictly below an attainable size")
    return best, best_sel, nodes
