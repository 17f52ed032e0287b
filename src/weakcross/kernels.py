"""The kernels: grid-sum minimisation and disjointness search.

Every kernel is pure Python.  This module is the one boundary between
the package and its kernels: callers look the names up here
(``kernels.max_disjoint``), so a tracer or a test can replace a kernel
in one place.  That stays cheap only while kernels call each other
through private ``_`` helpers, never through a public name, which a
tracer would wrap once per inner call.  Reports, witnesses and node
counts depend on the traversal order, tie-breaking and node accounting
below, so a change to any of them is a change to the report contract.

Conventions:

* a "grid candidate" is ``(value, enum_indices, other_indices)`` where
  ``enum_indices`` are indices into the rows actually handed to the
  kernel; when ``swap`` is set those rows are the columns of the
  caller's matrix, and candidates compare by ``(value, other, enum)``
  so that ties still resolve in the caller's (rows, cols) orientation,
* all searches are depth-first over indices in increasing order with
  the include branch first, which makes every reported witness the
  lexicographically least one,
* there is one disjointness search, ``_disjoint``, over a bitset of
  live indices; ``max_disjoint`` runs it on every mask, and
  ``max_family_no_matching_bb`` runs it at ell >= 3 on the chosen
  members disjoint from a candidate, cut at ell - 1,
* the searches over masks run on explicit stacks, since their depth
  reaches the number of masks, far past Python's recursion limit on
  large families,
* pruning never cuts a branch that could strictly beat, or lexicographically
  undercut a tie with, the incumbent.
"""

from __future__ import annotations

import heapq

BACKEND = "python"


def min_grid_sum_bucket(rows, n_rows, n_cols, ell, swap, first_lo, first_hi):
    """Best grid candidate whose least enumerated row lies in [first_lo, first_hi).

    ``rows`` holds the n_rows rows, of n_cols entries each, over which
    row ell-subsets are enumerated; for each the ell columns with the
    smallest partial sums (ties to the smaller column index) complete
    the candidate.  Returns ``(value, enum_indices, other_indices)`` or
    None for an empty bucket.

    Branch and bound, exact.  A node at depth d holding partial column
    sums ``sums`` has no completion below
    ``sum(ell smallest sums) + (ell - d) * ell * least``, where ``least``
    is the least entry of ``rows``: each of the ell - d rows still to
    come adds at least ``least`` to each of the ell columns finally
    chosen.  At a leaf (d = ell) the bound is the value itself.  A node
    is cut when its bound exceeds the incumbent's value, and on an
    equal bound only when ``swap`` is false: subsets are visited in lex
    order, so every leaf below it has a larger ``enum`` than the
    incumbent and loses the tie, while under ``swap`` ties are decided
    on ``other`` first and may still win.  At ell = 1 every node is a
    leaf, and ``least`` is not computed.
    """
    if ell <= 0 or n_rows < ell or n_cols < ell:
        return None
    hi = min(first_hi, n_rows - ell + 1)
    # Least sum one further row adds over ell columns.
    floor = ell * min(map(min, rows)) if ell > 1 else 0
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
            enum, other = tuple(chosen), tuple(sorted(order))
            cand = (value, enum, other)
            key = (value, other, enum) if swap else cand
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


def _disjoint(masks, clash, alive, need):
    """Largest pairwise-disjoint subset of the indices in ``alive``, cut at ``need``.

    Returns (size, lex-least indices), or the first selection of size
    ``need`` found, which is then the lex-least one of that size.
    ``clash`` is ``_clash_masks(masks)``.  Each node carries the bitset
    ``alive`` of the indices j whose ``masks[j]`` is disjoint from the
    node's ``union``.  So the bound counts the candidates left as
    ``(alive >> i).bit_count()``, a node branches on the least live
    index at or after i, and including it clears ``clash[i]``, the
    indices of the masks meeting ``masks[i]``.  ``union`` is kept for
    the bound on how many more blocks its complement can hold.
    """
    if not alive:
        return 0, ()
    universe = 0
    min_size = masks[alive.bit_length() - 1].bit_count()
    bits = alive
    while bits:
        x = masks[(bits & -bits).bit_length() - 1]
        bits &= bits - 1
        universe |= x
        if x.bit_count() < min_size:
            min_size = x.bit_count()
    best_size = -1
    best_sel: tuple = ()
    chosen: list[int] = []
    # Stack of (index, union, alive, size) nodes.  The exclude branch is
    # pushed below the include branch so the include subtree is visited
    # first.  Everything visited in between writes only chosen[size:], so
    # chosen[:size] is still the popped node's own selection.
    stack = [(0, 0, alive, 0)]
    while stack:
        i, union, alive, size = stack.pop()
        del chosen[size:]
        if size > best_size:
            best_size, best_sel = size, tuple(chosen)
            if size >= need:
                break
        room = best_size - size
        rest = alive >> i
        if rest.bit_count() <= room:
            continue
        if min_size and (universe & ~union).bit_count() // min_size <= room:
            continue
        # Indices up to the next live one can only be excluded: skip them.
        i += (rest & -rest).bit_length() - 1
        stack.append((i + 1, union, alive, size))
        chosen.append(i)
        stack.append((i + 1, union | masks[i], alive & ~clash[i], size + 1))
    return best_size, best_sel


def max_disjoint(masks):
    """Largest pairwise-disjoint subset of ``masks``: (size, lex-least indices)."""
    m = len(masks)
    return _disjoint(masks, _clash_masks(masks), (1 << m) - 1, m)


def max_family_no_matching_bb(masks, ell, seed_best):
    """Largest subfamily of ``masks`` with no ``ell`` pairwise-disjoint members.

    Branch and bound over candidates in index order.  ``seed_best`` must be
    strictly below some attainable size (use known_feasible_size - 1); it
    tightens pruning without displacing the lex-least optimal witness.
    Returns (size, lex-least witness indices, nodes visited).

    Each node carries the bitset ``chosen`` of its selected indices.  The
    chosen members disjoint from ``masks[i]`` are ``compat = chosen &
    ~clash[i]``, with ``clash`` from ``_clash_masks``, and i may join iff
    ``compat`` holds no ell - 1 pairwise-disjoint members: never at
    ell <= 1, iff ``compat == 0`` at ell = 2, and at ell >= 3 iff
    ``compat`` has fewer than ell - 1 members or ``_disjoint`` cut at
    ell - 1 finds fewer disjoint ones.
    """
    m = len(masks)
    clash = _clash_masks(masks)
    need = ell - 1
    best = seed_best
    best_sel = None
    nodes = 0
    chosen_idx: list[int] = []
    # (index, size, chosen) nodes, stacked and truncated as in _disjoint.
    stack = [(0, 0, 0)]
    while stack:
        i, size, chosen = stack.pop()
        del chosen_idx[size:]
        nodes += 1
        if size > best:
            best, best_sel = size, tuple(chosen_idx)
        if i == m:
            continue
        ub = size + (m - i)
        if ub < best or (ub == best and best_sel is not None):
            continue
        stack.append((i + 1, size, chosen))
        compat = chosen & ~clash[i]
        if compat.bit_count() < need or (
                need > 1 and _disjoint(masks, clash, compat, need)[0] < need):
            chosen_idx.append(i)
            stack.append((i + 1, size + 1, chosen | 1 << i))
    if best_sel is None:
        raise ValueError("seed_best was not strictly below an attainable size")
    return best, best_sel, nodes
