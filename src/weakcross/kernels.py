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

* a "grid candidate" is ``(value, row_indices, col_indices)``, and
  candidates compare as tuples,
* all searches are depth-first over indices in increasing order with
  the include branch first, which makes every reported witness the
  lexicographically least one,
* there is one disjointness search, ``_disjoint``, over a bitset of
  live indices; ``max_disjoint`` runs it on every mask, and
  ``max_family_no_matching_bb`` runs it at ell >= 3 on the chosen
  members disjoint from a candidate, cut at ell - 1,
* every kernel runs on an explicit stack, never by recursion: a mask
  search is as deep as the number of masks and the grid search as deep
  as ell, both far past Python's recursion limit on large inputs,
* the grid search returns once its incumbent reaches ``low[ell]``, a
  floor no candidate goes below, since a later leaf could only tie with
  a lex-larger witness,
* ``max_family_no_matching_bb`` bounds a node by its size plus the
  candidates left in its bitset ``alive``; at ell = 2 ``alive`` holds
  exactly the indices meeting every chosen block (a max-clique bound),
  and at any other ell all indices,
* pruning never cuts a branch that could strictly beat, or lexicographically
  undercut a tie with, the incumbent.
"""

from __future__ import annotations

import heapq
from itertools import accumulate

BACKEND = "python"


def min_grid_sum_bucket(rows, n_rows, n_cols, ell, swap, first_lo, first_hi):
    """Best grid candidate whose least row lies in [first_lo, first_hi).

    ``rows`` holds the n_rows rows, of n_cols nonnegative entries each.  Row
    ell-subsets are enumerated in lex order; for each the ell columns
    with the smallest partial sums (ties to the smaller column index)
    complete the candidate.  Returns ``(value, row_indices,
    col_indices)`` or None for an empty bucket.  ``swap`` is not read,
    and the package always passes the full range of first rows:
    ``swap``, ``first_lo`` and ``first_hi`` stay only because the
    benchmark's tracer unpacks this 7-argument signature, and go when
    the benchmark does (ROADMAP item 1).

    Branch and bound, exact.  A row's floor is the sum of its ell
    smallest entries, the least it adds over any ell columns, and
    ``low[j]`` is the sum of the j smallest floors.  A node at depth d
    holding partial column sums ``sums`` has no completion below
    ``sum(ell smallest sums) + low[ell - d]``; at a leaf (d = ell) that
    is the value itself.  A node is cut when its bound reaches the
    incumbent's value: leaves are visited in lex order, so any leaf
    below it either has a larger value or ties with a larger row tuple.
    The first optimum found is therefore the lex-least candidate.  At
    ell = 1 every node is a leaf and no floor is computed: ``low[1]`` is
    0, as entries are intersection sizes and never negative.

    ``low[ell]`` bounds every candidate, so the walk returns as soon as
    the incumbent reaches it: a later leaf could at best tie, with a
    larger row tuple, so the full walk would return the same candidate,
    in every bucket.
    """
    if ell <= 0 or n_rows < ell or n_cols < ell:
        return None
    hi = min(first_hi, n_rows - ell + 1)
    # At ell = 1 the floor is 0, which needs no pass over the rows.
    floors = (sum(heapq.nsmallest(ell, row)) for row in rows) if ell > 1 else (0,)
    low = [0, *accumulate(heapq.nsmallest(ell, floors))]
    best = None
    # The node holding rows ``chosen`` (depth d = len(chosen)) has column
    # sums ``path[-1]`` and visits its children r, r + 1, ... in turn: row
    # r is the next child, and on running out the node is left by popping
    # its last row.  The root takes first rows in [first_lo, hi).
    chosen: list[int] = []
    path: list = []
    r = first_lo
    while True:
        depth = len(chosen)
        if r >= (n_rows - ell + depth + 1 if chosen else hi):
            if not chosen:
                return best
            r = chosen.pop() + 1
            path.pop()
            continue
        sums = [a + b for a, b in zip(path[-1], rows[r])] if chosen else rows[r]
        r += 1
        if best is not None and sum(heapq.nsmallest(ell, sums)) + low[ell - depth - 1] >= best[0]:
            continue
        if depth + 1 == ell:
            order = heapq.nsmallest(ell, range(n_cols), key=sums.__getitem__)
            best = (sum(sums[c] for c in order), (*chosen, r - 1), tuple(sorted(order)))
            if best[0] <= low[ell]:
                return best
            continue
        chosen.append(r - 1)
        path.append(sums)


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

    Returns (size, selection) for the lex-least indices, or for the first
    selection of size ``need`` found, which is then the lex-least one of
    that size.  A selection is a cons list, ``(i, parent)`` with i its
    last index and ``parent`` the selection before i, or None when empty,
    so an include costs O(1) whatever the number of masks.  ``clash`` is
    ``_clash_masks(masks)``.  Each node carries its selection ``sel`` and
    the bitset ``alive`` of the indices j whose ``masks[j]`` is disjoint
    from the node's ``union``.  So the bound counts the candidates left as
    ``(alive >> i).bit_count()``, a node branches on the least live
    index at or after i, and including it clears ``clash[i]``, the
    indices of the masks meeting ``masks[i]``.  ``union`` is kept for
    the bound on how many more blocks its complement can hold.
    """
    if not alive:
        return 0, None
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
    best_sel = None
    # Stack of (index, union, alive, size, sel) nodes.  The exclude branch
    # is pushed below the include branch so the include subtree is visited
    # first.
    stack = [(0, 0, alive, 0, None)]
    while stack:
        i, union, alive, size, sel = stack.pop()
        if size > best_size:
            best_size, best_sel = size, sel
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
        stack.append((i + 1, union, alive, size, sel))
        stack.append((i + 1, union | masks[i], alive & ~clash[i], size + 1, (i, sel)))
    return best_size, best_sel


def max_disjoint(masks):
    """Largest pairwise-disjoint subset of ``masks``: (size, lex-least indices)."""
    m = len(masks)
    size, sel = _disjoint(masks, _clash_masks(masks), (1 << m) - 1, m)
    picked = []
    while sel:
        i, sel = sel
        picked.append(i)
    return size, tuple(reversed(picked))


def max_family_no_matching_bb(masks, ell, seed_best):
    """Largest subfamily of ``masks`` with no ``ell`` pairwise-disjoint members.

    Branch and bound over candidates in index order.  ``seed_best`` must be
    strictly below some attainable size (use known_feasible_size - 1); it
    tightens pruning without displacing the lex-least optimal witness.
    Returns (size, lex-least witness indices, nodes visited).

    Each node carries the bitset ``chosen`` of its selected indices and
    the bitset ``alive`` of the indices that may still join it.  The
    chosen members disjoint from ``masks[i]`` are ``compat = chosen &
    ~clash[i]``, with ``clash`` from ``_clash_masks``, and i may join iff
    ``compat`` holds no ell - 1 pairwise-disjoint members: never at
    ell <= 1, and at ell >= 3 iff ``compat`` has fewer than ell - 1
    members or ``_disjoint`` cut at ell - 1 finds fewer disjoint ones.
    There ``alive`` stays all indices.  At ell = 2 the family must be
    pairwise intersecting, so i may join iff ``compat == 0``, which is iff
    i meets every chosen member: ``alive`` holds exactly those indices,
    and including i narrows it to ``alive & clash[i]``.  A node at i is
    bounded by ``size + (alive >> i).bit_count()``: at ell = 2 the
    Carraghan-Pardalos max-clique bound (Oper. Res. Lett. 9, 1990) on
    the graph of intersecting blocks, elsewhere ``size + (m - i)``.  A
    node is cut when its bound does not exceed ``best``, the seed or the
    witness size, since a new witness must exceed it.  The witness is
    kept as its node's ``chosen`` and listed as indices once, at return.
    """
    m = len(masks)
    clash = _clash_masks(masks)
    need = ell - 1
    best = seed_best
    # The witness's ``chosen``; None until one exists, since 0, the empty
    # selection, is a witness when the seed is negative.
    best_sel = None
    nodes = 0
    # (index, size, chosen, alive) nodes, the exclude branch stacked below
    # the include branch as in _disjoint.
    stack = [(0, 0, 0, (1 << m) - 1)]
    while stack:
        i, size, chosen, alive = stack.pop()
        nodes += 1
        if size > best:
            best, best_sel = size, chosen
        if i == m:
            continue
        ub = size + (alive >> i).bit_count()
        if ub <= best:
            continue
        stack.append((i + 1, size, chosen, alive))
        if need == 1:
            fits = alive >> i & 1
        else:
            compat = chosen & ~clash[i]
            fits = compat.bit_count() < need or (
                need > 1 and _disjoint(masks, clash, compat, need)[0] < need)
        if fits:
            stack.append((i + 1, size + 1, chosen | 1 << i,
                          alive & clash[i] if need == 1 else alive))
    if best_sel is None:
        raise ValueError("seed_best was not strictly below an attainable size")
    return best, tuple(i for i in range(m) if best_sel >> i & 1), nodes
