"""Exhaustive search for the maximum-product feasible pair at desk scale.

Over all pairs of a k-uniform and a k'-uniform family on [n], find the
maximum of |F| * |F'| subject to the pair not violating the ell-weak
cross t-intersection condition (pairs too small to be tested count as
feasible).  The search grows the left family over candidate blocks in
canonical order, then the right family, pruning any extension that is
already violated: violation is inherited by superfamilies, so a violated
pair closes its whole subtree.

One traversal serves every ell, on explicit stacks rather than
recursion, so a left or right family of any size stays clear of
Python's recursion limit.  For ell = 1 the right side of a left family
is fixed (the blocks t-intersecting all of it, one bitmask), so only
left families are enumerated.  For ell >= 2 one right walk, on a second
stack, serves every ell: a right node keeps as a bitmask the candidates
that passed at its parent, since a failed column fails below it too,
and expands a child only while the survivors from that child on can
still lift the product to ``need`` (below).  Only what a left family
carries and how a child filters its candidates depend on ell.

At ell = 2 the test is pairwise, and each pair splits by left row.
With Q_a(c, d) = I[a][c] + I[a][d], columns c and d fit together
under L iff Q_a + Q_b reaches the threshold 4t - 1 for all rows a != b
of L, so adding row a keeps the pair iff Q_a(c, d) plus the least
Q_b(c, d) over the earlier rows still reaches it.  Each left family
therefore carries, per column d, a bitmask of the later columns that fit
with d, and that running minimum as one bitmask per value; both grow
from its parent's by a few big-integer ANDs per column, with per-row
masks {j : I[a][j] >= u} built once per search.  A right child at
column j then filters its candidates with one AND.  The masks also bound
the right side: a right family of two or more columns is a clique of
the graph in which fitting columns are joined, so it takes at most one
column from each class of a colouring of that graph, and the masks only
lose bits as the left family grows.  One greedy colouring per left
family therefore caps the right side of that family and of every family
below it (Tomita and Seki, DMTCS 2003, bound cliques the same way).

At ell >= 3 each left family holds one column vector per right
candidate, the column's sum over each ell-subset of left rows, grown
from its parent's vectors by the one new row, and the right walk
carries, per left subset, the ell - 1 smallest such sums over the
chosen columns.  An extension then costs one pass over the left
subsets, and its verdict is exactly that of re-minimising every grid
through the new column.

Determinism: one depth-first walk, from the root (the empty left family,
counted as one node) and under the whole node budget, so the result and
node count are fixed by the instance and the budget.  It skips a child
L + [b], and all below it, when a relabelling of [n] that fixes every
block of L, one that moves elements only within the atoms (the cells L's
blocks cut [n] into), makes it lex-smaller.  Such a family is neither the
left side of the lex-least optimal pair nor a prefix of it, so an
exhaustive report is that of the uncut tree (see ``_walk``).  At the root
this admits block 0 alone, so every left family holds the least k-set.
While its orbit tables fit in ``_ORBIT_BITS`` (for every k up to n = 7)
the walk also cuts a child that any permutation of [n] maps to a
lex-smaller family, so it visits one left family per S_n orbit, the
lex-least one: orderly generation in the sense of R. C. Read ("Every one
a winner", 1978).  The same argument keeps the report, since a
relabelling that makes a family lex-smaller makes every family below it
lex-smaller too.

Two more cuts drop whole subtrees.  A child L + [i] of a left node is
bounded by (|L| + 1 + the blocks after i) times a cap on the right side
of every family below the node; the bound does not grow with i, so the
first child that fails it ends the node, and it and the later children
are dropped untested: a budget counts only tested children.  At ell = 1
the walk also cuts L + [i] when some block j < i outside it t-intersects
every right block that t-intersects all of L + [i]: every pair below the
child stays feasible with j added, a larger product, so none is optimal.
This is the canonicity test of Kuznetsov's Close-by-One (1993) used as a
cut.  It reads byte tables, the AND of the left blocks' meet rows over
every subset of each group of 8 right blocks, so one lookup and one AND
cover 8 right blocks (the method of four Russians); the tables are
bounded by ``_DOMINANCE_BITS``.

The reported pair is the lexicographically least one attaining the
maximum product; when no positive product is feasible the empty pair is
reported.  One number, ``need``, serves as incumbent and bound: it starts
at the star product (at least 1), a pair is taken when its product
reaches it, and it then becomes that product plus one.  The walk meets
pairs in lex order, and no bound cuts a subtree while it can still reach
``need``, so the first pair met at the final product, the one taken, is
the lex-least one.  Inside the search a pair is two bitmasks of
candidate indices; the blocks of the reported pair are listed once, when
the search returns.  When a budget stops the walk before it takes a
pair, the star pair is reported.  Its left family passes the atom and
orbit tests at every prefix, and the ell = 1 cut above cuts one only
when a block added to it gives a larger product, so an exhaustive walk
takes the star pair or a better one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import factorial
from operator import add, and_, or_

from .analysis import WeakCrossParams
from .families import (
    Family,
    FamilyPair,
    GroundSet,
    InstanceTooLargeError,
    all_masks,
    binomial,
    elements_from_mask,
)

__all__ = ["SearchResult", "search_max_product", "MAX_SEARCH_BLOCKS"]

MAX_SEARCH_BLOCKS = 40


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a max-product search."""

    best_product: int
    best_pair: FamilyPair
    star_product: int
    nodes_explored: int
    exhaustive: bool

    def to_json_dict(self) -> dict:
        return {
            "best_product": str(self.best_product),
            "star_product": str(self.star_product),
            "nodes_explored": self.nodes_explored,
            "exhaustive": self.exhaustive,
            "left_size": len(self.best_pair.left),
            "right_size": len(self.best_pair.right),
            "left": [list(elements_from_mask(m)) for m in self.best_pair.left.masks],
            "right": [list(elements_from_mask(m)) for m in self.best_pair.right.masks],
        }


def _push_column(levels, col):
    """Insert column vector ``col`` into the sorted ``levels`` elementwise."""
    out = []
    for lv in levels[:-1]:
        out.append(list(map(min, lv, col)))
        col = list(map(max, lv, col))
    out.append(list(map(min, levels[-1], col)))
    return out


def _fitting(cands, levels, cols, threshold):
    """The columns of bitmask ``cands`` whose least grid through ``levels`` reaches the threshold.

    ``cols[j]`` lists column j's sums over the left ell-subsets, and the
    grid through j and the chosen columns is least where j's sum plus
    the sum of the levels is least.
    """
    offs = levels[0]
    for lv in levels[1:]:
        offs = list(map(add, offs, lv))
    keep = 0
    while cands:
        bit = cands & -cands
        cands ^= bit
        if min(map(add, cols[bit.bit_length() - 1], offs)) >= threshold:
            keep |= bit
    return keep


def _pair_row(row, top, threshold):
    """One left row's ell = 2 masks: out[u][d] = {j : I[a][j] >= u - I[a][d]}.

    ``row`` holds I[a][j], the row's intersection size with each right
    candidate j, and bit j of a mask stands for candidate j.  A pair (d, j)
    of columns under rows a, b has grid sum Q_a(d, j) + Q_b(d, j), where
    Q_a(d, j) = I[a][d] + I[a][j], so Q_a(d, j) >= u exactly when bit j of
    out[u][d] is set; u runs over 0..threshold.  ``top`` is the largest
    entry, min(k, k').
    """
    # ge[u]: the columns whose entry in this row reaches u, u = 0..top + 1.
    ge = [sum(1 << j for j, v in enumerate(row) if v >= u) for u in range(top + 2)]
    return [[ge[min(max(u - x, 0), top + 1)] for x in row] for u in range(threshold + 1)]


def _colours(cands, ok):
    """Colour count of a greedy colouring of the ell = 2 fit graph on bitmask ``cands``.

    Bit j > d of ``ok[d]`` is set iff columns d and j fit.  Each colour
    class takes the lowest uncoloured candidate v and drops from the
    class every later candidate that fits with v, so no two columns in
    a class fit, and a family whose columns pairwise fit (a clique)
    holds at most one column per class.
    """
    count = 0
    while cands:
        count += 1
        q = cands
        while q:
            bit = q & -q
            cands ^= bit
            q &= ~(ok[bit.bit_length() - 1] | bit)
    return count


def _passing(atom, left_cands):
    """Bitmask of the candidate indices whose block meets ``atom`` in its lowest elements."""
    out = 0
    for i, block in enumerate(left_cands):
        part = block & atom
        if part == atom & ((1 << part.bit_length()) - 1):
            out |= 1 << i
    return out


# The orbit tables hold m * m + m masks of n! bits, m the left
# candidates, and their build n * n permutation masks and n * m more;
# above m * m + n * n masks the walk keeps the atom test alone.  The
# bound admits every k at n <= 7, where that is at most 6.5 M bits.
_ORBIT_BITS = 1 << 23

# (onto, down) per (n, k), built whole on first use and kept for the life
# of the process; only tables within ``_ORBIT_BITS`` are made.
_ORBIT_TABLES: dict = {}

# The dominance cut's byte tables hold 256 masks of m bits per _GROUP of
# the r_m right candidates, 32 * m * r_m bits in all; above m * r_m =
# _DOMINANCE_BITS the ell = 1 walk does without the cut.
_DOMINANCE_BITS = 1 << 18
_GROUP = 8


def _perm_masks(n):
    """perm[e][f]: the permutations of range(n) that take e to f, as a bitmask.

    Bit p stands for the p-th permutation in lexicographic order.  Those
    of range(r) are r runs of (r - 1)! permutations, one run per first
    image f0, each run the permutations of the other r - 1 values in
    order, so the table for r grows from the one for r - 1.
    """
    perm, size = [[1]], 1
    for r in range(2, n + 1):
        grown = [[0] * r for _ in range(r)]
        for f0 in range(r):
            shift = f0 * size
            grown[0][f0] = ((1 << size) - 1) << shift
            for e in range(1, r):
                for f in range(r):
                    if f != f0:
                        grown[e][f] |= perm[e - 1][f - (f > f0)] << shift
        perm, size = grown, size * r
    return perm


def _orbit_tables(n, left_cands):
    """The orbit tables (onto, down) of the k-sets ``left_cands`` of [n], built on first use.

    Bit p of onto[b][x] is set iff the p-th permutation of range(n) takes
    block b onto block x: it takes every element of b into x, as x has
    as many elements as b.  down[b] is the OR of onto[b][:b], the
    permutations that take b to a lower block.  The tables depend only
    on (n, k), so they are kept in ``_ORBIT_TABLES``.
    """
    key = n, left_cands[0].bit_count()
    tables = _ORBIT_TABLES.get(key)
    if tables is None:
        elements = [[e for e in range(n) if b >> e & 1] for b in left_cands]
        # into[e][x]: the permutations taking element e into block x.
        into = [[reduce(or_, [row[f] for f in fs]) for fs in elements] for row in _perm_masks(n)]
        onto = [[reduce(and_, col) for col in zip(*[into[e] for e in es])] for es in elements]
        down = [reduce(or_, row[:b], 0) for b, row in enumerate(onto)]
        tables = _ORBIT_TABLES[key] = onto, down
    return tables


def _lex_smaller(ties, held, cover, img, i):
    """Whether a permutation in ``ties`` maps L + [i] to a lex-smaller family.

    L is lex-least in its orbit and i is after its last block; bit p of
    ``ties`` stands for a permutation p that takes block i to a lower
    block.  Bit x of ``held`` is set iff block x is in L, bit p of
    cover[x] is set iff p takes some block of L onto block x, and bit p
    of img[x] iff p takes block i onto it.  The scan runs x up from 0 to
    i - 1 with ``ties`` the permutations whose image of L + [i] agrees
    with L + [i] below x: an image holding some x < i that L lacks,
    while it agrees below x, is lex-smaller, and one that lacks some x
    in L is not.
    """
    for x, g in zip(range(i), map(or_, cover, img)):
        if held >> x & 1:
            ties &= g
            if not ties:
                return False
        elif ties & g:
            return True
    return False


def _meet_table(left_cands, group_cands, t):
    """The dominance cut's byte table for one group of up to 8 right candidates.

    With meet[c] the bitmask of the left blocks that t-intersect
    ``group_cands[c]``, entry v is the AND of meet[c] over the set bits
    c of v, and entry 0 holds every left block.  The table doubles once
    per candidate c, entry v + 2^c being entry v ANDed with meet[c], so
    each entry costs one AND (the method of four Russians: Arlazarov,
    Dinic, Kronrod and Faradzev, 1970).  A group of fewer than 8
    candidates has as many entries as they allow.
    """
    tab = [(1 << len(left_cands)) - 1]
    for b in group_cands:
        meet = sum(1 << i for i, a in enumerate(left_cands) if (a & b).bit_count() >= t)
        tab += [row & meet for row in tab]
    return tab


def _walk(n, budget, left_cands, right_cands, params, need):
    """Search every left family the bound and the atom, dominance and orbit tests admit.

    Returns (best, nodes, truncated): best is the last pair taken, as
    (product, held, right), held and right the bitmasks of its left and
    right candidate indices, or None when no pair reached ``need``;
    truncated when the walk tried a node past its ``budget``.
    The root, the empty left family, counts as one node; its pair has
    product 0 and is never taken, since ``need`` is positive.  The left
    tree is walked on an explicit stack, children in ascending index
    order.  Each left node carries ``cap``, a bound on the right side of
    every family below it: at ell = 1 the popcount of its compat mask,
    at ell = 2 its colour count (below), else all r_m right candidates;
    the root's is r_m.  A child L + [i] is cut when
    (|L| + 1 + (m - i - 1)) * cap < need.  The bound does not grow with
    i and ``need`` only rises, so the first child that fails it ends the
    node: it and the later children are dropped untested (the end-of-node
    cut).  A budget counts only the children that are tested, the nodes,
    so a dropped child costs none of it.  At ell = 1 a tested child is
    also cut when its own compat mask fails the same bound.

    ``need`` is the least product a pair must have to be taken, and a
    subtree is entered only while its bound reaches it; each pair taken
    raises it to that pair's product plus one.  The walk meets pairs in
    lex order of (left, right): a family before its extensions, children
    in ascending order, and under one left family its right families in
    the same order.  Until a pair at the final product is met, ``need``
    is at most that product, so no subtree holding one is cut, and the
    first one met, the one taken, is the lex-least.

    Each left node L carries its atoms: the cells of the partition of
    [n] that L's blocks cut out, starting from [n] at the root.  A
    permutation of [n] fixes every block of L exactly when it maps each
    atom onto itself.  A child block b is visited only when, for every
    atom c, b & c is the lowest |b & c| elements of c; a skipped block
    is not a node.  Otherwise swapping an element of b & c for a lower
    one of c - b fixes L and maps L + [b] to a lex-smaller family, and so
    it does every family below L + [b]: those only add blocks after b,
    and a relabelling that makes a family lex-smaller makes such an
    extension of it lex-smaller too.
    Relabelling [n] keeps feasibility and the product, so the lex-least
    optimal pair's left family is lex-least in its orbit, and the cut
    never loses it or any prefix of it: every exhaustive report is that
    of the uncut tree.  At the root the test admits block 0 alone.  Each
    atom's passing blocks are one bitmask over the candidates, built
    once per search, and a node's children are the set bits above its
    last index of the AND over its atoms; singleton atoms pass every
    block, so they are dropped, and once none is left every block
    passes.

    A tested child that passes the left bound and, at ell = 1, the
    dominance cut (below) then faces the orbit test: it is cut, with all
    below it, when some permutation of [n] maps L + [i] to a lex-smaller
    family.  L itself passed the test (or is the root's child, block 0),
    so it is lex-least in its orbit, which makes the cut exact: no
    permutation that takes block i to a later block can make L + [i]
    smaller, since the image of L would have to be smaller first, so the
    test starts from ``down[i]``, those that take i to an earlier block.
    It is run bit-parallel over all n! permutations (``_orbit_tables``):
    bit p of onto[b][x] is set iff permutation p maps block b onto block
    x, and a left node's ``cover`` holds, per block x, the OR of
    onto[b][x] over its blocks b.  ``_lex_smaller`` then scans x up from
    0, as explained there.  A set A is lex-smaller than T of the same
    size exactly when min(A ^ T) lies in A.  Only x < i is scanned: an
    image of L + [i] under ``down[i]`` that agrees with L + [i] below i
    holds all of L and one block at i or later, so it is not
    lex-smaller.  The tables hold m * m + m masks of n! bits, and the
    permutation masks that build them n * n more, so they are used only
    while m * m + n * n masks fit in ``_ORBIT_BITS``, which admits every
    k at n <= 7; above it the atom test is the only symmetry cut.  They
    depend only on (n, k), so each (n, k)'s tables are built whole on
    first use, in about 2 ms at most, and kept for the life of the
    process in ``_ORBIT_TABLES``; they hold about 2.3 MB over every
    n <= 7 and 0.7 MB more at n = 8.  That helps only a caller that runs
    several searches in one process, such as the library or the tests; a
    CLI call still builds its tables.  A node's ``cover`` is built once,
    in full, at its first orbit test: the OR of its parent's cover, which
    waits on the stack with the parent, and the row of its last block, or
    that row alone at depth 1, below the root, which has none.  The
    parent's cover is always there, as the parent ran the test that
    admitted the node, and a node with no tested child builds none.

    At ell = 1 a tested child L + [i] with compat mask S' faces the
    dominance cut before the orbit test: it is cut, with all below it,
    when some block j < i outside L + [i] t-intersects every block of
    S'.  A pair (L', R') below the child has R' inside S', so j
    t-intersects every block of R' and (L' + [j], R') is feasible with
    one more left block, a larger product unless R' is empty (a pair of
    product 0 is never taken); no optimal pair lies below the child.  Nor
    is a prefix of the lex-least optimal left family L* cut: S' holds
    its right side, so such a j is in L*, else L* + [j] beats it, and
    j < i then puts j in L.  If the least such j lies after i instead,
    every family below a child L + [i] + [c] with c > j lacks j and is
    beaten the same way, while a prefix of L* through c would hold j
    before c; so L + [i] keeps only its children up to j.  This is the
    canonicity test of Kuznetsov's Close-by-One (1993) used as a cut.
    The test needs the AND of meet[c], the left blocks t-intersecting
    right block c, over the blocks c of S'.  It reads it from byte tables
    (``_meet_table``): the right candidates fall into groups of
    ``_GROUP`` = 8, and entry v of group g's table is the AND of
    meet[8g + c] over the set bits c of v.  Starting from the blocks
    outside L + [i], the test ANDs in one entry per group whose byte of
    S' is nonzero, and stops once no block is left or S' has no bits
    past the group.  A group's table is built when a test first reaches
    the group, so a small budget builds few.  All of them hold
    32 * m * r_m bits, so they are used only while m * r_m is at most
    ``_DOMINANCE_BITS``; above it the walk does without the cut.

    Each left block's row is built on its first visit: at ell = 1 its
    compat mask, the right blocks it t-intersects, at ell = 2 its
    ``_pair_row`` masks, else its intersection sizes with the right
    candidates; so a small budget builds few rows.  At ell = 1 the
    optimal right side for L is exactly the blocks t-intersecting every
    block of L, the AND of their compat masks, so only left families are
    enumerated.

    At ell >= 2 each right family R is walked on a second explicit stack,
    shared by every ell.  Each right node's frame holds ``rest``, a
    bitmask of the right candidates after its last column that passed
    every ancestor's test and are not yet tried as its children, and the
    bit of that last column, so the family R, a bitmask, loses the column
    when the frame is popped.  A column that fails at a node fails at all
    its descendants, so a child at column j tests only the candidates
    after j in its parent's ``rest``.  Below that child the right side
    can grow only by those candidates, so the frame is left once
    |L| * (|R| + popcount(rest)) < need, tested as each child is taken
    against ``need`` of that moment.  Only what a left node carries and
    how a child filters its candidates depend on ell.

    At ell = 2 the test is pairwise, and each pair splits by row: columns
    d < j fit under L iff Q_a(d, j) + Q_b(d, j) >= threshold for all rows
    a != b of L, where Q_a(d, j) = I[a][d] + I[a][j].  A left node carries
    two tables of bitmasks.  In ``ok[d]``, bit j > d is set iff j fits
    with d; bits up to d are never read, since a child's ``rest`` holds
    only columns after its own.  In ``low[v - 1][d]``, bit j is set iff
    min over rows b of L of Q_b(d, j) >= v, for v = 1..V, where V is the
    least of the threshold and twice the largest entry (no Q reaches
    more); the threshold here is lowered to at most 4 * top + 1, top the
    largest entry, min(k, k'), which gives every pair the same verdict.
    Adding row a keeps the pair iff Q_a(d, j) plus that old minimum
    reaches the threshold: ok[d] is ANDed with the union over v of
    {j : Q_a(d, j) >= threshold - v} & low[v - 1][d] (low at v = 0 is
    every column), and low[v - 1][d] with {j : Q_a(d, j) >= v}, all of
    them masks from the row of block a (``_pair_row``).  The right walk's
    child at j then keeps ``rest & ok[j]``: one AND.

    The same ``ok`` masks bound the right side at ell = 2.  Columns d < j
    fit iff bit j of ok[d] is set, so a right family of two or more
    columns is a clique of the fit graph, and it holds at most one
    column from each class of a colouring (``_colours``); a single
    column needs one colour too.  A family below L has more rows, and
    adding a row only clears bits of ``ok``, so its fit graph is a
    subgraph of L's, and L's colour count caps the right side of every
    family below L as well as L's own.  Each left node stores that
    count; it is the cap of its children's left cut, and it replaces
    popcount(rest) at the right walk's root frame, which then colours
    ``rest`` afresh on each later test, and at the first-level frames.
    Deeper frames are many and small, and a colouring there cost more
    than it cut.  When every ``ok`` mask is full the graph is complete
    and its colour count is r_m; no colouring is made then, nor at any
    frame under a left node whose count is r_m, since every subgraph of
    a complete graph needs one colour per column.

    At ell >= 3 each right family R is tested incrementally.  For L with
    ell-subsets S, column j of the right side has partial sums P[S][j];
    the levels are the ell - 1 smallest P[S][c] over the chosen columns
    c, kept sorted elementwise.  R + [j] is feasible iff min over S of
    P[S][j] + the sum of the levels reaches the threshold: the least grid
    through the new column.  A child with at least ell - 1 columns keeps
    only the candidates passing that test (``_fitting``).  Each left node carries ``sums``:
    per right column j, sums[j][d] lists column j's sums over the
    d-subsets of left rows, d = 0..ell.  Adding row r appends, for each
    d, sums[j][d - 1] plus r's entry in column j, so P[S][j] is
    sums[j][ell], built without re-summing old subsets.  The order of S
    is the same in every column, and only min, max and elementwise
    operations read it, so verdicts do not depend on it.
    """
    m = len(left_cands)
    r_m = len(right_cands)
    ell, threshold = params.ell, params.threshold
    everything = (1 << r_m) - 1
    # rows[i], built on block i's first visit: at ell = 1 its compat mask,
    # at ell = 2 its ``_pair_row`` masks, else its intersection sizes.
    rows: list = [None] * m
    top = min(left_cands[0], right_cands[0]).bit_count()  # min(k, k'), the largest entry
    if ell == 2:
        # No grid sum passes 4 * top, so 4 * top + 1 fails every pair as
        # any larger threshold does, and the masks do not grow with t.
        threshold = min(threshold, 4 * top + 1)
        n_low = min(threshold, 2 * top)
    orbit = (m * m + n * n) * factorial(n) <= _ORBIT_BITS
    if orbit:
        onto, down = _orbit_tables(n, left_cands)
    every_left = (1 << m) - 1
    tables = None
    if ell == 1 and m * r_m <= _DOMINANCE_BITS:
        # The tables of the groups the cut has reached, in group order.
        tables = []
        group = (1 << _GROUP) - 1
    passing: dict[int, int] = {}
    nodes = 1
    best = None
    # The current left node holds the blocks in the bitmask ``held``, the
    # last of them at index ``last``, and keeps its row state ``state``
    # (None at the root), its non-singleton atoms ``atoms``, its untried
    # admitted children in the bitmask ``todo`` and, with the orbit
    # tables, its ``cover``, None until its first orbit test.  Its
    # ancestors wait on ``above`` as (todo, atoms, cap, state, cover,
    # last); on running out of children it drops its last block and its
    # parent's values come back off ``above``.
    held = last = 0
    state = cover = None
    above: list = []
    atoms = [(1 << n) - 1]
    todo = _passing(atoms[0], left_cands)
    # The current node's cap on the right side of every family below it.
    cap = r_m
    while True:
        if not todo:
            if not held:
                return best, nodes, False
            held ^= 1 << last
            todo, atoms, cap, state, cover, last = above.pop()
            continue
        bit = todo & -todo
        i = bit.bit_length() - 1
        size = len(above) + 1
        if (size + m - i - 1) * cap < need:
            # The end-of-node cut: ``cap`` bounds the right side below
            # every child left, and the later ones have fewer blocks to add.
            todo = 0
            continue
        if nodes == budget:
            return best, nodes, True
        nodes += 1
        todo ^= bit
        row = rows[i]
        if row is None:
            inter = [(left_cands[i] & b).bit_count() for b in right_cands]
            if ell == 1:
                row = sum(1 << j for j, v in enumerate(inter) if v >= params.t)
            elif ell == 2:
                row = _pair_row(inter, top, threshold)
            else:
                row = inter
            rows[i] = row
        if ell == 1:
            compat = state & row if held else row
            if (size + m - i - 1) * compat.bit_count() < need:
                continue
        limit = 0
        if tables is not None:
            # The dominance cut (see the docstring): ``rest`` ends as the
            # blocks outside L + [i] that t-intersect every block of compat.
            rest = every_left ^ held ^ bit
            s = compat
            for tab in tables:
                if v := s & group:
                    rest &= tab[v]
                s >>= _GROUP
                if not (s and rest):
                    break
            else:
                # Past the groups read so far: build each one as it is reached.
                while s and rest:
                    g = len(tables) * _GROUP
                    tables.append(tab := _meet_table(left_cands, right_cands[g:g + _GROUP], params.t))
                    if v := s & group:
                        rest &= tab[v]
                    s >>= _GROUP
            if rest & (bit - 1):
                continue
            limit = rest & -rest
        if orbit and held:
            # The orbit test (see the docstring).
            if cover is None:
                # The parent ran the test that admitted this node, so its
                # cover is built; the root's is None.
                cover = onto[last]
                if above[-1][4] is not None:
                    cover = list(map(or_, above[-1][4], cover))
            if _lex_smaller(down[i], held, cover, onto[i], i):
                continue
        block = left_cands[i]
        above.append((todo, atoms, cap, state, cover, last))
        held |= bit
        last = i
        cover = None
        atoms = [a for c in atoms for a in (c & block, c & ~block) if a & (a - 1)]
        todo = every_left
        for c in atoms:
            got = passing.get(c)
            if got is None:
                got = passing[c] = _passing(c, left_cands)
            todo &= got
        todo &= -(bit << 1)
        if limit:
            todo &= (limit << 1) - 1
        if ell == 1:
            state = compat
            cap = compat.bit_count()
        elif ell == 2:
            qa = row
            if state:
                ok, low = state
                fits = qa[threshold]
                for v, g in enumerate(low, 1):
                    fits = map(or_, fits, map(and_, qa[threshold - v], g))
                ok, low = (list(map(and_, ok, fits)),
                           [list(map(and_, g, qa[v])) for v, g in enumerate(low, 1)])
            else:
                ok, low = [everything] * r_m, qa[1:n_low + 1]
            # A complete fit graph needs r_m colours: skip its colouring.
            cap = _colours(everything, ok) if min(ok) != everything else r_m
            state = ok, low
        else:
            state = [[s[0]] + [s[d] + [x + v for x in s[d - 1]] for d in range(1, ell + 1)]
                     for s, v in zip(state or [[[0]] + [[]] * ell] * r_m, row)]
        if ell == 1 or size < ell:
            # The best right side is every block in the compat mask at
            # ell = 1, and every candidate with too few left blocks to test.
            right = state if ell == 1 else everything
            product = size * right.bit_count()
            if product >= need:
                best = product, held, right
                need = product + 1
            continue
        # Each right node on the path holds a frame [rest, levels, col]: its
        # untried candidates, at ell >= 3 its levels, and the bit of the
        # column it added, 0 at the root.  ``right``, the current node's
        # family, is the OR of those bits, and its size is len(frames)
        # before the node's own frame goes on.
        levels = None
        if ell > 2:
            cols = [s[ell] for s in state]
            ceiling = [max(map(max, cols))] * len(cols[0])  # above every P[S][j]
            levels = [ceiling] * (ell - 1)
        cands = everything
        right = col = 0
        frames: list = []
        while True:
            if nodes == budget:
                return best, nodes, True
            nodes += 1
            product = size * len(frames)
            if product >= need:
                best = product, held, right
                need = product + 1
            frames.append([cands, levels, col])
            while frames:
                rest, levels, _ = frames[-1]
                depth = len(frames) - 1
                # The root and first-level frames hold the largest subtrees,
                # so they alone pay for a colouring of ``rest``; the root's
                # first one is the left node's ``cap``.
                if rest and size * (depth + rest.bit_count()) >= need and (
                        depth > 1 or cap == r_m or size * (depth + (
                            cap if rest == everything else _colours(rest, ok))) >= need):
                    break
                right ^= frames.pop()[2]
            if not frames:
                break
            col = rest & -rest
            rest ^= col
            frames[-1][0] = rest
            right |= col
            j = col.bit_length() - 1
            if ell == 2:
                cands = rest & ok[j]
            else:
                levels = _push_column(levels, cols[j])
                cands = rest if len(frames) + 1 < ell else _fitting(rest, levels, cols, threshold)


def search_max_product(n: int, k: int, kprime: int, params: WeakCrossParams,
                       node_budget: int | None = None) -> SearchResult:
    """Maximum |F| * |F'| over pairs not violating the condition.

    Exhaustive whenever the walk ends within the node budget; without a
    budget the instance must satisfy C(n, k) + C(n, k') <= 40.
    """
    ground = GroundSet(n)
    for size in (k, kprime):
        if not 1 <= size <= n:
            raise ValueError(f"block size {size} outside [1, {n}]")
    total = binomial(n, k) + binomial(n, kprime)
    if node_budget is None and total > MAX_SEARCH_BLOCKS:
        raise InstanceTooLargeError(
            f"C({n}, {k}) + C({n}, {kprime}) = {total} exceeds the exhaustive "
            f"guard of {MAX_SEARCH_BLOCKS} blocks; pass a node budget for a "
            "best-effort search")
    if node_budget is not None and node_budget < 1:
        raise ValueError("node budget must be positive")

    left_cands = all_masks(n, k)
    right_cands = all_masks(n, kprime)
    # The star on core {1, ..., t}, a bitmask of candidate indices per
    # side; it is empty on a side whose blocks are smaller than t.
    core = (1 << params.t) - 1
    star = [sum(1 << i for i, b in enumerate(cands) if b & core == core)
            for cands in (left_cands, right_cands)]
    star_product = star[0].bit_count() * star[1].bit_count()

    best, nodes, truncated = _walk(n, node_budget, left_cands, right_cands, params,
                                   max(star_product, 1))
    product, held, right = best or (star_product, *star)
    if product == 0:
        held = right = 0
    left_masks, right_masks = ([b for i, b in enumerate(cands) if pick >> i & 1]
                               for cands, pick in ((left_cands, held), (right_cands, right)))
    pair = FamilyPair(
        Family.from_masks(ground, k, left_masks),
        Family.from_masks(ground, kprime, right_masks),
    )
    return SearchResult(
        best_product=product,
        best_pair=pair,
        star_product=star_product,
        nodes_explored=nodes,
        exhaustive=not truncated,
    )
