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
still lift the product to the incumbent.  Only what a left family
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
column j then filters its candidates with one AND.

At ell >= 3 each left family holds one column vector per right
candidate, the column's sum over each ell-subset of left rows, grown
from its parent's vectors by the one new row, and the right walk
carries, per left subset, the ell - 1 smallest such sums over the
chosen columns.  An extension then costs one pass over the left
subsets, and its verdict is exactly that of re-minimising every grid
through the new column.

Determinism: below the root (the empty left family, counted as one
node), the tree is statically split into buckets by the first included
left block, searched in order with its own pre-split share of the node
budget.  The incumbent runs through them: the first bucket starts from
the star pair, and each later one from the best found so far, so the
result and node count are fixed by the instance and the budget.  The
budget shares stay because one depth-first search under the whole
budget spends it in the first, deepest buckets: measured on
(6,2,2,2,1) with budget 8000 it visits 8,000 nodes instead of 5,026
and takes about 3x longer on a 2-CPU host, and it finds smaller
products on 3 of 8 budgeted instances (larger on 1).  The reported pair is the
lexicographically least one attaining the maximum product; when no
positive product is feasible the empty pair is reported.  A node's
witness tuples are built only when its product can tie or beat the
incumbent, since no smaller product can displace it; at ell = 1 a tie
builds the right tuple only when the left one does not already lose.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, and_, or_

from .analysis import WeakCrossParams
from .constructions import StarSpec, make_star
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


def _better(cand, best):
    """Candidate order: larger product first, then lex-least (left, right).

    Callers build ``cand`` only when its product is at least ``best[0]``:
    a smaller product is never better, so its tuples would be wasted.
    """
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return (cand[1], cand[2]) < (best[1], best[2])


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


def _pair_rows(inter, threshold):
    """Per left row a, the ell = 2 masks: rows[a][u][d] = {j : I[a][j] >= u - I[a][d]}.

    Index u runs over 0..threshold; bit j of a mask stands for right
    candidate j.  A pair (d, j) of columns under rows a, b has grid sum
    Q_a(d, j) + Q_b(d, j), where Q_a(d, j) = I[a][d] + I[a][j], so
    Q_a(d, j) >= u exactly when bit j of rows[a][u][d] is set.  Returns
    the masks and V, the number of ``low`` tables a left node carries:
    the least of the threshold and twice the largest entry.
    """
    top = max(map(max, inter))
    out = []
    for row in inter:
        # ge[u]: the columns whose entry in this row reaches u, u = 0..top + 1.
        ge = [sum(1 << j for j, v in enumerate(row) if v >= u) for u in range(top + 2)]
        out.append([[ge[min(max(u - x, 0), top + 1)] for x in row]
                    for u in range(threshold + 1)])
    return out, min(threshold, 2 * top)


def _run_bucket(first, budget, left_cands, right_cands, params, inter, rows, best):
    """Search the bucket of left families whose first block is ``first``.

    Returns (best, nodes, truncated): truncated when the bucket tried a
    node past its ``budget`` share.  The left tree is walked on an
    explicit stack, and the bucket's root, the family {first}, is the
    only child of the empty family.  A left node L is cut when
    (|L| + (m - next)) * cap < best, where next is the index after L's
    last block and cap bounds the right side: at ell = 1 the popcount
    of L's compat mask, else all r_m right candidates.

    ``rows`` holds per left block what the walk needs of its row of
    ``inter``: at ell = 1 its compat mask, the right blocks it
    t-intersects, and at ell = 2 its ``_pair_rows`` masks (``rows`` is
    then the pair of the masks and V that ``_pair_rows`` returns).  At
    ell = 1 the optimal right side for L is exactly the blocks
    t-intersecting every block of L, the AND of their compat masks, so
    only left families are enumerated.

    At ell >= 2 each right family R is walked on a second explicit stack,
    shared by every ell.  Each right node's frame holds ``rest``, a
    bitmask of the right candidates after its last column that passed
    every ancestor's test and are not yet tried as its children.  A
    column that fails at a node fails at all its descendants, so a child
    at column j tests only the candidates after j in its parent's
    ``rest``.  Below that child the right side can grow only by those
    candidates, so the frame is left once |L| * (|R| + popcount(rest))
    < best, tested as each child is taken against the incumbent of that
    moment; the test is strict, so ties are expanded and the lex-least
    pair is kept.  Only what a left node carries and how a child filters
    its candidates depend on ell.

    At ell = 2 the test is pairwise, and each pair splits by row: columns
    d < j fit under L iff Q_a(d, j) + Q_b(d, j) >= threshold for all rows
    a != b of L, where Q_a(d, j) = I[a][d] + I[a][j].  A left node carries
    two tables of bitmasks.  In ``ok[d]``, bit j > d is set iff j fits
    with d; bits up to d are never read, since a child's ``rest`` holds
    only columns after its own.  In ``low[v - 1][d]``, bit j is set iff
    min over rows b of L of Q_b(d, j) >= v, for v = 1..V, where V is the
    least of the threshold and twice the largest entry (no Q reaches
    more).  Adding row a keeps the pair iff Q_a(d, j) plus that old
    minimum reaches the threshold: ok[d] is ANDed with the union over v
    of {j : Q_a(d, j) >= threshold - v} & low[v - 1][d] (low at v = 0 is
    every column), and low[v - 1][d] with {j : Q_a(d, j) >= v}, all of
    them masks from ``rows`` (``_pair_rows``).  The right walk's child at
    j then keeps ``rest & ok[j]``: one AND.

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
    if ell == 2:
        rows, n_low = rows
    nodes = 0
    # The left node holding indices ``chosen`` (blocks ``cur``) has its
    # compat mask, pair masks or column sums in ``path[-1]`` and visits
    # its children nxt, nxt + 1, ... in turn; on running out it is left
    # by popping its last index.
    chosen: list[int] = []
    cur: list[int] = []
    path: list = []
    nxt = first
    while True:
        if nxt >= (m if chosen else first + 1):
            if not chosen:
                return best, nodes, False
            nxt = chosen.pop() + 1
            cur.pop()
            path.pop()
            continue
        if nodes == budget:
            return best, nodes, True
        nodes += 1
        i = nxt
        nxt += 1
        size = len(chosen) + 1
        if ell == 1:
            state = path[-1] & rows[i] if chosen else rows[i]
            cap = state.bit_count()
        else:
            cap = r_m
        if (size + m - nxt) * cap < best[0]:
            continue
        cur.append(left_cands[i])
        if ell == 1:
            product = size * cap
            if product >= best[0]:
                left = tuple(cur)
                # A tie whose left tuple is already larger loses without the
                # right tuple, which costs a pass over all right candidates.
                if product > best[0] or left <= best[1]:
                    cand = (product, left,
                            tuple(right_cands[j] for j in range(r_m) if state >> j & 1))
                    if _better(cand, best):
                        best = cand
            chosen.append(i)
            path.append(state)
            continue
        if ell == 2:
            qa = rows[i]
            if chosen:
                ok, low = path[-1]
                fits = qa[threshold]
                for v, g in enumerate(low, 1):
                    fits = map(or_, fits, map(and_, qa[threshold - v], g))
                ok, low = (list(map(and_, ok, fits)),
                           [list(map(and_, g, qa[v])) for v, g in enumerate(low, 1)])
            else:
                ok, low = [everything] * r_m, qa[1:n_low + 1]
            state = ok, low
        else:
            state = [[s[0]] + [s[d] + [x + v for x in s[d - 1]] for d in range(1, ell + 1)]
                     for s, v in zip(path[-1] if chosen else [[[0]] + [[]] * ell] * r_m,
                                     inter[i])]
        chosen.append(i)
        path.append(state)
        left = tuple(cur)
        if size < ell:
            # Too few left blocks to test: every right family is feasible.
            cand = (size * r_m, left, tuple(right_cands))
            if _better(cand, best):
                best = cand
            continue
        # Each right node on the path holds a frame [rest, levels]: its
        # untried candidates and, at ell >= 3, its levels.
        levels = None
        if ell > 2:
            cols = [s[ell] for s in state]
            top = [max(map(max, cols))] * len(cols[0])  # above every P[S][j]
            levels = [top] * (ell - 1)
        cands = everything
        right: list[int] = []
        frames: list = []
        while True:
            if nodes == budget:
                return best, nodes, True
            nodes += 1
            product = size * len(right)
            if product >= best[0]:
                cand = (product, left, tuple(right))
                if _better(cand, best):
                    best = cand
            frames.append([cands, levels])
            while frames:
                rest, levels = frames[-1]
                if rest and size * (len(right) + rest.bit_count()) >= best[0]:
                    break
                frames.pop()
                if right:
                    right.pop()
            if not frames:
                break
            bit = rest & -rest
            rest ^= bit
            frames[-1][0] = rest
            j = bit.bit_length() - 1
            right.append(right_cands[j])
            if ell == 2:
                cands = rest & ok[j]
            else:
                levels = _push_column(levels, cols[j])
                cands = rest if len(right) + 1 < ell else _fitting(rest, levels, cols, threshold)


def search_max_product(n: int, k: int, kprime: int, params: WeakCrossParams,
                       node_budget: int | None = None) -> SearchResult:
    """Maximum |F| * |F'| over pairs not violating the condition.

    Exhaustive whenever no bucket exhausts its share of the node budget;
    without a budget the instance must satisfy
    C(n, k) + C(n, k') <= 40.
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
    star_left, star_right = [
        make_star(StarSpec.default(n, size, params.t)).masks if params.t <= size else ()
        for size in (k, kprime)]
    star_product = len(star_left) * len(star_right)

    # The root (the empty left family) is one node whose pair has product
    # 0 and is never reported, so it is counted, not searched.  It keeps
    # share 0 of the m + 1 budget shares: the budgeted node counts pinned
    # by test_search_pinned_results depend on that split.
    m = len(left_cands)
    budgets: list[int | None] = [None] * m
    if node_budget is not None:
        share, extra = divmod(node_budget, m + 1)
        budgets = [share + (1 if p < extra else 0) for p in range(1, m + 1)]

    inter = [[(a & b).bit_count() for b in right_cands] for a in left_cands]
    rows = None
    if params.ell == 1:
        rows = [sum(1 << j for j, v in enumerate(row) if v >= params.t) for row in inter]
    elif params.ell == 2:
        rows = _pair_rows(inter, params.threshold)

    best = (star_product, star_left, star_right)
    nodes = 1
    truncated = False
    for first, budget in enumerate(budgets):
        best, bucket_nodes, bucket_truncated = _run_bucket(
            first, budget, left_cands, right_cands, params, inter, rows, best)
        nodes += bucket_nodes
        truncated = truncated or bucket_truncated
    product, left_masks, right_masks = best
    if product == 0:
        left_masks, right_masks = (), ()
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
