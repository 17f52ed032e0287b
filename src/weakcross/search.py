"""Exhaustive search for the maximum-product feasible pair at desk scale.

Over all pairs of a k-uniform and a k'-uniform family on [n], find the
maximum of |F| * |F'| subject to the pair not violating the ell-weak
cross t-intersection condition (pairs too small to be tested count as
feasible).  The search grows the left family over candidate blocks in
canonical order, then the right family, pruning any extension that is
already violated: violation is inherited by superfamilies, so a violated
pair closes its whole subtree.

For ell = 1 the right side of a left family is fixed (the blocks
t-intersecting all of it), so only left families are enumerated.  Other
searches test each right extension incrementally: one block-by-block
intersection table is built per search; each left family holds one
column vector per right candidate, the column's sum over each
ell-subset of left rows, grown from its parent's vectors by the one new
row; and the right recursion carries, per left subset, the ell - 1
smallest such sums over the chosen columns.  An extension then costs
one pass over the left subsets, and its verdict is exactly that of
re-minimising every grid through the new column.  A right node tests
only the candidates that passed at its parent, since a failed column
fails below it too, and expands a child only while the survivors from
that child on can still lift the product to the incumbent.

Determinism: below the root (the empty left family, counted as one
node), the tree is statically split into buckets by the first included
left block.  Each bucket is searched against the star-pair floor with
its own pre-split share of the node budget, never against another
bucket's best, so its result and node count depend on nothing outside
it; bucket results are merged in a fixed order.  The buckets stay
because ``nodes_explored`` and the per-bucket budget shares are part of
the report: a single search under one shared budget and incumbent would
visit, and count, other nodes.  The reported pair is the
lexicographically least one attaining the maximum product; when no
positive product is feasible the empty pair is reported.  A node's
witness tuples are built only when its product can tie or beat the
incumbent, since no smaller product can displace it; at ell = 1 a tie
builds the right tuple only when the left one does not already lose.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add

from .analysis import WeakCrossParams
from .constructions import StarSpec, make_star
from .families import (
    Family,
    FamilyPair,
    GroundSet,
    InstanceTooLargeError,
    binomial,
    mask_from_elements,
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
            "left": [list(b.elements) for b in self.best_pair.left],
            "right": [list(b.elements) for b in self.best_pair.right],
        }


def _all_masks(n: int, k: int) -> list[int]:
    return sorted(mask_from_elements(n, c) for c in combinations(range(1, n + 1), k))


def _better(cand, best):
    """Candidate order: larger product first, then lex-least (left, right).

    Callers build ``cand`` only when its product is at least ``best[0]``:
    a smaller product is never better, so its tuples would be wasted.
    """
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return (cand[1], cand[2]) < (best[1], best[2])


def _run_bucket_fast(first, budget, left_cands, right_cands, compat, seed):
    """ell = 1 bucket: the optimal right side for a fixed left family is
    exactly the blocks t-intersecting every left block, so only left
    families are enumerated."""
    m = len(left_cands)
    r_m = len(right_cands)
    best = seed
    nodes = 0
    truncated = False

    def right_tuple(mask):
        return tuple(right_cands[j] for j in range(r_m) if mask >> j & 1)

    def spend():
        nonlocal nodes, truncated
        if budget is not None and nodes >= budget:
            truncated = True
            return False
        nodes += 1
        return True

    def rec(cur, cmask, nxt):
        nonlocal best
        if truncated or not spend():
            return
        rsize = cmask.bit_count()
        product = len(cur) * rsize
        if product >= best[0]:
            left = tuple(cur)
            # A tie whose left tuple is already larger loses without the
            # right tuple, which costs a pass over all right candidates.
            if product > best[0] or left <= best[1]:
                cand = (product, left, right_tuple(cmask))
                if _better(cand, best):
                    best = cand
        if (len(cur) + (m - nxt)) * rsize < best[0]:
            return
        for j in range(nxt, m):
            cur.append(left_cands[j])
            rec(cur, cmask & compat[j], j + 1)
            cur.pop()

    rec([left_cands[first]], compat[first], first + 1)
    return best, nodes, truncated


def _push_column(levels, col):
    """Insert column vector ``col`` into the sorted ``levels`` elementwise."""
    out = []
    for lv in levels[:-1]:
        out.append(list(map(min, lv, col)))
        col = list(map(max, lv, col))
    if levels:
        out.append(list(map(min, levels[-1], col)))
    return out


def _run_bucket_generic(first, budget, left_cands, right_cands, context, seed):
    """ell >= 2 (or forced generic) bucket with an incremental feasibility check.

    For a fixed left family with ell-subsets S, column j of the right side
    has partial sums P[S][j]; the levels are the ell - 1 smallest P[S][c]
    over the chosen columns c, kept sorted elementwise.  Right family
    cur + [j] is feasible iff min over S of P[S][j] + sum of the levels
    reaches the threshold: the least grid through the new column.

    Each right node gets ``cands``, the right indices after its last one
    that passed every ancestor's test.  Levels only fall as columns are
    added, so a column that fails at a node fails at all its descendants:
    a node tests only ``cands`` and hands each child the survivors after
    the child's column.  Below the child at position pos, the right side
    can grow only by cands[pos:], so the loop stops once
    |left| * (|cur| + len(cands) - pos) < best; the test is strict, so
    ties are expanded and the lex-least pair is kept.

    Each left node carries ``sums``: per right column j, sums[j][d] lists
    column j's sums over the d-subsets of left rows, d = 0..ell.  Adding
    row r appends, for each d, sums[j][d - 1] plus r's entry in column j,
    so P[S][j] is sums[j][ell], built without re-summing old subsets.  The
    order of S is the same in every column, and only min, max and
    elementwise operations read it, so verdicts do not depend on it.
    """
    params, inter = context
    m = len(left_cands)
    r_m = len(right_cands)
    ell, threshold = params.ell, params.threshold
    all_right = tuple(right_cands)
    best = seed
    nodes = 0
    truncated = False

    def spend():
        nonlocal nodes, truncated
        if budget is not None and nodes >= budget:
            truncated = True
            return False
        nodes += 1
        return True

    def rec_right(left_tuple, cols, levels, cur, cands):
        nonlocal best
        if truncated or not spend():
            return
        size = len(left_tuple)
        product = size * len(cur)
        if product >= best[0]:
            cand = (product, left_tuple, tuple(cur))
            if _better(cand, best):
                best = cand
        if len(cur) + 1 >= ell:
            offs = levels[0] if levels else [0] * len(cols[0])
            for lv in levels[1:]:
                offs = list(map(add, offs, lv))
            cands = [j for j in cands if min(map(add, cols[j], offs)) >= threshold]
        room = len(cur) + len(cands)
        for pos, j in enumerate(cands):
            if size * (room - pos) < best[0]:
                break
            cur.append(right_cands[j])
            rec_right(left_tuple, cols, _push_column(levels, cols[j]), cur, cands[pos + 1:])
            cur.pop()

    def rec_left(idx, nxt, sums):
        nonlocal best
        if truncated or not spend():
            return
        left_tuple = tuple(left_cands[i] for i in idx)
        if (len(left_tuple) + (m - nxt)) * r_m < best[0]:
            return
        row = inter[idx[-1]]
        sums = [[s[0]] + [s[d] + [x + v for x in s[d - 1]] for d in range(1, ell + 1)]
                for s, v in zip(sums, row)]
        if len(left_tuple) < ell:
            # Too few left blocks to test: every right family is feasible.
            cand = (len(left_tuple) * r_m, left_tuple, all_right)
            if _better(cand, best):
                best = cand
        else:
            cols = [s[ell] for s in sums]
            top = [max(map(max, cols))] * len(cols[0])  # above every P[S][j]
            rec_right(left_tuple, cols, [top] * (ell - 1), [], range(r_m))
        for j in range(nxt, m):
            idx.append(j)
            rec_left(idx, j + 1, sums)
            idx.pop()

    rec_left([first], first + 1, [[[0]] + [[]] * ell for _ in range(r_m)])
    return best, nodes, truncated


def search_max_product(n: int, k: int, kprime: int, params: WeakCrossParams,
                       node_budget: int | None = None,
                       force_generic: bool = False) -> SearchResult:
    """Maximum |F| * |F'| over pairs not violating the condition.

    Exhaustive whenever no bucket exhausts its share of the node budget;
    without a budget the instance must satisfy
    C(n, k) + C(n, k') <= 40.  ``force_generic`` disables the ell = 1
    fast path (used for cross-validation).
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

    left_cands = _all_masks(n, k)
    right_cands = _all_masks(n, kprime)
    star_left, star_right = [
        make_star(StarSpec.default(n, size, params.t)).masks if params.t <= size else ()
        for size in (k, kprime)]
    star_product = len(star_left) * len(star_right)
    seed = (star_product, star_left, star_right)

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
    if params.ell == 1 and not force_generic:
        compat = []
        for row in inter:
            mask = 0
            for j, v in enumerate(row):
                if v >= params.t:
                    mask |= 1 << j
            compat.append(mask)
        run_bucket, context = _run_bucket_fast, compat
    else:
        run_bucket, context = _run_bucket_generic, (params, inter)

    best = seed
    nodes = 1
    truncated = False
    for first, budget in enumerate(budgets):
        cand, bucket_nodes, bucket_truncated = run_bucket(
            first, budget, left_cands, right_cands, context, seed)
        nodes += bucket_nodes
        truncated = truncated or bucket_truncated
        if _better(cand, best):
            best = cand
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
