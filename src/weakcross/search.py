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
left families are enumerated.  For ell >= 2 the walk tests each right
extension incrementally, on a second stack: one block-by-block
intersection table is built per search; each left family holds one
column vector per right candidate, the column's sum over each
ell-subset of left rows, grown from its parent's vectors by the one new
row; and the right walk carries, per left subset, the ell - 1
smallest such sums over the chosen columns.  An extension then costs
one pass over the left subsets, and its verdict is exactly that of
re-minimising every grid through the new column.  A right node tests
only the candidates that passed at its parent, since a failed column
fails below it too, and expands a child only while the survivors from
that child on can still lift the product to the incumbent.

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


def _push_column(levels, col):
    """Insert column vector ``col`` into the sorted ``levels`` elementwise."""
    out = []
    for lv in levels[:-1]:
        out.append(list(map(min, lv, col)))
        col = list(map(max, lv, col))
    out.append(list(map(min, levels[-1], col)))
    return out


def _run_bucket(first, budget, left_cands, right_cands, params, inter, compat, best):
    """Search the bucket of left families whose first block is ``first``.

    Returns (best, nodes, truncated): truncated when the bucket tried a
    node past its ``budget`` share.  The left tree is walked on an
    explicit stack, and the bucket's root, the family {first}, is the
    only child of the empty family.  A left node L is cut when
    (|L| + (m - next)) * cap < best, where next is the index after L's
    last block and cap bounds the right side: at ell = 1 the popcount
    of L's ``compat`` mask, else all r_m right candidates.

    At ell = 1 the optimal right side for L is exactly the blocks
    t-intersecting every block of L, the AND of their ``compat`` masks,
    so only left families are enumerated.

    At ell >= 2 each right family R is tested incrementally, on a
    second explicit stack.  For L with ell-subsets S, column j of the
    right side has partial sums P[S][j]; the levels are the ell - 1
    smallest P[S][c] over the chosen columns c, kept sorted elementwise.
    R + [j] is feasible iff min over S of P[S][j] + the sum of the
    levels reaches the threshold: the least grid through the new column.

    Each right node's frame holds ``cands``, the right indices after its
    last one that passed every ancestor's test.  Levels only fall as
    columns are added, so a column that fails at a node fails at all
    its descendants: a node tests only ``cands`` and hands each child
    the survivors after the child's column.  Below the child at position
    pos, the right side can grow only by cands[pos:], so the frame is
    left once |L| * (|R| + len(cands) - pos) < best, tested as each
    child is taken against the incumbent of that moment; the test is
    strict, so ties are expanded and the lex-least pair is kept.

    Each left node carries ``sums``: per right column j, sums[j][d] lists
    column j's sums over the d-subsets of left rows, d = 0..ell.  Adding
    row r appends, for each d, sums[j][d - 1] plus r's entry in column j,
    so P[S][j] is sums[j][ell], built without re-summing old subsets.  The
    order of S is the same in every column, and only min, max and
    elementwise operations read it, so verdicts do not depend on it.
    """
    m = len(left_cands)
    r_m = len(right_cands)
    ell, threshold = params.ell, params.threshold
    nodes = 0
    # The left node holding indices ``chosen`` (blocks ``cur``) has its
    # compat mask or column sums in ``path[-1]`` and visits its children
    # nxt, nxt + 1, ... in turn; on running out it is left by popping its
    # last index.
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
            state = path[-1] & compat[i] if chosen else compat[i]
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
        else:
            state = [[s[0]] + [s[d] + [x + v for x in s[d - 1]] for d in range(1, ell + 1)]
                     for s, v in zip(path[-1] if chosen else [[[0]] + [[]] * ell] * r_m,
                                     inter[i])]
            left = tuple(cur)
            if size < ell:
                # Too few left blocks to test: every right family is feasible.
                cand = (size * r_m, left, tuple(right_cands))
                if _better(cand, best):
                    best = cand
            else:
                cols = [s[ell] for s in state]
                top = [max(map(max, cols))] * len(cols[0])  # above every P[S][j]
                # The right node holding ``right`` pushes its frame (levels,
                # cands, room); ``taken`` holds, per right node below the
                # root, its position in its parent's cands.
                levels, cands = [top] * (ell - 1), range(r_m)
                right: list[int] = []
                frames: list = []
                taken: list[int] = []
                while True:
                    if nodes == budget:
                        return best, nodes, True
                    nodes += 1
                    product = size * len(right)
                    if product >= best[0]:
                        cand = (product, left, tuple(right))
                        if _better(cand, best):
                            best = cand
                    if len(right) + 1 >= ell:
                        offs = levels[0]
                        for lv in levels[1:]:
                            offs = list(map(add, offs, lv))
                        cands = [j for j in cands if min(map(add, cols[j], offs)) >= threshold]
                    frames.append((levels, cands, len(right) + len(cands)))
                    pos = 0
                    while frames:
                        levels, cands, room = frames[-1]
                        if pos < len(cands) and size * (room - pos) >= best[0]:
                            break
                        frames.pop()
                        if taken:
                            pos = taken.pop() + 1
                            right.pop()
                    if not frames:
                        break
                    j = cands[pos]
                    taken.append(pos)
                    right.append(right_cands[j])
                    levels, cands = _push_column(levels, cols[j]), cands[pos + 1:]
        chosen.append(i)
        path.append(state)


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

    left_cands = _all_masks(n, k)
    right_cands = _all_masks(n, kprime)
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
    compat = None
    if params.ell == 1:
        compat = [sum(1 << j for j, v in enumerate(row) if v >= params.t) for row in inter]

    best = (star_product, star_left, star_right)
    nodes = 1
    truncated = False
    for first, budget in enumerate(budgets):
        best, bucket_nodes, bucket_truncated = _run_bucket(
            first, budget, left_cands, right_cands, params, inter, compat, best)
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
