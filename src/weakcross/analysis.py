"""Exact decisions for the weak cross-intersection condition.

A pair (F, F') of k- and k'-uniform families over [n] is ell-weakly
cross t-intersecting when every choice of ell distinct blocks from F
and ell distinct blocks from F' has total pairwise intersection size,
summed over the full ell x ell grid, at least ell^2*t - ell + 1.  For
ell = 1 this is exactly the classical cross t-intersecting property.

The single-family analogue checked by :func:`check_weak_single` asks
that every ell distinct blocks of one family have pairwise intersection
sizes summing to at least C(ell-1, 2) + 1.

All checks are exact, and every "violated" verdict carries the
lexicographically least witness (minimal grid value first, then row
indices, then column indices).
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import add, or_

from . import kernels
from .families import Family, FamilyPair, Record, binomial

__all__ = [
    "SATISFIED",
    "VIOLATED",
    "VACUOUS",
    "VacuousChoiceError",
    "WeakCrossParams",
    "IntersectionMatrix",
    "WitnessTuple",
    "CrossVerdict",
    "SingleVerdict",
    "intersection_matrix",
    "min_grid_sum",
    "check_weak_cross",
    "check_weak_single",
]

SATISFIED = "satisfied"
VIOLATED = "violated"
VACUOUS = "vacuous"

# Maps the digits "0" and "1" to the bytes 0 and 1.
_DIGIT = bytes.maketrans(b"01", b"\0\1")


class VacuousChoiceError(ValueError):
    """Raised when a minimum over ell-subsets is requested but none exist."""


class WeakCrossParams(Record):
    """The pair (ell, t) of the condition; both at least 1."""

    __slots__ = ("ell", "t")

    def __init__(self, ell: int, t: int):
        if ell < 1:
            raise ValueError(f"ell must be at least 1, got {ell}")
        if t < 1:
            raise ValueError(f"t must be at least 1, got {t}")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "t", t)

    @property
    def threshold(self) -> int:
        """The grid-sum lower bound ell^2 * t - ell + 1."""
        return self.ell * self.ell * self.t - self.ell + 1


class IntersectionMatrix(Record):
    """All pairwise intersection sizes of a family pair, row = left index."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)


class WitnessTuple(Record):
    """An ell x ell index grid together with its achieved intersection sum."""

    __slots__ = ("row_indices", "col_indices", "achieved_sum")

    def __init__(self, row_indices: tuple[int, ...], col_indices: tuple[int, ...],
                 achieved_sum: int):
        for seq in (row_indices, col_indices):
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValueError("witness indices must be strictly increasing")
        if len(row_indices) != len(col_indices):
            raise ValueError("witness must pick equally many rows and columns")
        object.__setattr__(self, "row_indices", row_indices)
        object.__setattr__(self, "col_indices", col_indices)
        object.__setattr__(self, "achieved_sum", achieved_sum)


class CrossVerdict(Record):
    """Outcome of a weak cross-intersection check."""

    __slots__ = ("verdict", "threshold", "min_sum", "witness")

    def __init__(self, verdict: str, threshold: int, min_sum: int | None,
                 witness: WitnessTuple | None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "min_sum", min_sum)
        object.__setattr__(self, "witness", witness)

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "rows": list(self.witness.row_indices),
                "cols": list(self.witness.col_indices),
            }
        return {
            "verdict": self.verdict,
            "min_sum": self.min_sum,
            "threshold": self.threshold,
            "witness": witness,
        }


class SingleVerdict(Record):
    """Outcome of the single-family check."""

    __slots__ = ("verdict", "threshold", "min_sum", "indices")

    def __init__(self, verdict: str, threshold: int, min_sum: int | None,
                 indices: tuple[int, ...] | None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "min_sum", min_sum)
        object.__setattr__(self, "indices", indices)

    def to_json_dict(self) -> dict:
        witness = None
        if self.indices is not None:
            witness = {"indices": list(self.indices)}
        return {
            "verdict": self.verdict,
            "min_sum": self.min_sum,
            "threshold": self.threshold,
            "witness": witness,
        }


def intersection_matrix(pair: FamilyPair) -> IntersectionMatrix:
    """The |F| x |F'| matrix of pairwise intersection sizes.

    Rows are sums of byte-packed element columns: byte j of element e's
    column is 1 iff right block j holds e, so the sum of the columns of a
    left block's elements, one big-int add per element, has in byte j the
    block's intersection size with right block j.  An entry is at most
    min(k, k') <= ``MAX_GROUND`` = 64, below 256, so no byte carries into
    the next, and ``to_bytes`` reads the row back.  The columns are cut
    from the right blocks packed as w-byte little-endian words, one
    ``int.to_bytes`` per block: byte e >> 3 of every word, taken with one
    strided slice, shifted right by e & 7 and masked to bit 0 of each
    byte.  Only elements of some left block get a column, and
    ``compress`` picks a row's columns by the digits of its block's
    binary form, most significant first.
    """
    n = pair.left.ground.n
    left_masks = pair.left.masks
    right_masks = pair.right.masks
    r = len(right_masks)
    w = (n + 7) >> 3
    used = reduce(or_, left_masks, 0)
    ones = int.from_bytes(b"\1" * r, "little")
    packed = b"".join(map(int.to_bytes, right_masks, repeat(w), repeat("little")))
    cols = [int.from_bytes(packed[e >> 3::w], "little") >> (e & 7) & ones
            if used >> e & 1 else 0 for e in reversed(range(n))]
    spec = f"0{n}b"
    entries = tuple(
        tuple(sum(compress(cols, format(a, spec).encode().translate(_DIGIT))).to_bytes(r, "little"))
        for a in left_masks
    )
    return IntersectionMatrix(len(left_masks), r, entries)


def min_grid_sum(matrix: IntersectionMatrix, ell: int) -> tuple[int, WitnessTuple]:
    """Exact minimum over all ell x ell index grids of the entry sum.

    Computed by ``kernels.min_grid_sum_bucket``.  The returned witness
    is the lexicographically least one attaining the minimum (by value,
    then row indices, then column indices).  Raises
    :class:`VacuousChoiceError` when either side has fewer than ell
    indices.
    """
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    if matrix.rows < ell or matrix.cols < ell:
        raise VacuousChoiceError(
            f"need at least {ell} rows and columns, have {matrix.rows} x {matrix.cols}")
    value, row_idx, col_idx = kernels.min_grid_sum_bucket(
        matrix.entries, matrix.rows, matrix.cols, ell, False, 0, matrix.rows - ell + 1)
    return value, WitnessTuple(row_idx, col_idx, value)


def check_weak_cross(pair: FamilyPair, params: WeakCrossParams) -> CrossVerdict:
    """Decide whether the pair is ell-weakly cross t-intersecting.

    Vacuous when either family has fewer than ell blocks; otherwise the
    exact minimal grid sum is compared against the threshold, and a
    violation carries the lexicographically least witness grid.
    """
    if len(pair.left) < params.ell or len(pair.right) < params.ell:
        return CrossVerdict(VACUOUS, params.threshold, None, None)
    matrix = intersection_matrix(pair)
    value, witness = min_grid_sum(matrix, params.ell)
    if value >= params.threshold:
        return CrossVerdict(SATISFIED, params.threshold, value, None)
    return CrossVerdict(VIOLATED, params.threshold, value, witness)


def check_weak_single(family: Family, ell: int) -> SingleVerdict:
    """Decide the single-family condition with threshold C(ell-1, 2) + 1.

    Minimises the sum of pairwise intersection sizes over all ell-subsets
    of the family.  Vacuous when ell < 2 or the family has fewer than
    ell blocks.

    Depth-first over (ell - 1)-prefixes in lex order.  Sums only grow
    with depth, so an inner node is cut once its sum reaches the best.
    Each (ell - 1)-prefix carries the column sums of its blocks' rows of
    the intersection matrix, so its last pick is one ``min`` over the
    columns after its last index, and ``list.index`` gives the first,
    lex-least, block attaining it; it wins only strictly below the best,
    so a tie keeps the lex-least witness.  Every pair meets in at least
    the least pairwise intersection, so no ell-subset sums below C(ell, 2)
    times it, and the walk stops once the best reaches that floor: a
    later subset could at best tie, with a lex-larger witness, so the
    full walk would return the same.  On a star of 3-sets through one
    point it stops at the first ell blocks that pairwise meet in that
    point alone.
    """
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    threshold = binomial(ell - 1, 2) + 1
    if ell < 2 or len(family) < ell:
        return SingleVerdict(VACUOUS, threshold, None, None)
    m = len(family)
    gram = intersection_matrix(FamilyPair(family, family)).entries
    floor = binomial(ell, 2) * min(min(row[i + 1:]) for i, row in enumerate(gram[:-1]))
    best_sum: int | None = None
    best_sel: tuple[int, ...] | None = None
    # An explicit stack, so ell is not limited by the recursion limit: the
    # node holding indices ``chosen`` has pairwise sum ``accs[-1]`` and
    # column sums ``cols[-1]`` (entry c is what c adds to it), and visits
    # its children i, i + 1, ... in turn; on running out it is left by
    # popping its last index.
    chosen: list[int] = []
    accs = [0]
    cols = [[0] * m]
    i = 0
    while True:
        depth = len(chosen)
        if depth == ell - 1:
            tail = cols[-1][i:]
            least = min(tail)
            if best_sum is None or accs[-1] + least < best_sum:
                best_sum, best_sel = accs[-1] + least, (*chosen, i + tail.index(least))
                if best_sum <= floor:
                    break
        elif i <= m - ell + depth:
            acc = accs[-1] + cols[-1][i]
            i += 1
            if best_sum is None or acc < best_sum:
                chosen.append(i - 1)
                accs.append(acc)
                cols.append(list(map(add, cols[-1], gram[i - 1])))
            continue
        if not chosen:
            break
        i = chosen.pop() + 1
        accs.pop()
        cols.pop()
    if best_sel is None:
        raise AssertionError("no ell-subset was enumerated")
    if best_sum >= threshold:
        return SingleVerdict(SATISFIED, threshold, best_sum, None)
    return SingleVerdict(VIOLATED, threshold, best_sum, best_sel)
