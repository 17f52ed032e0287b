"""Constructive refutation and covering tools for family pairs.

:func:`refute_with_sunflower` turns a large sunflower on the left side
into an explicit witness that the pair is not ell-weakly cross
t-intersecting: picking ell right blocks (kernel-containing ones first,
then one that avoids the kernel) and discarding the few sunflower
members whose petals meet them leaves ell members whose grid sum
against the chosen right blocks is at most ell^2*t - ell, one below
the threshold.  The full staged computation is returned as a trace.

:func:`cover_by_cores` decomposes the right family relative to ell
chosen left blocks: every right block either intersects some chosen
left block in at least t points, and is then covered by the subfamily
over one of the t-element cores of that left block, or it lands in the
exceptional set E.  When the pair satisfies the condition, E has fewer
than ell members, since ell blocks of E would make a grid with sum at
most ell^2*(t-1), below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .analysis import WeakCrossParams, WitnessTuple
from .families import FamilyPair, elements_from_mask, mask_from_elements
from .structures import Sunflower, validate_sunflower

__all__ = [
    "RefutationTrace",
    "CoverDecomposition",
    "refute_with_sunflower",
    "cover_by_cores",
]


@dataclass(frozen=True)
class RefutationTrace:
    """Every stage of the sunflower refutation.

    ``right_indices`` lists the chosen right blocks with the
    kernel-containing ones (h of them) first; ``stage0`` holds the
    sunflower members, ``stage1`` the survivors after discarding members
    whose petals meet a chosen kernel-containing block outside the
    kernel, and ``stage2`` the survivors after also discarding members
    whose petals meet a chosen kernel-avoiding block at all.
    """

    kernel: tuple[int, ...]
    right_indices: tuple[int, ...]
    d: int
    h: int
    stage0: tuple[int, ...]
    stage1: tuple[int, ...]
    stage2: tuple[int, ...]
    witness: WitnessTuple

    def to_json_dict(self) -> dict:
        return {
            "kernel": list(self.kernel),
            "right_indices": list(self.right_indices),
            "d": self.d,
            "h": self.h,
            "stage0": list(self.stage0),
            "stage1": list(self.stage1),
            "stage2": list(self.stage2),
            "witness": {
                "rows": list(self.witness.row_indices),
                "cols": list(self.witness.col_indices),
                "sum": self.witness.achieved_sum,
            },
        }


@dataclass(frozen=True)
class CoverDecomposition:
    """Right family split into core subfamilies and an exceptional set."""

    left_indices: tuple[int, ...]
    exceptional: tuple[int, ...]
    parts: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def parts_dict(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(self.parts)

    def covered_indices(self) -> set[int]:
        out = set(self.exceptional)
        for _core, members in self.parts:
            out.update(members)
        return out

    def to_json_dict(self) -> dict:
        return {
            "left_indices": list(self.left_indices),
            "exceptional": list(self.exceptional),
            "parts": [
                {"core": list(core), "members": list(members)}
                for core, members in self.parts
            ],
        }


def refute_with_sunflower(pair: FamilyPair, flower: Sunflower,
                          params: WeakCrossParams) -> RefutationTrace:
    """A violation witness from a sunflower with (1 + k') * ell petals.

    Preconditions (each failure names the violated hypothesis): the
    sunflower is valid in the left family with kernel size t and at
    least (1 + k') * ell petals, the right family has at least ell
    blocks, and some right block does not contain the kernel.  The
    returned witness grid achieves a sum of at most ell^2*t - ell.
    """
    left, right = pair.left, pair.right
    ell, t = params.ell, params.t
    validate_sunflower(left, flower)
    if len(flower.kernel) != t:
        raise ValueError(
            f"hypothesis failed: sunflower kernel has size {len(flower.kernel)}, "
            f"need exactly t = {t}")
    needed = (1 + right.k) * ell
    if flower.petal_count < needed:
        raise ValueError(
            f"hypothesis failed: sunflower has {flower.petal_count} petals, "
            f"need at least (1 + k') * ell = {needed}")
    if len(right) < ell:
        raise ValueError(
            f"hypothesis failed: right family has {len(right)} blocks, "
            f"need at least ell = {ell}")
    kernel_mask = mask_from_elements(left.ground.n, flower.kernel)
    containing = [j for j, b in enumerate(right.masks)
                  if b & kernel_mask == kernel_mask]
    avoiding = [j for j, b in enumerate(right.masks)
                if b & kernel_mask != kernel_mask]
    if not avoiding:
        raise ValueError(
            "hypothesis failed: every right block contains the sunflower "
            "kernel, but one avoiding block is required")
    d = len(containing)
    h = min(d, ell - 1)
    chosen = containing[:h] + avoiding[:ell - h]

    stage0 = list(flower.member_indices)
    # Stage 1: drop members whose petal meets a chosen kernel-containing
    # block outside the kernel.  Each such block has k' - t elements
    # beyond the kernel and each hits at most one petal.
    strip = 0
    for j in chosen[:h]:
        strip |= right.masks[j] & ~kernel_mask
    stage1 = [i for i in stage0 if left.masks[i] & strip == 0]
    # Stage 2: drop members whose petal meets a chosen kernel-avoiding
    # block at all; each such block hits at most k' petals.
    avoid_union = 0
    for j in chosen[h:]:
        avoid_union |= right.masks[j]
    stage2 = [i for i in stage1 if (left.masks[i] & ~kernel_mask) & avoid_union == 0]

    if len(stage1) < flower.petal_count - h * (right.k - t):
        raise AssertionError(f"stage 1 kept {len(stage1)} petals, fewer than the proof allows")
    if len(stage2) < len(stage1) - (ell - h) * right.k:
        raise AssertionError(f"stage 2 kept {len(stage2)} petals, fewer than the proof allows")
    if len(stage2) < ell + h * t:
        raise AssertionError(f"stage 2 kept {len(stage2)} petals, fewer than ell + h * t")

    rows = tuple(stage2[:ell])
    cols = tuple(sorted(chosen))
    achieved = sum((left.masks[i] & right.masks[j]).bit_count()
                   for i in rows for j in cols)
    if achieved > ell * ell * t - ell:
        raise AssertionError(f"refutation witness sums to {achieved}, not below the threshold")
    witness = WitnessTuple(rows, cols, achieved)
    return RefutationTrace(
        kernel=flower.kernel,
        right_indices=tuple(chosen),
        d=d,
        h=h,
        stage0=tuple(stage0),
        stage1=tuple(stage1),
        stage2=tuple(stage2),
        witness=witness,
    )


def cover_by_cores(pair: FamilyPair, left_indices: tuple[int, ...] | list[int],
                   t: int) -> CoverDecomposition:
    """Cover the right family by t-element cores of chosen left blocks.

    For each chosen left block F_i and each t-subset A of F_i, the part
    keyed by A holds the right blocks containing A.  Right blocks
    intersecting every chosen F_i in at most t - 1 points form the
    exceptional set.  Together these cover the whole right family.
    """
    left, right = pair.left, pair.right
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    idx = tuple(left_indices)
    if len(set(idx)) != len(idx):
        raise ValueError("left indices must be distinct")
    for i in idx:
        if not 0 <= i < len(left):
            raise ValueError(f"left index {i} outside the family")
    if t > left.k:
        raise ValueError(f"t = {t} exceeds the left block size {left.k}")

    exceptional = [
        j for j, b in enumerate(right.masks)
        if all((left.masks[i] & b).bit_count() <= t - 1 for i in idx)
    ]
    parts: dict[tuple[int, ...], list[int]] = {}
    n = left.ground.n
    for i in idx:
        for core in combinations(elements_from_mask(left.masks[i]), t):
            if core in parts:
                continue
            core_mask = mask_from_elements(n, core)
            parts[core] = [j for j, b in enumerate(right.masks)
                           if b & core_mask == core_mask]
    ordered = tuple(sorted((core, tuple(members)) for core, members in parts.items()))
    return CoverDecomposition(
        left_indices=idx,
        exceptional=tuple(exceptional),
        parts=ordered,
    )
