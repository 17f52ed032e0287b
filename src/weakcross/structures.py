"""Sunflowers, matchings, and the matching-free maximum at desk scale.

A sunflower with kernel K in a k-uniform family is a set of members
whose pairwise intersections all equal K exactly; the petals (members
minus kernel) are then pairwise disjoint.  A matching is a set of
pairwise disjoint members; nu(F) denotes the largest one.  The largest
k-uniform family on [n] with no matching of size ell is, for n large
enough, all blocks meeting a fixed (ell-1)-set, of size
C(n, k) - C(n - ell + 1, k); :func:`max_family_no_matching` recomputes
that maximum exhaustively on small instances.

Every returned certificate is re-validated from scratch before it is
handed back, independently of how the search found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import kernels
from .families import (
    Family,
    InstanceTooLargeError,
    GroundSet,
    all_masks,
    binomial,
    elements_from_mask,
    mask_from_elements,
)

__all__ = [
    "Sunflower",
    "MatchingCertificate",
    "find_sunflower",
    "validate_sunflower",
    "matching_number",
    "erdos_bound",
    "max_family_no_matching",
]

MAX_NO_MATCHING_BLOCKS = 24


@dataclass(frozen=True)
class Sunflower:
    """A kernel, the family indices of the members, and the petal count."""

    kernel: tuple[int, ...]
    member_indices: tuple[int, ...]
    petal_count: int

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.kernel, self.kernel[1:])):
            raise ValueError("kernel elements must be strictly increasing")
        if any(a >= b for a, b in zip(self.member_indices, self.member_indices[1:])):
            raise ValueError("member indices must be strictly increasing")
        if self.petal_count != len(self.member_indices):
            raise ValueError("petal count must equal the number of members")

    def to_json_dict(self) -> dict:
        return {
            "kernel": list(self.kernel),
            "members": list(self.member_indices),
            "petals": self.petal_count,
        }


@dataclass(frozen=True)
class MatchingCertificate:
    """Indices of pairwise disjoint family members."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("certificate indices must be strictly increasing")


def validate_sunflower(family: Family, flower: Sunflower) -> None:
    """Check a sunflower against its family from first principles.

    Verifies index bounds, kernel containment, and that every pairwise
    member intersection equals the kernel exactly.  Raises ValueError
    on any failure.  This is deliberately a direct quadratic re-check,
    independent of how the sunflower was found.
    """
    n = family.ground.n
    for e in flower.kernel:
        if not 1 <= e <= n:
            raise ValueError(f"kernel element {e} outside [1, {n}]")
    kernel_mask = mask_from_elements(n, flower.kernel)
    members = []
    for idx in flower.member_indices:
        if not 0 <= idx < len(family):
            raise ValueError(f"member index {idx} outside the family")
        members.append(family.masks[idx])
    for b in members:
        if b & kernel_mask != kernel_mask:
            raise ValueError("a member does not contain the kernel")
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if members[i] & members[j] != kernel_mask:
                raise ValueError("two members intersect outside the kernel")


def find_sunflower(family: Family, t: int, r: int) -> Sunflower | None:
    """A sunflower with a kernel of size t and at least r petals, if any.

    Kernels of size t are tried in increasing lexicographic order of
    their element tuples; for the first kernel admitting r petals the
    maximum petal set is returned, lex-least among those attaining it.
    Returns None when no such sunflower exists.
    """
    if not 1 <= t < family.k:
        raise ValueError(
            f"kernel size must satisfy 1 <= t < k = {family.k}, got {t} "
            "(members of a k-uniform family cannot intersect in k points "
            "without being equal)")
    if r < 1:
        raise ValueError(f"petal count must be at least 1, got {r}")
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, mask in enumerate(family.masks):
        for kernel in combinations(elements_from_mask(mask), t):
            groups.setdefault(kernel, []).append(idx)
    for kernel in sorted(groups):
        indices = groups[kernel]
        if len(indices) < r:
            continue
        kernel_mask = mask_from_elements(family.ground.n, kernel)
        residuals = [family.masks[i] & ~kernel_mask for i in indices]
        size, sel = kernels.max_disjoint(residuals)
        if size >= r:
            flower = Sunflower(
                kernel=kernel,
                member_indices=tuple(indices[p] for p in sel),
                petal_count=size,
            )
            validate_sunflower(family, flower)
            return flower
    return None


def matching_number(family: Family) -> tuple[int, MatchingCertificate]:
    """nu(F) with a lex-least maximum matching as certificate."""
    size, sel = kernels.max_disjoint(list(family.masks))
    cert = MatchingCertificate(indices=sel)
    union = 0
    for idx in sel:
        mask = family.masks[idx]
        if union & mask:
            raise AssertionError("matching certificate is not pairwise disjoint")
        union |= mask
    return size, cert


def erdos_bound(n: int, k: int, ell: int) -> int:
    """C(n, k) - C(n - ell + 1, k): the size of all k-blocks meeting [ell-1].

    For n large relative to k and ell this is the exact maximum size of
    a k-uniform family on [n] with no ell pairwise disjoint members.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    rest = n - ell + 1
    return binomial(n, k) - (binomial(rest, k) if rest >= 0 else 0)


def max_family_no_matching(n: int, k: int, ell: int,
                           force: bool = False) -> tuple[int, Family]:
    """Exhaustive maximum size of a k-uniform family on [n] with nu < ell.

    Branch and bound over all C(n, k) blocks in canonical order; the
    witness is the lexicographically least family attaining the
    maximum.  Guarded to C(n, k) <= 24 unless ``force`` is set.
    """
    # Blocks meeting a fixed (ell-1)-set always have nu < ell, so their
    # count is attainable and seeds the incumbent without a witness.
    # erdos_bound also checks k and ell.
    seed = erdos_bound(n, k, ell) - 1
    total = binomial(n, k)
    if total > MAX_NO_MATCHING_BLOCKS and not force:
        raise InstanceTooLargeError(
            f"C({n}, {k}) = {total} exceeds the desk-scale guard of "
            f"{MAX_NO_MATCHING_BLOCKS} blocks; pass force=True to run anyway")
    ground = GroundSet(n)
    masks = all_masks(n, k)
    best, sel, _nodes = kernels.max_family_no_matching_bb(masks, ell, seed)
    witness = Family.from_masks(ground, k, (masks[i] for i in sel))
    nu, _cert = matching_number(witness)
    if nu >= ell:
        raise AssertionError("witness family contains a forbidden matching")
    return best, witness
