"""Reference constructions: stars, tight pairs, sunflowers, coverings.

A star is every k-block containing a fixed core T; a pair of stars on a
common core of size t is the canonical extremal pair for the weak
cross-intersection condition, with product C(n-t, k-t) * C(n-t, k'-t).
The tight pair adjoins to the right star one extra block U with
|T intersect U| = t - 1; for a large enough ground set the pair then
misses the threshold by exactly one, showing the product bound cannot
be raised.  The covering construction (all k-blocks meeting a fixed
(ell-1)-set) realises the matching-free maximum counted by
``erdos_bound``.

Cores and petals default to the low end of [n]; explicit element
choices are accepted everywhere so isomorphic variants can be built.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from itertools import combinations

from .families import (
    Block,
    Family,
    FamilyPair,
    GroundSet,
    binomial,
    mask_from_elements,
)

__all__ = [
    "StarSpec",
    "TightPairSpec",
    "make_star",
    "make_tight_pair",
    "make_sunflower",
    "make_covering",
    "random_family",
]


@dataclass(frozen=True)
class StarSpec:
    """All k-blocks of the ground set containing the core."""

    ground: GroundSet
    k: int
    core: Block

    def __post_init__(self):
        if self.core.ground != self.ground:
            raise ValueError("core lives over a different ground set")
        if not self.core.k <= self.k <= self.ground.n:
            raise ValueError(
                f"need |core| <= k <= n, got |core|={self.core.k}, "
                f"k={self.k}, n={self.ground.n}")

    @classmethod
    def default(cls, n: int, k: int, t: int) -> "StarSpec":
        """Core {1, ..., t}."""
        ground = GroundSet(n)
        return cls(ground, k, Block.from_elements(ground, range(1, t + 1)))


def make_star(spec: StarSpec) -> Family:
    """The star of ``spec``: size C(n - t, k - t) where t = |core|."""
    n = spec.ground.n
    others = [e for e in spec.ground.elements() if e not in set(spec.core.elements)]
    masks = []
    for extra in combinations(others, spec.k - spec.core.k):
        masks.append(spec.core.bits | mask_from_elements(n, extra))
    family = Family.from_masks(spec.ground, spec.k, masks)
    if len(family) != binomial(n - spec.core.k, spec.k - spec.core.k):
        raise AssertionError(f"star has {len(family)} blocks, not C(n - |core|, k - |core|)")
    return family


@dataclass(frozen=True)
class TightPairSpec:
    """A star pair on core T plus one extra right block U with |T ^ U| = t - 1."""

    ground: GroundSet
    k: int
    kprime: int
    core: Block
    extra: Block

    def __post_init__(self):
        if self.core.ground != self.ground or self.extra.ground != self.ground:
            raise ValueError("core or extra block over a different ground set")
        t = self.core.k
        if not t <= min(self.k, self.kprime):
            raise ValueError(f"core size {t} exceeds a block size")
        if self.extra.k != self.kprime:
            raise ValueError(
                f"extra block has size {self.extra.k}, expected {self.kprime}")
        overlap = (self.core.bits & self.extra.bits).bit_count()
        if overlap >= t:
            raise ValueError(
                "extra block must meet the core in exactly t - 1 elements, "
                "but it contains the whole core")
        if overlap != t - 1:
            raise ValueError(
                f"extra block meets the core in {overlap} elements, need {t - 1}")

    @classmethod
    def default(cls, n: int, k: int, kprime: int, t: int) -> "TightPairSpec":
        """T = {1..t}; U drops T's largest element and adds the smallest fresh ones."""
        ground = GroundSet(n)
        core = Block.from_elements(ground, range(1, t + 1))
        extra_elems = list(range(1, t)) + list(range(t + 1, t + 1 + (kprime - t + 1)))
        if extra_elems[-1] > n:
            raise ValueError(
                f"ground set of size {n} too small for the default extra block")
        return cls(ground, k, kprime, core, Block.from_elements(ground, extra_elems))


def make_tight_pair(spec: TightPairSpec, ell: int | None = None) -> FamilyPair:
    """The tightness pair: left star on T, right star on T plus the block U.

    Sizes are C(n-t, k-t) and C(n-t, k'-t) + 1.  When ``ell`` is given
    and n < k + k' + ell * max(k, k'), a warning notes that the ground
    set may be too small for the pair to violate the threshold by
    exactly one.
    """
    if ell is not None:
        if ell < 1:
            raise ValueError(f"ell must be at least 1, got {ell}")
        safe = spec.k + spec.kprime + ell * max(spec.k, spec.kprime)
        if spec.ground.n < safe:
            warnings.warn(
                f"ground set size {spec.ground.n} is below {safe}; the tight "
                "pair may not achieve its extremal grid sum", stacklevel=2)
    left = make_star(StarSpec(spec.ground, spec.k, spec.core))
    right_star = make_star(StarSpec(spec.ground, spec.kprime, spec.core))
    right = Family.from_masks(
        spec.ground, spec.kprime, right_star.masks + (spec.extra.bits,))
    return FamilyPair(left, right)


def make_sunflower(ground: GroundSet, k: int, t: int, u: int) -> Family:
    """A k-uniform sunflower: kernel {1..t} and u packed disjoint petals.

    Petal i occupies {t + (i-1)(k-t) + 1, ..., t + i(k-t)}; requires
    t + u(k-t) <= n.  t = 0 (pairwise disjoint members) is allowed.
    """
    if not 0 <= t < k:
        raise ValueError(f"need 0 <= t < k, got t={t}, k={k}")
    if u < 1:
        raise ValueError(f"need at least one petal, got {u}")
    if t + u * (k - t) > ground.n:
        raise ValueError(
            f"ground set of size {ground.n} cannot hold kernel {t} plus "
            f"{u} disjoint petals of size {k - t}")
    kernel = list(range(1, t + 1))
    masks = []
    for i in range(1, u + 1):
        petal = range(t + (i - 1) * (k - t) + 1, t + i * (k - t) + 1)
        masks.append(mask_from_elements(ground.n, kernel + list(petal)))
    return Family.from_masks(ground, k, masks)


def make_covering(ground: GroundSet, k: int, ell: int) -> Family:
    """All k-blocks meeting {1, ..., ell-1}; empty when ell = 1.

    Has no ell pairwise disjoint members and size
    C(n, k) - C(n - ell + 1, k), matching ``erdos_bound``.
    """
    if not 1 <= k <= ground.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={ground.n}")
    if ell < 1:
        raise ValueError(f"ell must be at least 1, got {ell}")
    if ell - 1 > ground.n:
        raise ValueError(f"ell - 1 = {ell - 1} exceeds the ground set size")
    cover_mask = mask_from_elements(ground.n, range(1, ell))
    masks = []
    for combo in combinations(ground.elements(), k):
        mask = mask_from_elements(ground.n, combo)
        if mask & cover_mask:
            masks.append(mask)
    return Family.from_masks(ground, k, masks)


def random_family(ground: GroundSet, k: int, size: int,
                  rng: random.Random) -> Family:
    """``size`` distinct k-blocks drawn uniformly, reproducible from ``rng``."""
    if not 1 <= k <= ground.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={ground.n}")
    total = binomial(ground.n, k)
    if size < 0 or size > total:
        raise ValueError(f"cannot draw {size} distinct blocks from {total}")
    if total <= 50000:
        universe = [mask_from_elements(ground.n, c)
                    for c in combinations(ground.elements(), k)]
        masks = rng.sample(universe, size)
    else:
        seen: set[int] = set()
        while len(seen) < size:
            seen.add(mask_from_elements(ground.n, rng.sample(range(1, ground.n + 1), k)))
        masks = list(seen)
    return Family.from_masks(ground, k, masks)
