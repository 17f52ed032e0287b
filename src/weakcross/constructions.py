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
As everywhere in the package, a block (a core, the extra block U, each
member of a family) is an int mask: bit i-1 encodes element i.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from itertools import combinations

from .families import (
    Family,
    FamilyPair,
    GroundSet,
    all_masks,
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


def checked_block(ground: GroundSet, mask: int) -> int:
    """``mask`` itself, once it is known to be a nonempty subset of ``ground``."""
    if mask <= 0:
        raise ValueError("a block must be nonempty")
    if mask & ~ground.full_mask:
        raise ValueError("block mask has bits outside the ground set")
    return mask


@dataclass(frozen=True)
class StarSpec:
    """All k-blocks of the ground set containing the core mask."""

    ground: GroundSet
    k: int
    core: int

    def __post_init__(self):
        t = checked_block(self.ground, self.core).bit_count()
        if not t <= self.k <= self.ground.n:
            raise ValueError(
                f"need |core| <= k <= n, got |core|={t}, k={self.k}, n={self.ground.n}")

    @classmethod
    def default(cls, n: int, k: int, t: int) -> "StarSpec":
        """Core {1, ..., t}."""
        return cls(GroundSet(n), k, mask_from_elements(n, range(1, t + 1)))


def make_star(spec: StarSpec) -> Family:
    """The star of ``spec``: size C(n - t, k - t) where t = |core|."""
    n, core = spec.ground.n, spec.core
    t = core.bit_count()
    others = [e for e in spec.ground.elements() if not core >> (e - 1) & 1]
    masks = [core | mask_from_elements(n, extra) for extra in combinations(others, spec.k - t)]
    family = Family.from_masks(spec.ground, spec.k, masks)
    if len(family) != binomial(n - t, spec.k - t):
        raise AssertionError(f"star has {len(family)} blocks, not C(n - |core|, k - |core|)")
    return family


@dataclass(frozen=True)
class TightPairSpec:
    """A star pair on core mask T plus one extra right block mask U with |T ^ U| = t - 1."""

    ground: GroundSet
    k: int
    kprime: int
    core: int
    extra: int

    def __post_init__(self):
        t = checked_block(self.ground, self.core).bit_count()
        size = checked_block(self.ground, self.extra).bit_count()
        if not t <= min(self.k, self.kprime):
            raise ValueError(f"core size {t} exceeds a block size")
        if size != self.kprime:
            raise ValueError(f"extra block has size {size}, expected {self.kprime}")
        overlap = (self.core & self.extra).bit_count()
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
        # An empty core (t < 1) is reported before the extra block's size.
        core = checked_block(ground, mask_from_elements(n, range(1, t + 1)))
        # U is sized from k' - t, so a core larger than a block is reported
        # before U is built.
        if not t <= min(k, kprime):
            raise ValueError(f"core size {t} exceeds a block size")
        extra_elems = list(range(1, t)) + list(range(t + 1, t + 1 + (kprime - t + 1)))
        if extra_elems[-1] > n:
            raise ValueError(
                f"ground set of size {n} too small for the default extra block")
        return cls(ground, k, kprime, core, mask_from_elements(n, extra_elems))


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
        spec.ground, spec.kprime, right_star.masks + (spec.extra,))
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
    return Family(ground, k, tuple(m for m in all_masks(ground.n, k) if m & cover_mask))


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
