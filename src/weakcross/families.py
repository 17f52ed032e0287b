"""Ground sets, blocks, and uniform set families over [n].

Blocks are subsets of [n] = {1, ..., n} stored as single machine-word
bit masks (bit i-1 encodes element i), so an intersection size is one
AND plus a popcount.  The ground set is capped at 64 elements to keep
that true.  Families are duplicate-free and uniform (all blocks the same
size).  A family holds its blocks as one tuple of int masks in canonical
order, ascending mask value; :class:`Block` values are built from it
only on demand (``blocks``, iteration, indexing).  Everything is
immutable after construction.

The ``.fam`` text format read by :func:`parse_family` and written by
:func:`serialize_family` is UTF-8 text; other bytes are a parse error
on the line of the first bad byte (exit 64 in the CLI):

* header line ``"n k"`` (two integers, one space),
* one block per further line: k strictly increasing elements of [1, n],
  separated by whitespace,
* blank lines and lines starting with ``#`` are ignored.

Blocks may appear in any order in a file; parsing canonicalizes, so any
permutation of the same block set parses to the same `Family` value.
Duplicate blocks are a hard error, never silently merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

MAX_GROUND = 64

__all__ = [
    "MAX_GROUND",
    "GroundSet",
    "Block",
    "Family",
    "FamilyPair",
    "GroundMismatchError",
    "InstanceTooLargeError",
    "FamilyParseError",
    "MalformedHeaderError",
    "MalformedBlockError",
    "ElementOutOfRangeError",
    "BlockSizeError",
    "DuplicateBlockError",
    "all_masks",
    "binomial",
    "intersection_size",
    "mask_from_elements",
    "elements_from_mask",
    "parse_family",
    "serialize_family",
]


class GroundMismatchError(ValueError):
    """Raised when two values live over different ground sets."""


class InstanceTooLargeError(ValueError):
    """Raised when an exhaustive routine is asked to exceed its desk-scale guard."""


class FamilyParseError(ValueError):
    """Base class for ``.fam`` parse failures; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedHeaderError(FamilyParseError):
    """Header line is missing or is not ``"n k"`` with valid bounds."""


class MalformedBlockError(FamilyParseError):
    """Block line is not a strictly increasing list of integers."""


class ElementOutOfRangeError(FamilyParseError):
    """Block line mentions an element outside [1, n]."""


class BlockSizeError(FamilyParseError):
    """Block line does not list exactly k elements."""


class DuplicateBlockError(FamilyParseError):
    """The same block appears twice in one file."""


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k > n, error on negative input."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial expects nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def mask_from_elements(n: int, elements: Iterable[int]) -> int:
    """Pack 1-based elements of [1, n] into a bit mask; rejects repeats."""
    mask = 0
    for e in elements:
        e = int(e)
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside [1, {n}]")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"repeated element {e}")
        mask |= bit
    return mask


def all_masks(n: int, k: int) -> list[int]:
    """Every k-subset of [n] as a mask, in ascending mask order."""
    return sorted(mask_from_elements(n, c) for c in combinations(range(1, n + 1), k))


def elements_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a bit mask into its sorted 1-based elements."""
    out = []
    m = mask
    while m:
        low = m & -m
        out.append(low.bit_length())
        m ^= low
    return tuple(out)


@dataclass(frozen=True)
class GroundSet:
    """The ground set [n] = {1, ..., n}, 1 <= n <= 64."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground set size must be in [1, {MAX_GROUND}], got {self.n}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def elements(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class Block:
    """A nonempty subset of a ground set, stored as a bit mask."""

    ground: GroundSet
    bits: int
    k: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.bits <= 0:
            raise ValueError("a block must be nonempty")
        if self.bits & ~self.ground.full_mask:
            raise ValueError("block mask has bits outside the ground set")
        object.__setattr__(self, "k", self.bits.bit_count())

    @classmethod
    def from_elements(cls, ground: GroundSet, elements: Iterable[int]) -> "Block":
        return cls(ground, mask_from_elements(ground.n, elements))

    @property
    def elements(self) -> tuple[int, ...]:
        return elements_from_mask(self.bits)

    def __repr__(self) -> str:
        return f"Block{set(self.elements) or '{}'}"


def intersection_size(a: Block, b: Block) -> int:
    """|A intersect B| for two blocks over the same ground set."""
    if a.ground != b.ground:
        raise GroundMismatchError("blocks live over different ground sets")
    return (a.bits & b.bits).bit_count()


@dataclass(frozen=True)
class Family:
    """A k-uniform, duplicate-free family: its block masks, ascending.

    ``blocks``, iteration and indexing build :class:`Block` values on
    demand.  The empty family is legal; ``k`` still records the intended
    block size.
    """

    ground: GroundSet
    k: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.k <= self.ground.n:
            raise ValueError(f"block size {self.k} outside [1, {self.ground.n}]")
        prev = 0
        for mask in self.masks:
            if mask & ~self.ground.full_mask:
                raise ValueError("block mask has bits outside the ground set")
            if mask.bit_count() != self.k:
                raise ValueError(f"block {set(elements_from_mask(mask))} has size "
                                 f"{mask.bit_count()}, expected {self.k}")
            if mask == prev:
                raise ValueError(f"duplicate block {set(elements_from_mask(mask))}")
            if mask < prev:
                raise ValueError("family blocks must be strictly ascending by mask value")
            prev = mask

    @classmethod
    def from_masks(cls, ground: GroundSet, k: int, masks: Iterable[int]) -> "Family":
        return cls(ground, k, tuple(sorted(int(m) for m in masks)))

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "Family":
        ground = GroundSet(n)
        return cls.from_masks(ground, k, (mask_from_elements(n, s) for s in sets))

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self)

    def drop(self, index: int) -> "Family":
        """The family with the block at ``index`` removed."""
        return Family(self.ground, self.k, self.masks[:index] + self.masks[index + 1:])

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Block]:
        return (Block(self.ground, m) for m in self.masks)

    def __getitem__(self, index: int) -> Block:
        return Block(self.ground, self.masks[index])


@dataclass(frozen=True)
class FamilyPair:
    """A left/right pair of families over one shared ground set."""

    left: Family
    right: Family

    def __post_init__(self):
        if self.left.ground != self.right.ground:
            raise GroundMismatchError("pair members live over different ground sets")


def parse_family(data: str | bytes) -> Family:
    """Parse a ``.fam`` byte or text stream into a canonical Family."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FamilyParseError(
                f"byte {data[exc.start]:#04x} is not valid UTF-8",
                data.count(b"\n", 0, exc.start) + 1) from None
    header: tuple[int, int] | None = None
    # Each block's mask, keyed to the line that gave it.
    seen: dict[int, int] = {}
    last_line = 0
    for lineno, raw in enumerate(data.split("\n"), 1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split(" ")
            if len(parts) != 2:
                raise MalformedHeaderError(f"expected header 'n k', got {line!r}", lineno)
            try:
                n, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedHeaderError(f"expected header 'n k', got {line!r}", lineno) from None
            if not 1 <= n <= MAX_GROUND:
                raise MalformedHeaderError(f"ground set size {n} outside [1, {MAX_GROUND}]", lineno)
            if not 1 <= k <= n:
                raise MalformedHeaderError(f"block size {k} outside [1, {n}]", lineno)
            header = (n, k)
            continue
        n, k = header
        try:
            elems = [int(tok) for tok in line.split()]
        except ValueError:
            raise MalformedBlockError(f"non-integer token in {line!r}", lineno) from None
        if len(elems) != k:
            raise BlockSizeError(f"expected {k} elements, got {len(elems)}", lineno)
        mask = 0
        for e in elems:
            if not 1 <= e <= n:
                raise ElementOutOfRangeError(f"element {e} outside [1, {n}]", lineno)
            mask |= 1 << (e - 1)
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise MalformedBlockError("elements must be strictly increasing", lineno)
        if mask in seen:
            raise DuplicateBlockError(
                f"block {elems} already given on line {seen[mask]}", lineno)
        seen[mask] = lineno
    if header is None:
        raise MalformedHeaderError("missing header line 'n k'", last_line)
    n, k = header
    return Family(GroundSet(n), k, tuple(sorted(seen)))


def serialize_family(family: Family) -> str:
    """Render a family in canonical ``.fam`` form (round-trips with parse)."""
    lines = [f"{family.ground.n} {family.k}"]
    for mask in family.masks:
        lines.append(" ".join(map(str, elements_from_mask(mask))))
    return "\n".join(lines) + "\n"
