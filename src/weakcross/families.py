"""Ground sets, blocks, and uniform set families over [n].

Blocks are subsets of [n] = {1, ..., n} stored as single machine-word
bit masks (bit i-1 encodes element i), so an intersection size is one
AND plus a popcount.  The ground set is capped at 64 elements to keep
that true.  Families are duplicate-free and uniform (all blocks the same
size).  A block is an int mask everywhere: a family holds its blocks as
one tuple of masks in canonical order, ascending mask value, and is read
through ``family.masks`` and ``len(family)``; :func:`elements_from_mask`
turns a mask back into its elements.  Everything is immutable after
construction.

The ``.fam`` text format read by :func:`parse_family` and written by
:func:`serialize_family` is UTF-8 text; other bytes are a parse error
on the line of the first bad byte (exit 64 in the CLI):

* header line ``"n k"``: two integers and one space between them,
* one block per further line: k strictly increasing elements of [1, n],
  separated by whitespace,
* blank lines and lines starting with ``#`` are ignored.

Every integer in the file follows :func:`integer`'s rule.

Blocks may appear in any order in a file; parsing canonicalizes, so any
permutation of the same block set parses to the same `Family` value.
Duplicate blocks are a hard error, never silently merged.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import combinations
from operator import attrgetter

MAX_GROUND = 64

__all__ = [
    "MAX_GROUND",
    "GroundSet",
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
    "integer",
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


def integer(text: str) -> int:
    """Read an optional sign and ASCII digits, and nothing else.

    ``int()`` alone also takes ``1_0`` as 10, non-ASCII digits and
    surrounding whitespace.  ``.fam`` integers, the CLI's integer
    options and its element lists are all read by this rule.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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


class Record:
    """An immutable value, equal, hashed and shown by its fields.

    A subclass names its fields in ``__slots__``, in constructor order;
    its ``__init__`` checks the arguments and stores each field with
    ``object.__setattr__``.  After that, setting or deleting any
    attribute raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The field values, compared and hashed as one C-level tuple
        # (a lone field's value itself).
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSet(Record):
    """The ground set [n] = {1, ..., n}, 1 <= n <= 64."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size must be in [1, {MAX_GROUND}], got {n}")
        object.__setattr__(self, "n", n)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def elements(self) -> range:
        return range(1, self.n + 1)


class Family(Record):
    """A k-uniform, duplicate-free family: its block masks, ascending.

    ``masks`` and ``len()`` are how a family is read.  The empty family
    is legal; ``k`` still records the intended block size.
    """

    __slots__ = ("ground", "k", "masks")

    def __init__(self, ground: GroundSet, k: int, masks: tuple[int, ...]):
        if not 1 <= k <= ground.n:
            raise ValueError(f"block size {k} outside [1, {ground.n}]")
        outside = ~ground.full_mask
        prev = 0
        for mask in masks:
            if mask & outside:
                raise ValueError("block mask has bits outside the ground set")
            if mask.bit_count() != k:
                raise ValueError(f"block {set(elements_from_mask(mask))} has size "
                                 f"{mask.bit_count()}, expected {k}")
            if mask == prev:
                raise ValueError(f"duplicate block {set(elements_from_mask(mask))}")
            if mask < prev:
                raise ValueError("family blocks must be strictly ascending by mask value")
            prev = mask
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_masks(cls, ground: GroundSet, k: int, masks: Iterable[int]) -> "Family":
        return cls(ground, k, tuple(sorted(int(m) for m in masks)))

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "Family":
        ground = GroundSet(n)
        return cls.from_masks(ground, k, (mask_from_elements(n, s) for s in sets))

    def drop(self, index: int) -> "Family":
        """The family with the block at ``index`` removed."""
        return Family(self.ground, self.k, self.masks[:index] + self.masks[index + 1:])

    def __len__(self) -> int:
        return len(self.masks)


class FamilyPair(Record):
    """A left/right pair of families over one shared ground set."""

    __slots__ = ("left", "right")

    def __init__(self, left: Family, right: Family):
        if left.ground != right.ground:
            raise GroundMismatchError("pair members live over different ground sets")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


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
            try:
                n, k = map(integer, line.split(" "))
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
            # integer()'s rule for tokens without whitespace, checked once
            # per line: int() alone reads 1_0 and non-ASCII digits.
            if "_" in line or not line.isascii():
                raise ValueError
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
