"""Core representation: block masks, families, parsing, serialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from weakcross.families import (
    BlockSizeError,
    DuplicateBlockError,
    ElementOutOfRangeError,
    Family,
    FamilyPair,
    FamilyParseError,
    GroundMismatchError,
    GroundSet,
    MalformedBlockError,
    MalformedHeaderError,
    binomial,
    elements_from_mask,
    mask_from_elements,
    parse_family,
    serialize_family,
)


def test_binomial_values():
    assert binomial(10, 3) == 120
    assert binomial(5, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(64, 32) == 1832624140942590534


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_binomial_pascal_rule_exhaustive():
    for n in range(1, 41):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_mask_round_trip():
    assert elements_from_mask(mask_from_elements(10, [3, 1, 7])) == (1, 3, 7)
    assert mask_from_elements(4, []) == 0
    assert elements_from_mask(0) == ()


def test_mask_rejects_bad_elements():
    with pytest.raises(ValueError):
        mask_from_elements(5, [0])
    with pytest.raises(ValueError):
        mask_from_elements(5, [6])
    with pytest.raises(ValueError):
        mask_from_elements(5, [2, 2])


def test_ground_set_bounds():
    assert GroundSet(1).n == 1
    assert GroundSet(64).full_mask == (1 << 64) - 1
    with pytest.raises(ValueError):
        GroundSet(0)
    with pytest.raises(ValueError):
        GroundSet(65)


def test_family_canonical_order():
    f = Family.from_sets(5, 2, [(4, 5), (1, 2), (2, 3)])
    assert [elements_from_mask(m) for m in f.masks] == [(1, 2), (2, 3), (4, 5)]
    assert f.masks == tuple(sorted(f.masks))


def test_family_rejects_duplicates_and_mixed_sizes():
    with pytest.raises(ValueError):
        Family.from_sets(5, 2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Family.from_sets(5, 2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        Family.from_sets(5, 6, [])
    # A mask of the right size with a bit past n, and masks out of order.
    with pytest.raises(ValueError, match="^block mask has bits outside the ground set$"):
        Family(GroundSet(3), 2, (0b1001,))
    with pytest.raises(ValueError, match="^family blocks must be strictly ascending"):
        Family(GroundSet(5), 2, (0b110, 0b011))


def test_family_drop():
    f = Family.from_sets(5, 2, [(1, 2), (2, 3), (4, 5)])
    assert [elements_from_mask(m) for m in f.drop(1).masks] == [(1, 2), (4, 5)]


def test_family_public_surface():
    # A family is read through ``masks`` and ``len()`` only; blocks are
    # int masks, so there is no block view to keep in step with them.
    f = Family.from_sets(5, 2, [(1, 2), (4, 5)])
    public = {name for name in dir(f) if not name.startswith("_")}
    assert public == {"ground", "k", "masks", "from_masks", "from_sets", "drop"}
    assert len(f) == 2
    with pytest.raises(TypeError):
        iter(f)


def test_family_pair_ground_mismatch():
    f = Family.from_sets(5, 2, [(1, 2)])
    g = Family.from_sets(6, 2, [(1, 2)])
    with pytest.raises(GroundMismatchError):
        FamilyPair(f, g)


def test_parse_simple():
    f = parse_family("4 2\n1 2\n3 4\n")
    assert f.ground.n == 4 and f.k == 2
    assert [elements_from_mask(m) for m in f.masks] == [(1, 2), (3, 4)]


def test_parse_bytes_comments_and_blank_lines():
    f = parse_family(b"# a comment\n\n5 3\n1 2 5\n\n# another\n2 3 4\n")
    assert [elements_from_mask(m) for m in f.masks] == [(2, 3, 4), (1, 2, 5)]


def test_parse_permutation_invariance():
    a = parse_family("5 2\n1 2\n3 4\n2 5\n")
    b = parse_family("5 2\n2 5\n3 4\n1 2\n")
    assert a == b


def test_parse_empty_family():
    f = parse_family("7 3\n")
    assert len(f) == 0 and f.k == 3


def test_parse_missing_header():
    with pytest.raises(MalformedHeaderError):
        parse_family("# only a comment\n")


def test_parse_malformed_header():
    with pytest.raises(MalformedHeaderError) as err:
        parse_family("4\n1 2\n")
    assert err.value.line == 1
    with pytest.raises(MalformedHeaderError):
        parse_family("4  2\n")  # double space
    # int() reads "5\t" and "\t2" as 5 and 2, but the header is two
    # integers and one space between them.
    for header in ("5\t 2", "5 \t2", "5 \x0b2"):
        with pytest.raises(MalformedHeaderError) as err:
            parse_family(header + "\n1 2\n")
        assert err.value.line == 1
    assert parse_family("+5 2\n1 2\n") == parse_family("5 2\n1 2\n")
    with pytest.raises(MalformedHeaderError):
        parse_family("x 2\n")
    with pytest.raises(MalformedHeaderError):
        parse_family("65 2\n")
    with pytest.raises(MalformedHeaderError):
        parse_family("4 5\n")  # k > n


def test_parse_element_out_of_range():
    with pytest.raises(ElementOutOfRangeError) as err:
        parse_family("4 2\n1 2\n3 5\n")
    assert err.value.line == 3


def test_parse_size_mismatch():
    with pytest.raises(BlockSizeError) as err:
        parse_family("4 2\n1 2 3\n")
    assert err.value.line == 2


def test_parse_duplicate_block():
    with pytest.raises(DuplicateBlockError) as err:
        parse_family("4 2\n1 2\n3 4\n1 2\n")
    assert err.value.line == 4


def test_parse_malformed_block():
    with pytest.raises(MalformedBlockError) as err:
        parse_family("4 2\n2 1\n")
    assert err.value.line == 2
    with pytest.raises(MalformedBlockError):
        parse_family("4 2\n1 x\n")


@pytest.mark.parametrize("text,error,message", [
    # Python's int() reads "1_0" as 10 and non-ASCII digits as digits.
    ("1_0 2\n1 2\n", MalformedHeaderError, "line 1: expected header 'n k', got '1_0 2'"),
    ("\uff11\uff10 2\n1 2\n", MalformedHeaderError,
     "line 1: expected header 'n k', got '\uff11\uff10 2'"),
    ("10 2\n1_0 2\n1 1_0\n", MalformedBlockError, "line 2: non-integer token in '1_0 2'"),
    ("10 2\n1 2\n\uff12 \uff13\n", MalformedBlockError,
     "line 3: non-integer token in '\uff12 \uff13'"),
    ("10 2\n# \u00bd\n\n1\u00a02\n", MalformedBlockError,
     "line 4: non-integer token in '1\\xa02'"),
])
def test_parse_rejects_underscores_and_non_ascii(text, error, message):
    with pytest.raises(error) as err:
        parse_family(text)
    assert str(err.value) == message


def test_parse_signs_zero_and_non_ascii_comments_unchanged():
    f = parse_family("# caf\u00e9 \u00bd\n\n4 2\n+1 +2\n")
    assert f.masks == (0b11,)
    for text in ("4 2\n0 1\n", "4 2\n-1 2\n"):
        with pytest.raises(ElementOutOfRangeError):
            parse_family(text)


@pytest.mark.parametrize("data,line", [
    (b"4 2\n1 2\n3 \xff4\n", 3),
    ("4 2\n1 2\n".encode("utf-16"), 1),  # starts with the BOM ff fe
])
def test_parse_rejects_non_utf8(data, line):
    # Bytes that are not UTF-8 are a parse error on the line of the first
    # bad byte, not a UnicodeDecodeError.
    with pytest.raises(FamilyParseError) as err:
        parse_family(data)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: byte 0xff is not valid UTF-8"


def test_serialize_example():
    f = Family.from_sets(4, 2, [(3, 4), (1, 2)])
    assert serialize_family(f) == "4 2\n1 2\n3 4\n"
    assert serialize_family(Family.from_sets(5, 3, [])) == "5 3\n"


def _random_family(rng):
    n = rng.randint(2, 16)
    k = rng.randint(1, min(4, n))
    pool = list(range(1, n + 1))
    masks = set()
    for _ in range(rng.randint(0, 8)):
        masks.add(mask_from_elements(n, rng.sample(pool, k)))
    return Family.from_masks(GroundSet(n), k, masks)


def test_round_trip_random():
    rng = random.Random(1905)
    for _ in range(200):
        f = _random_family(rng)
        assert parse_family(serialize_family(f)) == f


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, min(4, n)))
    universe = [tuple(c) for c in __import__("itertools").combinations(range(1, n + 1), k)]
    blocks = data.draw(st.lists(st.sampled_from(universe), max_size=6, unique=True))
    f = Family.from_sets(n, k, blocks)
    assert parse_family(serialize_family(f)) == f
