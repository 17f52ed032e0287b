"""The package's immutable value classes: construction, equality, hashing, repr."""

import copy
import pickle

import pytest

import weakcross as w

G = w.GroundSet(5)
F = w.Family.from_sets(5, 2, [(1, 2), (1, 3)])
F2 = w.Family.from_sets(5, 2, [(1, 2), (2, 3)])
PAIR = w.FamilyPair(F, F)
WIT = w.WitnessTuple((0, 1), (0, 1), 3)

# Each class with its fields in constructor order, and one field of
# another valid value.
VALUES = [
    (w.GroundSet, {"n": 5}, ("n", 6)),
    (w.Family, {"ground": G, "k": 2, "masks": F.masks}, ("masks", F2.masks)),
    (w.FamilyPair, {"left": F, "right": F}, ("right", F2)),
    (w.WeakCrossParams, {"ell": 2, "t": 2}, ("t", 1)),
    (w.IntersectionMatrix, {"rows": 2, "cols": 2, "entries": ((2, 1), (1, 2))}, ("cols", 3)),
    (w.WitnessTuple, {"row_indices": (0, 1), "col_indices": (0, 1), "achieved_sum": 3},
     ("achieved_sum", 4)),
    (w.CrossVerdict, {"verdict": "violated", "threshold": 7, "min_sum": 3, "witness": WIT},
     ("witness", None)),
    (w.SingleVerdict, {"verdict": "violated", "threshold": 2, "min_sum": 1, "indices": (0, 2)},
     ("indices", (0, 3))),
    (w.StarSpec, {"ground": G, "k": 2, "core": 0b1}, ("k", 3)),
    (w.TightPairSpec, {"ground": G, "k": 3, "kprime": 3, "core": 0b11, "extra": 0b1101},
     ("k", 2)),
    (w.Sunflower, {"kernel": (1,), "member_indices": (0, 1, 2), "petal_count": 3},
     ("kernel", (2,))),
    (w.MatchingCertificate, {"indices": (0, 2, 5)}, ("indices", (1, 2))),
    (w.RefutationTrace, {"kernel": (1,), "right_indices": (0, 1), "d": 1, "h": 1,
                         "stage0": (0, 1), "stage1": (0,), "stage2": (0,), "witness": WIT},
     ("h", 0)),
    (w.CoverDecomposition, {"left_indices": (0,), "exceptional": (3,),
                            "parts": (((1,), (0, 1)),)}, ("exceptional", ())),
    (w.SearchResult, {"best_product": 4, "best_pair": PAIR, "star_product": 4,
                      "nodes_explored": 7, "exhaustive": True}, ("exhaustive", False)),
]
IDS = [cls.__name__ for cls, _fields, _other in VALUES]


def test_every_value_class_is_listed():
    public = {getattr(w, name) for name in w.__all__}
    classes = {obj for obj in public
               if isinstance(obj, type) and issubclass(obj, w.families.Record)}
    assert classes == {cls for cls, _fields, _other in VALUES}


@pytest.mark.parametrize("cls,fields,other", VALUES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, other):
    positional, keyword = cls(*fields.values()), cls(**fields)
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    for name, value in fields.items():
        assert getattr(keyword, name) == value
    name, value = other
    changed = cls(**{**fields, name: value})
    assert changed != keyword
    # Equal only to its own class: not to a tuple of the same values.
    assert keyword != tuple(fields.values())


@pytest.mark.parametrize("cls,fields,other", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, other):
    value = cls(**fields)
    for name in [*fields, "unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, fields.get(name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


@pytest.mark.parametrize("cls,fields,other", VALUES, ids=IDS)
def test_unknown_or_missing_keyword_is_a_type_error(cls, fields, other):
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    for name in fields:
        with pytest.raises(TypeError):
            cls(**{key: val for key, val in fields.items() if key != name})


@pytest.mark.parametrize("cls,fields,other", VALUES, ids=IDS)
def test_repr_names_the_fields(cls, fields, other):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls,fields,other", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, fields, other):
    value = cls(**fields)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
