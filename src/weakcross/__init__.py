"""Verification and search toolkit for weakly cross-intersecting set families.

Decides the ell-weak cross t-intersection condition exactly (with
violation witnesses), builds and audits the extremal constructions
(stars, tight pairs, sunflowers, coverings), extracts refutation
witnesses from large sunflowers, computes matching numbers, and runs
exhaustive max-product searches at desk scale.
"""

from .analysis import (
    SATISFIED,
    VACUOUS,
    VIOLATED,
    CrossVerdict,
    IntersectionMatrix,
    SingleVerdict,
    VacuousChoiceError,
    WeakCrossParams,
    WitnessTuple,
    check_weak_cross,
    check_weak_single,
    intersection_matrix,
    min_grid_sum,
)
from .constructions import (
    StarSpec,
    TightPairSpec,
    make_covering,
    make_star,
    make_sunflower,
    make_tight_pair,
    random_family,
)
from .families import (
    Family,
    FamilyPair,
    FamilyParseError,
    GroundMismatchError,
    GroundSet,
    InstanceTooLargeError,
    binomial,
    elements_from_mask,
    mask_from_elements,
    parse_family,
    serialize_family,
)
from .refutation import (
    CoverDecomposition,
    RefutationTrace,
    cover_by_cores,
    refute_with_sunflower,
)
from .search import SearchResult, search_max_product
from .structures import (
    MatchingCertificate,
    Sunflower,
    erdos_bound,
    find_sunflower,
    matching_number,
    max_family_no_matching,
    validate_sunflower,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SATISFIED", "VIOLATED", "VACUOUS",
    "GroundSet", "Family", "FamilyPair",
    "GroundMismatchError", "InstanceTooLargeError", "FamilyParseError",
    "binomial", "mask_from_elements", "elements_from_mask",
    "parse_family", "serialize_family",
    "WeakCrossParams", "IntersectionMatrix", "WitnessTuple",
    "CrossVerdict", "SingleVerdict", "VacuousChoiceError",
    "intersection_matrix", "min_grid_sum", "check_weak_cross", "check_weak_single",
    "Sunflower", "MatchingCertificate", "validate_sunflower",
    "find_sunflower", "matching_number", "erdos_bound", "max_family_no_matching",
    "StarSpec", "TightPairSpec", "make_star", "make_tight_pair",
    "make_sunflower", "make_covering", "random_family",
    "RefutationTrace", "CoverDecomposition",
    "refute_with_sunflower", "cover_by_cores",
    "SearchResult", "search_max_product",
]
