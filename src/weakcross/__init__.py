"""Verification and search toolkit for weakly cross-intersecting set families.

Decides the ell-weak cross t-intersection condition exactly (with
violation witnesses), builds and audits the extremal constructions
(stars, tight pairs, sunflowers, coverings), extracts refutation
witnesses from large sunflowers, computes matching numbers, and runs
exhaustive max-product searches at desk scale.
"""

from . import analysis, constructions, families, refutation, search, structures
from .analysis import *
from .constructions import *
from .families import *
from .refutation import *
from .search import *
from .structures import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *analysis.__all__,
    *constructions.__all__,
    *families.__all__,
    *refutation.__all__,
    *search.__all__,
    *structures.__all__,
]
