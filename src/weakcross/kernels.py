"""The hot kernels, as the rest of the package calls them.

The kernels are implemented in ``weakcross._kernels_py``; this module
only re-exports them.  It stays a module of its own because it is the
one boundary between the package and its kernels: callers look the
names up here (``kernels.max_disjoint``), so a tracer or a test can
replace a kernel in one place, while calls a kernel makes to another
kernel inside ``_kernels_py`` stay internal.
"""

from ._kernels_py import (
    BACKEND,
    max_disjoint,
    max_family_no_matching_bb,
    min_grid_sum_bucket,
)

__all__ = [
    "BACKEND",
    "max_disjoint",
    "max_family_no_matching_bb",
    "min_grid_sum_bucket",
]
