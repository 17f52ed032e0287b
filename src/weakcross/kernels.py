"""Backend selection for the hot kernels.

The compiled extension is preferred when it imported cleanly; otherwise
the pure Python twin takes over with identical semantics.  Set the
environment variable ``WEAKCROSS_PURE_PY=1`` before import to force the
pure backend (useful for benchmarking and debugging).
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("WEAKCROSS_PURE_PY"):
    _impl = _kernels_py
else:
    try:
        from . import _ckernels as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

BACKEND: str = _impl.BACKEND

min_grid_sum_bucket = _impl.min_grid_sum_bucket
max_disjoint = _impl.max_disjoint
has_disjoint = _impl.has_disjoint
max_family_no_matching_bb = _impl.max_family_no_matching_bb
