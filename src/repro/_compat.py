"""Optional-dependency detection.

numpy accelerates the seeded random streams and the latency percentile
math, but neither needs it for correctness: each keeps a stdlib
fallback that produces the same *kinds* of results.  Only the
Rocketfuel-like topology generator requires numpy and raises
``ImportError`` without it.  Import
``HAVE_NUMPY`` from here instead of try/excepting numpy locally so the
whole tree flips together.

Setting ``SDNFV_NO_NUMPY=1`` in the environment forces the fallback
paths even when numpy is importable, so they can be exercised without
a second virtualenv.
"""

from __future__ import annotations

import os

try:
    if os.environ.get("SDNFV_NO_NUMPY"):
        raise ImportError("numpy disabled via SDNFV_NO_NUMPY")
    import numpy
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via subprocess tests
    numpy = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = ["HAVE_NUMPY", "numpy"]
