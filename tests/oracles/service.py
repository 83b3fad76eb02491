"""Reference DRAM-pressure bucketing for the placement service's cache keys.

:func:`bucket_ratio` is ``repro.service.cache.bucket_ratio`` as it stood
before it dropped numpy scalars: two ``np.round`` calls, the inner one
to a whole step count, the outer one to 10 decimals.  A cache key is
compared by equality, so the production version must return the same
float bit for bit, signed zeros, NaN and infinities included.
"""

from __future__ import annotations

import numpy as np


def bucket_ratio(r_dram: float, step: float = 0.05) -> float:
    if step <= 0.0:
        raise ValueError("step must be positive")
    return float(np.round(np.round(r_dram / step) * step, 10))
