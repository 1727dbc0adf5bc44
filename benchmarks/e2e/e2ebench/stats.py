"""Percentile helpers shared by the runner and the probes."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: candidate percentiles, in per-mille so the sample arithmetic is exact
_LADDER = (500, 750, 900, 950, 990, 999)


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` for the highest percentile of the ladder that
    still has at least ten samples beyond it (the median for short runs)."""
    n = len(samples)
    pct = max((q for q in _LADDER if n * (1000 - q) >= 10_000), default=500) / 10.0
    return pct, float(np.percentile(samples, pct))
