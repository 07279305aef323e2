"""Order statistics used by every report: interpolated percentiles and the tail rule."""

from __future__ import annotations

from typing import Sequence

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def tail_percentile(samples: Sequence[float]) -> dict | None:
    """The highest candidate percentile with at least ten samples beyond it.

    Returns {"percentile", "value", "samples"}, or None when even the median
    has fewer than ten samples above it.
    """
    n = len(samples)
    for q in TAIL_CANDIDATES:
        # In tenths of a percent, so that 99.9 is compared without rounding error.
        if n * (1000 - round(q * 10)) >= MIN_BEYOND * 1000:
            return {"percentile": q, "value": percentile(samples, q), "samples": n}
    return None
