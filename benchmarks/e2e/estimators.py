"""Latency estimators for a noisy shared VM.

Wall noise on the target machine is not pre-emption but slow/fast regimes
that last minutes and scale everything by 1.3-1.6x (README.md has the
measurements).  Medians of raw samples move with the regime; these two
estimators look for the machine's *floor* instead:

* commit step ``i`` does identical work in every round, so its cost is the
  minimum over rounds; percentiles are then taken over the steps;
* a restore is one long operation repeated a few dozen times, where the
  single minimum is outlier-prone, so its cost is the 10th percentile.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

LOW_QUANTILE = 10.0


def step_floors(samples: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-step minimum over rounds of a ``rounds x steps`` sample grid."""
    grid = np.asarray(samples, dtype=np.float64)
    if grid.ndim != 2 or grid.size == 0:
        raise ValueError(f"need a non-empty rounds x steps grid, got shape {grid.shape}")
    return grid.min(axis=0)


def floor_percentile(samples: Sequence[Sequence[float]], q: float) -> float:
    """*q*-th percentile over steps of the per-step floors."""
    return float(np.percentile(step_floors(samples), q))


def low_quantile(samples: Sequence[float]) -> float:
    """10th percentile of repeated samples of one operation."""
    flat = np.asarray(samples, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("need at least one sample")
    return float(np.percentile(flat, LOW_QUANTILE))


def worsening(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*.

    Negative when *second* is the better one.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower/higher, got {better!r}")
    delta = (second - first) / first
    return delta if better == "lower" else -delta
