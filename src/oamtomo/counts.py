"""Coincidence-count simulation and background subtraction.

Counts are modeled per setting as windowed Poisson totals: the signal
coincidences at mean efficiency * counts_per_setting * probability + background,
plus one independent background measurement per setting.  Each setting draws
from a sub-seed derived from (seed, input, projector), so results are
bit-reproducible regardless of evaluation order.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

# counts_per_setting + background then stays below numpy's Poisson limit, about 9.2e18
_MAX_MEAN_COUNTS = 1e18


@dataclass(frozen=True)
class SourceConfig:
    """Statistical model of the photon source and detection chain.

    counts_per_setting is the expected signal coincidence total at unit
    probability and unit efficiency; background the expected accidental
    total per setting; both at most 1e18, so that counts fit int64.
    efficiency folds in every loss between source and detector; window is
    the coincidence window in seconds, validated and echoed in counts
    headers, but read by no computation.  Each refusal starts with the name
    of the field it refuses.
    """

    counts_per_setting: float = 10000
    background: float = 0.0
    efficiency: float = 1.0
    window: float = 50e-9
    seed: int = 0

    def __post_init__(self):
        for name in ("counts_per_setting", "background", "efficiency", "window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name}: must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:  # NaN, inf, an int beyond floats
                raise ValueError(f"{name}: must be finite, got {value!r}")
        for name in ("counts_per_setting", "background"):
            if getattr(self, name) > _MAX_MEAN_COUNTS:
                raise ValueError(f"{name}: must be at most {_MAX_MEAN_COUNTS:g}, "
                                 f"so that counts fit int64; got {getattr(self, name)!r}")
        if self.counts_per_setting <= 0:
            raise ValueError("counts_per_setting: must be positive")
        if self.background < 0:
            raise ValueError("background: must be nonnegative")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency: must be in [0, 1]")
        if self.window <= 0:
            raise ValueError("window: must be positive")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed: must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError("seed: must be nonnegative")


def _mean_table(probabilities: np.ndarray, cfg: SourceConfig) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 2 or p.shape[1] != 9 or not 1 <= p.shape[0] <= 9:
        raise ValueError(f"expected a (rows<=9, 9) probability table, got shape {p.shape}")
    if not (p.min() >= -1e-9 and p.max() <= 1.0 + 1e-9):  # NaN fails both
        raise ValueError("probabilities outside [0, 1] beyond tolerance")
    return cfg.efficiency * cfg.counts_per_setting * np.clip(p, 0.0, 1.0) + cfg.background


def simulate_counts(probabilities, cfg: SourceConfig) -> np.ndarray:
    """Poisson counts for a probability table (rows = inputs).

    Returns an int64 array of shape (n_in, 9, 2): counts[j, i] holds the raw
    and background totals of input j + 1 measured on projector i + 1.  A full
    9 x 9 table gives the process-tomography counts; a single-row table the
    counts of a state-mode run.
    """
    means = _mean_table(probabilities, cfg)
    counts = np.empty(means.shape + (2,), dtype=np.int64)
    for j, i in np.ndindex(means.shape):
        rng = np.random.default_rng([cfg.seed, j + 1, i + 1])
        counts[j, i] = rng.poisson(means[j, i]), rng.poisson(cfg.background)
    return counts


def exact_counts(probabilities, cfg: SourceConfig) -> np.ndarray:
    """Noise-free counts: rounded expected totals instead of Poisson draws."""
    means = _mean_table(probabilities, cfg)
    both = np.stack([means, np.full_like(means, cfg.background)], axis=-1)
    return np.rint(both).astype(np.int64)


def subtract_background(counts) -> np.ndarray:
    """Corrected counts max(raw - background, 0) over the last (raw, background) axis.

    Clamping introduces a small positive bias where the signal is near zero;
    accepted so downstream normalization never sees negative counts.
    """
    counts = np.asarray(counts)
    return np.maximum(counts[..., 0] - counts[..., 1], 0).astype(float)
