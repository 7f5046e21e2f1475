"""Small statistics helpers shared by the Monte Carlo modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_N_BATCHES = 32
_WINDOW_FACTOR = 5.0  # Sokal's self-consistent window, in units of tau_int


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its uncertainty and provenance.

    ``stderr`` is a standard error: binomial for event frequencies,
    batch-mean for correlated or heavy-tailed observables.
    """

    observable: str
    mean: float
    stderr: float
    samples: int
    seed: int


def check_counts(**counts: int) -> None:
    """The one refusal of an empty Monte Carlo run: a one-line ValueError
    unless every count (samples, sweeps, radii) is at least 1."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name}: need at least 1, got {n}")


def check_non_negative(name: str, values) -> None:
    """A one-line ValueError if any radius or distance is negative."""
    if min(values, default=0) < 0:
        raise ValueError(f"{name} must be non-negative, got {min(values)}")


def binomial_stderr(p_hat: float, n: int) -> float:
    if n <= 0:
        raise ValueError("need at least one sample")
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def batch_means_stderr(values) -> float:
    """Standard error of the mean via non-overlapping batch means.

    Uses 32 batches, or max(2, n // 2) batches when there are fewer than 32
    values.  Robust to autocorrelation when the batch length exceeds the
    correlation time.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 2:
        return float("inf")
    n_batches = _N_BATCHES if n >= _N_BATCHES else max(2, n // 2)
    length = n // n_batches
    used = n_batches * length
    batches = arr[:used].reshape(n_batches, length).mean(axis=1)
    return float(np.std(batches, ddof=1) / math.sqrt(n_batches))


def integrated_autocorr_time(series) -> float:
    """Integrated autocorrelation time with a self-consistent cutoff.

    Sums normalized autocovariances until the window exceeds five times
    the running estimate (Sokal's criterion).  Returns at least 0.5 (an
    uncorrelated series).
    """
    arr = np.asarray(series, dtype=float)
    n = arr.size
    if n < 8:
        return 0.5
    arr = arr - arr.mean()
    var = float(np.dot(arr, arr)) / n
    if var <= 0.0:
        return 0.5
    tau = 0.5
    for t in range(1, n // 2):
        rho = float(np.dot(arr[:-t], arr[t:])) / ((n - t) * var)
        tau += rho
        if t >= _WINDOW_FACTOR * tau:
            break
    return max(tau, 0.5)
