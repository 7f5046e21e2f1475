"""Small statistics helpers shared by the Monte Carlo modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# One-sided 99.9% normal quantile, used for the upper confidence bounds of
# Monte Carlo phi estimates (which never feed a certificate).
Z_999 = 3.090232306167813


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


def binomial_stderr(p_hat: float, n: int) -> float:
    if n <= 0:
        raise ValueError("need at least one sample")
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def batch_means_stderr(values, n_batches: int = 32) -> float:
    """Standard error of the mean via non-overlapping batch means.

    Robust to autocorrelation when the batch length exceeds the correlation
    time; with fewer than two full batches it falls back to the naive i.i.d.
    standard error.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 2:
        return float("inf")
    length = n // n_batches
    if length < 1:
        n_batches = max(2, n // 2)
        length = n // n_batches
    if length < 1 or n_batches < 2:
        return float(np.std(arr, ddof=1) / math.sqrt(n))
    used = n_batches * length
    batches = arr[:used].reshape(n_batches, length).mean(axis=1)
    return float(np.std(batches, ddof=1) / math.sqrt(n_batches))


def wilson_upper(p_hat: float, n: int, z: float = Z_999) -> float:
    """Wilson score upper confidence bound for a proportion.

    Applied to scaled means in [0, 1]; for non-Bernoulli summands this is a
    deliberately conservative, clearly labelled approximation.
    """
    if n <= 0:
        raise ValueError("need at least one sample")
    p_hat = min(max(p_hat, 0.0), 1.0)
    denom = 1.0 + z * z / n
    center = p_hat + z * z / (2.0 * n)
    spread = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    return min(1.0, (center + spread) / denom)


def integrated_autocorr_time(series, window_factor: float = 5.0) -> float:
    """Integrated autocorrelation time with a self-consistent cutoff.

    Sums normalized autocovariances until the window exceeds
    ``window_factor`` times the running estimate (Sokal's criterion).
    Returns at least 0.5 (an uncorrelated series).
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
        if t >= window_factor * tau:
            break
    return max(tau, 0.5)
