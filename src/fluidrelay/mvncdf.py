"""Multivariate normal CDF by separation-of-variables quasi-Monte Carlo.

Estimates ``P(Z <= b)`` for ``Z ~ N(0, J)`` with ``J`` a correlation
matrix.  The orthant integral is mapped onto the unit cube through the
Cholesky factor of ``J``: coordinate ``i`` becomes a conditional normal
probability given the quantiles drawn for coordinates ``< i``.  The cube
integral is evaluated with a Richtmyer lattice (generating vector
``sqrt(prime_j)``), periodized by the baker transform and randomized by
independent Cranley-Patterson shifts.  Shift-to-shift scatter yields the
error estimate (3x the standard error over shifts).

Before integration the coordinates are reordered by the greedy pivoted
Cholesky rule: each step takes the remaining variable with the smallest
conditional probability (evaluated at the truncated-normal means of the
already-fixed variables).  This generalizes sorting the limits and cuts
the integrand variance; estimates stay permutation-consistent within
their error bound.  All randomness comes from seeded substreams keyed by
(seed, round, shift), so results do not depend on scheduling or worker
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .channel import CorrelationMatrix
from .seeding import substream

_NUM_SHIFTS = 12
_BASE_LATTICE = 512
# ndtri is clipped away from {0, 1}; contributions there are already
# negligible because the running product is ~0 or the limit is huge.
_U_LO = 1e-300
_U_HI = 1.0 - 1e-16


@dataclass(frozen=True)
class MvnProblem:
    """One CDF evaluation request: limits, accuracy target, and seed."""

    corr: CorrelationMatrix
    upper_limits: np.ndarray
    target_abs_error: float = 1e-4
    max_samples: int = 2_000_000
    seed: int = 0

    def __post_init__(self):
        limits = np.array(self.upper_limits, dtype=float)
        if limits.ndim != 1 or limits.size != self.corr.dim:
            raise ValueError(
                f"upper_limits must be a length-{self.corr.dim} vector, got shape {limits.shape}"
            )
        if np.any(np.isnan(limits)):
            raise ValueError("upper_limits must not contain NaN")
        if not 0.0 < self.target_abs_error <= 0.1:
            raise ValueError(f"target_abs_error must be in (0, 0.1], got {self.target_abs_error}")
        if self.max_samples < _NUM_SHIFTS:
            raise ValueError(
                f"max_samples must be at least {_NUM_SHIFTS} (one sample per lattice shift), "
                f"got {self.max_samples}"
            )
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        limits.setflags(write=False)
        object.__setattr__(self, "upper_limits", limits)


@dataclass(frozen=True)
class MvnEstimate:
    """CDF estimate with its error bound and sampling effort.

    ``converged`` is False when the sample budget ran out before
    ``est_error`` dropped below the target.
    """

    value: float
    est_error: float
    samples_used: int
    converged: bool


def std_normal_quantile(u: float) -> float:
    """Quantile of the standard normal, u in (0, 1) strictly."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile argument must be strictly inside (0, 1), got {u}")
    return float(ndtri(u))


def _first_primes(count: int) -> np.ndarray:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return np.array(primes, dtype=float)


def _truncated_mean(cb: float) -> float:
    """E[Z | Z <= cb] for standard normal Z, stable far into the tail."""
    return -math.exp(-0.5 * cb * cb - 0.5 * math.log(2.0 * math.pi) - log_ndtr(cb))


def _reordered_cholesky(matrix: np.ndarray, limits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted Cholesky with the min-conditional-probability ordering.

    Returns the permuted factor and limits; the represented probability
    is unchanged.  Residual diagonals are floored at a tiny positive
    value, which regularizes numerically semidefinite inputs.
    """
    a = np.array(matrix, dtype=float)
    b = np.array(limits, dtype=float)
    n = b.size
    factor = np.zeros((n, n))
    y = np.zeros(n)
    for i in range(n):
        resid = np.diag(a)[i:] - np.sum(factor[i:, :i] ** 2, axis=1)
        resid = np.maximum(resid, 1e-14)
        conditional = (b[i:] - factor[i:, :i] @ y[:i]) / np.sqrt(resid)
        j = i + int(np.argmin(conditional))
        if j != i:
            a[[i, j], :] = a[[j, i], :]
            a[:, [i, j]] = a[:, [j, i]]
            factor[[i, j], :i] = factor[[j, i], :i]
            b[[i, j]] = b[[j, i]]
        dii = max(a[i, i] - float(np.sum(factor[i, :i] ** 2)), 1e-14)
        factor[i, i] = math.sqrt(dii)
        if i + 1 < n:
            factor[i + 1 :, i] = (
                a[i + 1 :, i] - factor[i + 1 :, :i] @ factor[i, :i]
            ) / factor[i, i]
        y[i] = _truncated_mean(float((b[i] - factor[i, :i] @ y[:i]) / factor[i, i]))
    return factor, b


def _sov_mean(factor: np.ndarray, limits: np.ndarray, points: np.ndarray) -> float:
    """Average the separation-of-variables integrand over lattice points."""
    count = points.shape[0]
    n = limits.size
    e = np.full(count, ndtr(limits[0] / factor[0, 0]))
    prob = e.copy()
    quantiles = np.empty((count, n - 1))
    for i in range(1, n):
        u = np.clip(e * points[:, i - 1], _U_LO, _U_HI)
        quantiles[:, i - 1] = ndtri(u)
        conditional = (limits[i] - quantiles[:, :i] @ factor[i, :i]) / factor[i, i]
        e = ndtr(conditional)
        prob *= e
    return float(prob.mean())


def mvn_cdf(problem: MvnProblem) -> MvnEstimate:
    """Estimate P(Z <= upper_limits) for Z ~ N(0, corr).

    A limit of -inf short-circuits to 0; +inf coordinates are dropped
    (exact marginalization).  The 1-D case is evaluated exactly.
    """
    limits = problem.upper_limits
    if np.any(np.isneginf(limits)):
        return MvnEstimate(value=0.0, est_error=0.0, samples_used=0, converged=True)
    keep = ~np.isposinf(limits)
    if not np.any(keep):
        return MvnEstimate(value=1.0, est_error=0.0, samples_used=0, converged=True)
    limits = limits[keep]
    matrix = problem.corr.entries[np.ix_(keep, keep)]
    n = limits.size
    if n == 1:
        return MvnEstimate(value=float(ndtr(limits[0])), est_error=0.0, samples_used=0, converged=True)

    factor, limits = _reordered_cholesky(matrix, limits)
    generator = np.sqrt(_first_primes(n - 1))
    # Per-shift estimates accumulate across rounds (weighted by round
    # size), so every sample contributes to the final value and the error
    # estimate shrinks monotonically.
    shift_sums = np.zeros(_NUM_SHIFTS)
    weight = 0
    samples_used = 0
    value = 0.0
    est_error = np.inf
    round_idx = 0
    while True:
        budget_left = problem.max_samples - samples_used
        if budget_left < _NUM_SHIFTS:
            break
        lattice_size = min(_BASE_LATTICE << round_idx, budget_left // _NUM_SHIFTS)
        steps = np.arange(1, lattice_size + 1, dtype=float)[:, None] * generator[None, :]
        for shift_idx in range(_NUM_SHIFTS):
            shift = substream(problem.seed, round_idx, shift_idx).random(n - 1)
            points = np.abs(2.0 * np.mod(steps + shift, 1.0) - 1.0)
            shift_sums[shift_idx] += lattice_size * _sov_mean(factor, limits, points)
        weight += lattice_size
        samples_used += _NUM_SHIFTS * lattice_size
        combined = shift_sums / weight
        value = float(combined.mean())
        est_error = 3.0 * float(combined.std(ddof=1)) / math.sqrt(_NUM_SHIFTS)
        if est_error <= problem.target_abs_error or samples_used >= problem.max_samples:
            break
        round_idx += 1

    return MvnEstimate(
        value=min(max(value, 0.0), 1.0),
        est_error=float(est_error),
        samples_used=int(samples_used),
        converged=bool(est_error <= problem.target_abs_error),
    )
