"""Multivariate normal CDF by separation-of-variables quasi-Monte Carlo.

Estimates ``P(Z <= b)`` for ``Z ~ N(0, J)`` with ``J`` a correlation
matrix.  The orthant integral is mapped onto the unit cube through the
Cholesky factor of ``J``: coordinate ``i`` becomes a conditional normal
probability given the quantiles drawn for coordinates ``< i``.  The cube
integral is evaluated with a Richtmyer lattice (generating vector
``sqrt(prime_j)``), periodized by the baker transform and randomized by
independent Cranley-Patterson shifts.  Shift-to-shift scatter yields the
error estimate (3x the standard error over shifts).

Each round computes ``frac(k*g)`` once and integrates its shifts in
blocks of up to ``_BLOCK_ROWS`` rows (shift x lattice point): the 12
shifts of the 512-point first round go in one pass, larger rounds take
fewer shifts per block.  A block is held coordinate-major, shape
``(n-1, shifts*count)``, so each conditional mean is one contiguous
matrix-vector product, and the quantiles overwrite the points in place.

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

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .channel import CorrelationMatrix
from .seeding import substream

_NUM_SHIFTS = 12
_BASE_LATTICE = 512
# Rows (shift x lattice point) integrated in one pass.  Round 0 (12 x 512)
# fits whole; a round whose lattice exceeds this takes one shift per block.
_BLOCK_ROWS = 8192
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


@functools.lru_cache(maxsize=None)
def _lattice_generator(dim: int) -> np.ndarray:
    """Richtmyer generating vector ``sqrt(prime_j)``, j < dim (read-only)."""
    generator = np.sqrt(_first_primes(dim))
    generator.setflags(write=False)
    return generator


def _truncated_mean(cb: float) -> float:
    """E[Z | Z <= cb] for standard normal Z, stable far into the tail."""
    if cb < -1e3:
        # Asymptote cb + 1/cb (relative error below 3e-12 here); the exact
        # form below cancels catastrophically and overflows further out.
        return cb + 1.0 / cb
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
        resid = np.maximum(a.diagonal()[i:] - (factor[i:, :i] ** 2).sum(axis=1), 1e-14)
        conditional = (b[i:] - factor[i:, :i] @ y[:i]) / np.sqrt(resid)
        j = i + int(conditional.argmin())
        if j != i:
            a[[i, j], :] = a[[j, i], :]
            a[:, [i, j]] = a[:, [j, i]]
            factor[[i, j], :i] = factor[[j, i], :i]
            b[[i, j]] = b[[j, i]]
        factor[i, i] = math.sqrt(resid[j - i])
        if i + 1 < n:
            factor[i + 1 :, i] = (
                a[i + 1 :, i] - factor[i + 1 :, :i] @ factor[i, :i]
            ) / factor[i, i]
        y[i] = _truncated_mean(float((b[i] - factor[i, :i] @ y[:i]) / factor[i, i]))
    return factor, b


def _sov_block(
    factor: np.ndarray, limits: np.ndarray, frac: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Per-shift means of the separation-of-variables integrand.

    ``frac`` is ``frac(k*g)`` for the round's lattice, shape (n-1, count);
    ``shifts`` holds one Cranley-Patterson shift per row.  All shifted
    points sit in one coordinate-major (n-1, shifts*count) array, and row
    ``i`` is overwritten by its quantiles once coordinate ``i`` is drawn.
    """
    dims, count = frac.shape
    rows = len(shifts) * count
    points = np.empty((dims, len(shifts), count))
    np.add(frac[:, None, :], shifts.T[:, :, None], out=points)
    points = points.reshape(dims, rows)
    # frac + shift lies in [0, 2): wrap by subtracting (t >= 1), exact, then
    # the baker fold |2t - 1|.  A masked ``where=`` subtract is ~10x slower.
    points -= points >= 1.0
    points *= 2.0
    points -= 1.0
    np.abs(points, out=points)

    e = np.full(rows, ndtr(limits[0] / factor[0, 0]))
    prob = e.copy()
    conditional = np.empty(rows)
    for i in range(1, dims + 1):
        u = points[i - 1]
        np.multiply(e, u, out=u)
        np.clip(u, _U_LO, _U_HI, out=u)
        ndtri(u, out=u)
        np.dot(factor[i, :i], points[:i], out=conditional)
        np.subtract(limits[i], conditional, out=conditional)
        conditional /= factor[i, i]
        ndtr(conditional, out=e)
        prob *= e
    return prob.reshape(len(shifts), count).mean(axis=1)


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
    generator = _lattice_generator(n - 1)
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
        frac = np.multiply.outer(generator, np.arange(1, lattice_size + 1, dtype=float))
        np.mod(frac, 1.0, out=frac)
        shifts = np.array(
            [substream(problem.seed, round_idx, shift_idx).random(n - 1) for shift_idx in range(_NUM_SHIFTS)]
        )
        per_block = max(1, _BLOCK_ROWS // lattice_size)
        for start in range(0, _NUM_SHIFTS, per_block):
            block = slice(start, start + per_block)
            shift_sums[block] += lattice_size * _sov_block(factor, limits, frac, shifts[block])
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
