"""Multivariate normal CDF by separation-of-variables quasi-Monte Carlo.

Estimates ``P(Z <= b)`` for ``Z ~ N(0, J)`` with ``J`` a correlation
matrix.  The orthant integral is mapped onto the unit cube through the
Cholesky factor of ``J``: coordinate ``i`` becomes a conditional normal
probability given the quantiles drawn for coordinates ``< i``.  The cube
integral is evaluated with a Richtmyer lattice (generating vector
``sqrt(prime_j)``), periodized by the baker transform and randomized by
independent Cranley-Patterson shifts.  Shift-to-shift scatter yields the
error estimate (3x the standard error over shifts).

Each round integrates its shifts in blocks of up to ``_BLOCK_ROWS`` = 4096
rows (shift x lattice point): the 512-point first round takes 8 shifts a
block, larger rounds take fewer shifts per block, and a lattice
larger than ``_BLOCK_ROWS`` is cut into slices of at most that many
points, each with its own ``frac(k*g)`` (a lattice of one slice builds
its ``frac(k*g)`` once, for all its shift blocks).  A block is held
coordinate-major, shape ``(n-1, shifts*count)``, so each conditional mean
is one contiguous matrix-vector product, and the quantiles overwrite the
points in place.  So a call holds O((n-1) * _BLOCK_ROWS) floats, plus
one shift block's integrand values (8 bytes per lattice point of a round
above ``_BLOCK_ROWS`` points), whatever its sample budget: about 1.8 MB at
the default budget on a 4x4 grid.

Before integration the coordinates are reordered by the greedy pivoted
Cholesky rule: each step takes the remaining variable with the smallest
conditional probability (evaluated at the truncated-normal means of the
already-fixed variables).  This generalizes sorting the limits and cuts
the integrand variance; estimates stay permutation-consistent within
their error bound.  The pivot runs over a stack of limit vectors:
``mvn_cdf`` pivots its one problem as a stack of one, and
``pivot_limits`` pivots many limit vectors on one matrix in one pass
(an ``op_surface`` row's thresholds), with the same bits per vector;
each result is handed to its ``mvn_cdf`` call as an argument.  All
randomness comes from seeded substreams keyed by
(seed, round, shift), so results do not depend on scheduling or worker
counts; each round's shifts are drawn once per (seed, round, dimension)
and shared by every call that asks for them.
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
# takes 8 shifts a block; a round whose lattice exceeds this takes one shift
# per block, in lattice slices of this many points.  The two (n-1)-row block
# arrays set a call's peak memory; smaller blocks cost CPU (+7% at 2048).
_BLOCK_ROWS = 4096
# ndtri is clipped away from {0, 1}; contributions there are already
# negligible because the running product is ~0 or the limit is huge.
_U_LO = 1e-300
_U_HI = 1.0 - 1e-16

DEFAULT_TARGET_ABS_ERROR = 1e-4
DEFAULT_MAX_SAMPLES = 2_000_000


def check_engine_settings(target_abs_error: float, max_samples: int, seed: int) -> None:
    """Raise ValueError unless the engine can run with this accuracy target, budget and seed."""
    if not 0.0 < target_abs_error <= 0.1:
        raise ValueError(f"target_abs_error must be in (0, 0.1], got {target_abs_error}")
    if max_samples < _NUM_SHIFTS:
        raise ValueError(
            f"max_samples must be at least {_NUM_SHIFTS} (one sample per lattice shift), "
            f"got {max_samples}"
        )
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class MvnProblem:
    """One CDF evaluation request: limits, accuracy target, and seed."""

    corr: CorrelationMatrix
    upper_limits: np.ndarray
    target_abs_error: float = DEFAULT_TARGET_ABS_ERROR
    max_samples: int = DEFAULT_MAX_SAMPLES
    seed: int = 0

    def __post_init__(self):
        limits = np.array(self.upper_limits, dtype=float)
        if limits.ndim != 1 or limits.size != self.corr.dim:
            raise ValueError(
                f"upper_limits must be a length-{self.corr.dim} vector, got shape {limits.shape}"
            )
        if np.any(np.isnan(limits)):
            raise ValueError("upper_limits must not contain NaN")
        check_engine_settings(self.target_abs_error, self.max_samples, self.seed)
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


@functools.lru_cache(maxsize=256)
def _round_shifts(seed: int, round_idx: int, dims: int) -> np.ndarray:
    """A round's Cranley-Patterson shifts, shape (_NUM_SHIFTS, dims) (read-only).

    Row ``s`` is ``substream(seed, round_idx, s).random(dims)``; callers
    that share an engine seed (a whole ``op_surface`` map) share the rows.
    """
    shifts = np.array([substream(seed, round_idx, s).random(dims) for s in range(_NUM_SHIFTS)])
    shifts.setflags(write=False)
    return shifts


def _lattice_frac(generator: np.ndarray, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
    """``frac(k*g)`` for lattice points ``k = lo+1 .. hi``, shape (n-1, hi-lo).

    Written into the leading columns of ``buf``, so one buffer serves
    every slice of a round.  ``k*g`` is nonnegative, so subtracting its
    floor is exact: these are the bits of ``np.mod(k*g, 1.0)``.
    """
    frac = buf[:, : hi - lo]
    np.multiply.outer(generator, np.arange(lo + 1, hi + 1, dtype=float), out=frac)
    for row in frac:  # one row's floor at a time: no second lattice-sized array
        row -= np.floor(row)
    return frac


def _truncated_mean(cb: float) -> float:
    """E[Z | Z <= cb] for standard normal Z, stable far into the tail."""
    if cb < -1e3:
        # Asymptote cb + 1/cb (relative error below 3e-12 here); the exact
        # form below cancels catastrophically and overflows further out.
        return cb + 1.0 / cb
    return -math.exp(-0.5 * cb * cb - 0.5 * math.log(2.0 * math.pi) - log_ndtr(cb))


def _pivoted_cholesky(matrices: np.ndarray, limits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted Cholesky of a stack of problems, shapes (M, n, n) and (M, n).

    Step ``i`` takes, in every problem at once, the remaining variable with
    the smallest conditional probability given the truncated-normal means
    of the variables already fixed (Genz & Bretz 2009).  Returns the
    permuted factors and limits; each problem's probability is unchanged.
    Residual diagonals are floored at a tiny positive value, which
    regularizes numerically semidefinite inputs.  Swaps move index arrays;
    the truncated means stay per problem in ``math``, so every factor bit
    is the one a single problem gets on its own.
    """
    count, n = limits.shape
    items = np.arange(count)
    rows = items[:, None]
    order = np.tile(np.arange(n), (count, 1))  # variable order[:, k] becomes coordinate k
    diagonals = np.diagonal(matrices, axis1=1, axis2=2)
    b = np.array(limits, dtype=float)
    factor = np.zeros((count, n, n))
    y = np.zeros((count, n))
    for i in range(n):
        resid = np.maximum(diagonals[rows, order[:, i:]] - (factor[:, i:, :i] ** 2).sum(axis=2), 1e-14)
        conditional = (b[:, i:] - (factor[:, i:, :i] @ y[:, :i, None])[..., 0]) / np.sqrt(resid)
        j = i + conditional.argmin(axis=1)
        order[items, i], order[items, j] = order[items, j], order[items, i]
        b[items, i], b[items, j] = b[items, j], b[items, i]
        factor[items, i], factor[items, j] = factor[items, j], factor[items, i]
        factor[:, i, i] = np.sqrt(resid[items, j - i])
        if i + 1 < n:
            column = matrices[rows, order[:, i + 1 :], order[:, i, None]]
            below = (factor[:, i + 1 :, :i] @ factor[:, i, :i, None])[..., 0]
            factor[:, i + 1 :, i] = (column - below) / factor[:, i, i, None]
        bound = (b[:, i] - (factor[:, i, None, :i] @ y[:, :i, None])[:, 0, 0]) / factor[:, i, i]
        y[:, i] = [_truncated_mean(c) for c in bound.tolist()]
    return factor, b


def pivot_limits(corr: CorrelationMatrix, limits: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pivoted factor and limits for each row of ``limits`` on ``corr``, in one stack.

    Hand each pair to :func:`mvn_cdf` with the problem of its row (one
    stacked pass costs about what one problem alone does).  The limits
    must be finite and ``corr.dim >= 2``, as for the best-gain CDF's
    problems; the matrix is broadcast over the rows, not copied.
    """
    limits = np.asarray(limits, dtype=float)
    if corr.dim < 2 or limits.ndim != 2 or limits.shape[1] != corr.dim or not np.all(np.isfinite(limits)):
        raise ValueError("pivot_limits needs an (M, corr.dim) stack of finite limits in dimension >= 2")
    factors, permuted = _pivoted_cholesky(np.broadcast_to(corr.entries, (len(limits), corr.dim, corr.dim)), limits)
    return list(zip(factors, permuted))


def _sov_block(
    factor: np.ndarray, limits: np.ndarray, frac: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Separation-of-variables integrand, shape (shifts, count).

    ``frac`` is ``frac(k*g)`` for a slice of the round's lattice, shape
    (n-1, count); ``shifts`` holds one Cranley-Patterson shift per row.
    All shifted points sit in one coordinate-major (n-1, shifts*count)
    array, and row ``i`` is overwritten by its quantiles once coordinate
    ``i`` is drawn.
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
        u.clip(_U_LO, _U_HI, out=u)  # still runs through numpy._core._methods._clip
        ndtri(u, out=u)
        np.dot(factor[i, :i], points[:i], out=conditional)
        np.subtract(limits[i], conditional, out=conditional)
        conditional /= factor[i, i]
        ndtr(conditional, out=e)
        prob *= e
    return prob.reshape(len(shifts), count)


def mvn_cdf(problem: MvnProblem, pivot: tuple[np.ndarray, np.ndarray] | None = None) -> MvnEstimate:
    """Estimate P(Z <= upper_limits) for Z ~ N(0, corr).

    A limit of -inf short-circuits to 0; +inf coordinates are dropped
    (exact marginalization).  The 1-D case is evaluated exactly.  With
    ``pivot``, the problem's pair from :func:`pivot_limits`, the call
    skips those checks and its own pivoting.
    """
    if pivot is not None:
        factor, limits = pivot
    else:
        limits = problem.upper_limits
        if np.any(np.isneginf(limits)):
            return MvnEstimate(value=0.0, est_error=0.0, samples_used=0, converged=True)
        keep = ~np.isposinf(limits)
        if not np.any(keep):
            return MvnEstimate(value=1.0, est_error=0.0, samples_used=0, converged=True)
        limits = limits[keep]
        if limits.size == 1:
            return MvnEstimate(value=float(ndtr(limits[0])), est_error=0.0, samples_used=0, converged=True)
        factors, permuted = _pivoted_cholesky(problem.corr.entries[np.ix_(keep, keep)][None], limits[None])
        factor, limits = factors[0], permuted[0]
    n = limits.size
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
        shifts = _round_shifts(problem.seed, round_idx, n - 1)
        span = min(lattice_size, _BLOCK_ROWS)
        frac_buf = np.empty((n - 1, span))
        per_block = _BLOCK_ROWS // span
        for start in range(0, _NUM_SHIFTS, per_block):
            block = slice(start, start + per_block)
            prob = np.empty((len(shifts[block]), lattice_size))
            for lo in range(0, lattice_size, span):
                hi = min(lo + span, lattice_size)
                if start == 0 or lattice_size > span:  # a one-slice lattice is built once a round
                    frac = _lattice_frac(generator, lo, hi, frac_buf)
                prob[:, lo:hi] = _sov_block(factor, limits, frac, shifts[block])
            shift_sums[block] += lattice_size * prob.mean(axis=1)
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
