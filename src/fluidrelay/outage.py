"""Outage probabilities and OP-minimized relaying-scheme selection.

The relay has only statistical CSI for the user->BS and relay->BS links
(mean normalized SNRs), while the user->relay hop runs through the fluid
antenna and is random.  With half-duplex MRC, the outage event for either
relaying scheme reduces to a threshold event on the best-port gain
``|h|^2``:

* feasibility: if ``p_u * gub + p_r * grb <= C_th`` (mean SNRs), outage is
  certain with either scheme;
* AF: outage iff ``|h|^2 < xi_af(p_u, p_r)``;
* DF: outage iff ``|h|^2 < xi_df(p_u, p_r)``;

with ``C_th = 2**(2*xi) - 1`` the SNR threshold equivalent to the rate
threshold ``xi`` under half-duplex.  The CDF of the best-port gain is
approximated by a Gaussian copula over the port correlation matrix: each
marginal ``1 - exp(-x)`` is pushed through the standard-normal quantile
and evaluated under the joint normal CDF.

This module owns the OP-minimized AF/DF rule.  Both outage probabilities
are the *same* nondecreasing CDF at different arguments, so comparing
them is comparing the arguments, which :func:`af_df_boundary` does in
closed form and without the CDF engine's sampling noise: AF minimizes
outage iff the direct mean SNR ``p_u*gub`` reaches the boundary at the
relay mean SNR ``p_r*grb`` (ties go to AF).  Its two entry points differ
only in feasibility: :func:`select_scheme` (the outage map) returns
INFEASIBLE at a mean SNR sum equal to C_th, where outage is certain,
while :func:`scheme_region` (the allocator) takes that sum as a feasible
corner of the power box and rejects only a sum below C_th.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import CorrelationMatrix
from .domain import check
from .errors import InfeasibleError
from .mvncdf import (
    DEFAULT_MAX_SAMPLES,
    DEFAULT_TARGET_ABS_ERROR,
    MvnEstimate,
    MvnProblem,
    check_engine_settings,
    mvn_cdf,
    pivot_limits,
    std_normal_quantile,
)
from .seeding import derive_seed

# phi^{-1} diverges at 0/1; clamping the marginal here bounds the copula
# error below the engine tolerance.
_MARGINAL_LO = 1e-12
_MARGINAL_HI = 1.0 - 1e-12


def snr_threshold(xi: float) -> float:
    """SNR threshold ``2^(2*xi) - 1`` of the half-duplex rate threshold ``xi``; ValueError outside the domain."""
    return 2.0 ** (2.0 * check("xi_bits", xi, "xi")) - 1.0


class Selection(str, enum.Enum):
    """Relaying decision: AF, DF, or certain outage either way."""

    AF = "AF"
    DF = "DF"
    INFEASIBLE = "INFEASIBLE"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class LinkBudget:
    """Per-user large-scale link budget (linear gains, watt noise powers)."""

    alpha_ur: float
    alpha_ub: float
    alpha_rb: float
    sigma2_relay: float
    sigma2_bs: float

    def __post_init__(self):
        for name in ("alpha_ur", "alpha_ub", "alpha_rb"):
            check("gain", getattr(self, name), name)
        for name in ("sigma2_relay", "sigma2_bs"):
            check("noise_w", getattr(self, name), name)

    @property
    def gamma_bar_ub(self) -> float:
        """Mean user->BS SNR per watt of user power."""
        return self.alpha_ub / self.sigma2_bs

    @property
    def gamma_bar_rb(self) -> float:
        """Mean relay->BS SNR per watt of relay power."""
        return self.alpha_rb / self.sigma2_bs


@dataclass(frozen=True)
class OutageQuery:
    """Transmit powers and the rate threshold (bits/s/Hz) being probed."""

    p_user: float
    p_relay: float
    xi: float

    def __post_init__(self):
        if not all(math.isfinite(p) and p >= 0 for p in (self.p_user, self.p_relay)):
            raise ValueError("transmit powers must be finite and nonnegative")
        snr_threshold(self.xi)

    @property
    def c_th(self) -> float:
        """SNR threshold 2^(2*xi) - 1 (half-duplex rate threshold xi)."""
        return snr_threshold(self.xi)


@dataclass(frozen=True)
class OutageResult:
    op_af: float
    op_df: float
    selection: Selection

    def __post_init__(self):
        if not 0.0 <= self.op_af <= 1.0 or not 0.0 <= self.op_df <= 1.0:
            raise ValueError("outage probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class CopulaConfig:
    """Accuracy/seed knobs forwarded to the MVN engine, checked on construction."""

    target_abs_error: float = DEFAULT_TARGET_ABS_ERROR
    max_samples: int = DEFAULT_MAX_SAMPLES
    seed: int = 0

    def __post_init__(self):
        check_engine_settings(self.target_abs_error, self.max_samples, self.seed)


def mean_snr_sum(p_user: float, p_relay: float, gamma_bar_ub: float, gamma_bar_rb: float) -> float:
    """Mean SNR sum ``p_u*gub + p_r*grb``; the feasibility test compares it with C_th."""
    return p_user * gamma_bar_ub + p_relay * gamma_bar_rb


def af_df_boundary(relay_snr: float, c_th: float) -> float:
    """Direct mean SNR ``a`` at which AF and DF outage tie, at relay mean SNR ``b``.

    AF minimizes outage iff ``a`` reaches it (ties go to AF): ``xi_af <= xi_df``
    is ``(C+1)*a + a*b >= C^2 + C``, solved for ``a``.
    """
    return c_th * ((c_th + 1.0) / (c_th + 1.0 + relay_snr))


def xi_af(q: OutageQuery, lb: LinkBudget) -> float:
    """Best-port-gain threshold whose crossing means AF outage.

    Negative when the direct link alone clears the SNR threshold (outage
    then impossible).  Requires a strictly feasible query.
    """
    if q.p_user <= 0:
        raise ValueError("xi_af requires p_user > 0")
    c_th = q.c_th
    total = mean_snr_sum(q.p_user, q.p_relay, lb.gamma_bar_ub, lb.gamma_bar_rb)
    margin = total - c_th
    if margin <= 0:
        raise InfeasibleError(
            "INFEASIBLE_POWER",
            f"mean SNR sum {total:.6g} does not exceed threshold {c_th:.6g}",
        )
    relay_term = q.p_relay * lb.gamma_bar_rb + 1.0
    shortfall = c_th - q.p_user * lb.gamma_bar_ub
    return lb.sigma2_relay * relay_term * shortfall / (lb.alpha_ur * q.p_user * margin)


def xi_df(q: OutageQuery, lb: LinkBudget) -> float:
    """Best-port-gain threshold whose crossing means DF outage (always > 0)."""
    if q.p_user <= 0:
        raise ValueError("xi_df requires p_user > 0")
    return lb.sigma2_relay * q.c_th / (lb.alpha_ur * q.p_user)


# Indexed by a DF flag; an object array keeps the members (numpy would turn
# the ``str`` enum into plain strings).
_SELECTIONS = np.array([Selection.AF, Selection.DF], dtype=object)


def _selections(df):
    """``Selection.DF`` where ``df`` holds, else AF; a member for a scalar flag."""
    return _SELECTIONS[np.asarray(df, dtype=np.intp)]


def _af_minimizes_outage(p_user, p_relay, c_th: float, gamma_bar_ub: float, gamma_bar_rb: float):
    """The rule at a power point: AF minimizes outage (ties go to AF); floats stay free of numpy."""
    return p_user * gamma_bar_ub >= af_df_boundary(p_relay * gamma_bar_rb, c_th)


def _df_region_touches(p_user: float, p_relay: float, c_th: float, gamma_bar_ub: float, gamma_bar_rb: float) -> bool:
    """True when the point is in the DF region's closure (on or below the boundary): the allocator's DF test."""
    return p_user * gamma_bar_ub <= af_df_boundary(p_relay * gamma_bar_rb, c_th)


def select_scheme(q: OutageQuery, lb: LinkBudget) -> Selection:
    """The module's rule for one query, INFEASIBLE when the mean SNR sum is <= C_th; needs no ``xi_af``/``xi_df``."""
    c_th = q.c_th
    if mean_snr_sum(q.p_user, q.p_relay, lb.gamma_bar_ub, lb.gamma_bar_rb) <= c_th:
        return Selection.INFEASIBLE
    if q.p_user == 0:
        # No user signal: outage certain either way (both thresholds diverge); ties pick AF.
        return Selection.AF
    af = _af_minimizes_outage(q.p_user, q.p_relay, c_th, lb.gamma_bar_ub, lb.gamma_bar_rb)
    return Selection.AF if af else Selection.DF


def scheme_region(p_user, p_relay, c_th: float, gamma_bar_ub: float, gamma_bar_rb: float):
    """The module's rule at feasible power points (a sum equal to C_th is one), elementwise over arrays of powers."""
    if np.any(p_user <= 0):
        raise ValueError("scheme_region requires p_user > 0")
    total = mean_snr_sum(p_user, p_relay, gamma_bar_ub, gamma_bar_rb)
    if np.any(total < c_th):
        raise ValueError(
            f"scheme_region requires a feasible point: mean SNR sum {np.min(total):.6g} < C_th {c_th:.6g}"
        )
    return _selections(np.logical_not(_af_minimizes_outage(p_user, p_relay, c_th, gamma_bar_ub, gamma_bar_rb)))


def _best_gain_limits(x: float, dim: int) -> np.ndarray:
    """Copula limits of the best-gain CDF at ``x > 0``: the clamped marginal's normal quantile on every port."""
    marginal = min(max(-np.expm1(-x), _MARGINAL_LO), _MARGINAL_HI)
    return np.full(dim, std_normal_quantile(marginal))


class BestGainCdf:
    """Gaussian-copula CDF of the best-port gain on one matrix, with one engine config.

    Each threshold's estimate is memoized for the life of the object, so
    a repeated threshold reaches the engine once.  ``pivots`` maps
    thresholds to their :func:`pivot_limits` pairs on ``corr``; it is only
    read, and a threshold it holds reaches the engine already pivoted.
    Each lookup makes its own ``mvn_cdf`` call, looked up at call time,
    so a wrapper patched onto this module sees every engine call.
    Threads that share an object and miss on the same threshold at once
    each evaluate it, with equal estimates (the engine is deterministic);
    :func:`op_surface` shares none.
    """

    def __init__(self, corr: CorrelationMatrix, config: CopulaConfig = CopulaConfig(), pivots=None):
        self.corr = corr
        self.config = config
        self._pivots = pivots or {}
        self._memo: dict[float, MvnEstimate] = {}

    def estimate(self, x: float) -> MvnEstimate:
        """The CDF at ``x >= 0`` with the engine's error estimate, memoized."""
        if not x >= 0:
            raise ValueError(f"best-gain CDF argument x must be >= 0, got {x}")
        if x == 0:
            # Max of nonnegative variables: P(max <= 0) = 0 exactly.
            return MvnEstimate(value=0.0, est_error=0.0, samples_used=0, converged=True)
        x = float(x)
        estimate = self._memo.get(x)
        if estimate is None:
            problem = MvnProblem(
                corr=self.corr,
                upper_limits=_best_gain_limits(x, self.corr.dim),
                target_abs_error=self.config.target_abs_error,
                max_samples=self.config.max_samples,
                seed=self.config.seed,
            )
            estimate = self._memo[x] = mvn_cdf(problem, self._pivots.get(x))
        return estimate


class OutageCdfs:
    """The AF and DF best-gain CDFs behind :func:`outage_probabilities`.

    Both are on ``corr``; their engine seeds are ``derive_seed(config.seed, 0)``
    (AF) and ``derive_seed(config.seed, 1)`` (DF), derived once here.  The
    distinct positive values among the ``(AF, DF)`` pairs in
    ``thresholds`` are pivoted here in one stack (a 1-port CDF is exact
    and needs none), and both objects read that one dict.
    """

    def __init__(self, corr: CorrelationMatrix, config: CopulaConfig = CopulaConfig(), thresholds=()):
        distinct = dict.fromkeys(x for pair in thresholds for x in map(float, pair) if x > 0)
        pivots = {}
        if distinct and corr.dim >= 2:
            pivots = dict(zip(distinct, pivot_limits(corr, [_best_gain_limits(x, corr.dim) for x in distinct])))
        self.af = BestGainCdf(corr, replace(config, seed=derive_seed(config.seed, 0)), pivots)
        self.df = BestGainCdf(corr, replace(config, seed=derive_seed(config.seed, 1)), pivots)


def _as_cdf(kind: type, corr, config):
    """``corr`` if it is a ``kind`` already (then without ``config``), else ``kind(corr, config)``."""
    if isinstance(corr, kind):
        if config is not None:
            raise TypeError(f"a {kind.__name__} carries its own config")
        return corr
    return kind(corr, CopulaConfig() if config is None else config)


def best_gain_cdf(
    x: float,
    corr: CorrelationMatrix | BestGainCdf,
    config: CopulaConfig | None = None,
) -> float:
    """Gaussian-copula CDF of the best-port gain at ``x >= 0``.

    ``corr`` is the port correlation matrix (evaluated with ``config``,
    default ``CopulaConfig()``) or a :class:`BestGainCdf`, whose memo then
    serves the call.
    """
    return best_gain_cdf_estimate(x, corr, config).value


def best_gain_cdf_estimate(
    x: float,
    corr: CorrelationMatrix | BestGainCdf,
    config: CopulaConfig | None = None,
) -> MvnEstimate:
    """Like :func:`best_gain_cdf` but exposing the engine's error estimate."""
    return _as_cdf(BestGainCdf, corr, config).estimate(x)


def outage_thresholds(q: OutageQuery, lb: LinkBudget) -> tuple[Selection, tuple[float, float] | None]:
    """``q``'s selection and best-gain (AF, DF) thresholds, None for them when outage is certain either way."""
    selection = select_scheme(q, lb)
    if selection is Selection.INFEASIBLE or q.p_user == 0:
        return selection, None
    return selection, (max(xi_af(q, lb), 0.0), xi_df(q, lb))


def outage_probabilities(
    q: OutageQuery,
    lb: LinkBudget,
    corr: CorrelationMatrix | OutageCdfs,
    config: CopulaConfig | None = None,
) -> OutageResult:
    """AF and DF outage probabilities plus the scheme selection.

    ``corr`` is the port correlation matrix (evaluated with ``config``,
    default ``CopulaConfig()``) or an :class:`OutageCdfs`, whose memos
    then serve the call.  Where :func:`outage_thresholds` finds outage
    certain (mean SNR sum <= C_th, or no user power) both are exactly 1.
    A nonpositive AF threshold returns OP_AF exactly 0.
    """
    selection, thresholds = outage_thresholds(q, lb)
    if thresholds is None:
        return OutageResult(op_af=1.0, op_df=1.0, selection=selection)
    cdfs = _as_cdf(OutageCdfs, corr, config)
    x_af, x_df = thresholds
    op_af = best_gain_cdf(x_af, cdfs.af)
    op_df = best_gain_cdf(x_df, cdfs.df)
    return OutageResult(op_af=op_af, op_df=op_df, selection=selection)


@dataclass(frozen=True)
class OpSurfacePoint:
    p_user: float
    p_relay: float
    xi: float
    result: OutageResult


def op_surface(
    p_user_values,
    p_relay_values,
    xi: float,
    lb: LinkBudget,
    corr: CorrelationMatrix,
    config: CopulaConfig = CopulaConfig(),
    n_threads: int | None = None,
) -> list[OpSurfacePoint]:
    """Outage probabilities over a power grid, row-major in (p_user, p_relay).

    Every point shares the map's two engine seeds, derived from
    ``config`` (common random numbers): points with equal thresholds get
    equal probabilities.  Each distinct ``p_user`` value is one row task,
    evaluated once however often it repeats: the row builds its own
    :class:`OutageCdfs` from its ``(AF, DF)`` thresholds, which pivots
    them in one stack, and its memo evaluates a repeated threshold (the DF
    threshold depends on ``p_user`` only) once.  Each point then goes
    through :func:`outage_probabilities` as on its own.  With
    ``n_threads`` > 1 the rows run in a pool; no two tasks share an
    object, so the table and the engine calls do not depend on evaluation
    order or thread count.
    """
    p_user_values = [float(p) for p in p_user_values]
    p_relay_values = [float(p) for p in p_relay_values]
    if not p_user_values or not p_relay_values:
        raise ValueError("op_surface requires a nonempty power grid")

    def evaluate_row(pu):
        queries = [OutageQuery(pu, pr, xi) for pr in p_relay_values]
        cdfs = OutageCdfs(corr, config, [pair for q in queries if (pair := outage_thresholds(q, lb)[1]) is not None])
        return [outage_probabilities(q, lb, cdfs) for q in queries]

    distinct = list(dict.fromkeys(p_user_values))
    if n_threads is not None and n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(evaluate_row, distinct))
    else:
        results = map(evaluate_row, distinct)
    rows = dict(zip(distinct, results))
    return [
        OpSurfacePoint(pu, pr, xi, result)
        for pu in p_user_values
        for pr, result in zip(p_relay_values, rows[pu])
    ]
