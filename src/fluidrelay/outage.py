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

Because both outage probabilities are the *same* nondecreasing CDF at
different arguments, comparing them is equivalent to comparing the
arguments, which :func:`af_df_boundary` does in closed form, so selection
stays exact instead of inheriting the CDF engine's sampling noise.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import CorrelationMatrix
from .errors import InfeasibleError
from .mvncdf import (
    DEFAULT_MAX_SAMPLES,
    DEFAULT_TARGET_ABS_ERROR,
    MvnEstimate,
    MvnProblem,
    check_engine_settings,
    mvn_cdf,
    pivot_problems,
    std_normal_quantile,
)
from .seeding import derive_seed

# phi^{-1} diverges at 0/1; clamping the marginal here bounds the copula
# error below the engine tolerance.
_MARGINAL_LO = 1e-12
_MARGINAL_HI = 1.0 - 1e-12


def snr_threshold(xi: float) -> float:
    """SNR threshold ``2^(2*xi) - 1`` of the half-duplex rate threshold ``xi``.

    Raises ValueError unless ``0 < xi < 512`` (which rejects NaN and inf);
    from ``xi = 512`` on, ``2^(2*xi)`` overflows a double.
    """
    if not 0 < xi < 512.0:
        raise ValueError(f"rate threshold xi must lie in (0, 512), got {xi}")
    return 2.0 ** (2.0 * xi) - 1.0


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
        for name in ("alpha_ur", "alpha_ub", "alpha_rb", "sigma2_relay", "sigma2_bs"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")

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
    is ``(C+1)*a + a*b >= C^2 + C``, solved for ``a`` so nothing overflows near xi = 512.
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
    direct = q.p_user * lb.gamma_bar_ub
    relay_term = q.p_relay * lb.gamma_bar_rb + 1.0
    shortfall = c_th - direct
    value = lb.sigma2_relay * relay_term * shortfall / (lb.alpha_ur * q.p_user * margin)
    if math.isfinite(value):
        return value
    scale = lb.sigma2_relay / lb.alpha_ur
    if math.isinf(direct):
        # shortfall / margin -> -1 as the direct mean SNR grows.
        return -scale * (relay_term / q.p_user)
    if math.isinf(relay_term):
        # relay_term / margin -> 1 as the relay's mean SNR grows.
        return scale * (shortfall / q.p_user)
    # Both products overflow when C_th is huge (xi near 512); the same
    # ratio grouped factor by factor stays in range.
    return scale * (relay_term / q.p_user) * (shortfall / margin)


def xi_df(q: OutageQuery, lb: LinkBudget) -> float:
    """Best-port-gain threshold whose crossing means DF outage (always > 0)."""
    if q.p_user <= 0:
        raise ValueError("xi_df requires p_user > 0")
    return lb.sigma2_relay * q.c_th / (lb.alpha_ur * q.p_user)


def select_scheme(q: OutageQuery, lb: LinkBudget) -> Selection:
    """OP-minimizing scheme (tie -> AF); INFEASIBLE when the mean SNR sum is <= C_th.

    Decided by :func:`af_df_boundary`, without evaluating ``xi_af`` or ``xi_df``.
    """
    if mean_snr_sum(q.p_user, q.p_relay, lb.gamma_bar_ub, lb.gamma_bar_rb) <= q.c_th:
        return Selection.INFEASIBLE
    if q.p_user == 0:
        # No user signal: outage certain with either scheme (both
        # thresholds diverge); tie convention picks AF.
        return Selection.AF
    direct = q.p_user * lb.gamma_bar_ub
    return Selection.AF if direct >= af_df_boundary(q.p_relay * lb.gamma_bar_rb, q.c_th) else Selection.DF


class BestGainCdf:
    """Gaussian-copula CDF of the best-port gain on one matrix, with one engine config.

    Each threshold's estimate is memoized for the life of the object, so
    a repeated threshold reaches the engine once.  ``thresholds`` are the
    ones the object expects: their distinct positive values wait as
    engine problems for their lookups, for :class:`OutageCdfs` to pivot
    in one stack meanwhile.  Each lookup still makes its own ``mvn_cdf``
    call, looked up at call time, so a wrapper patched onto this module
    sees every engine call.  Threads that share an object and miss on the
    same threshold at once each evaluate it, with equal estimates (the
    engine is deterministic); :func:`op_surface` shares none.
    """

    def __init__(self, corr: CorrelationMatrix, config: CopulaConfig = CopulaConfig(), thresholds=()):
        self.corr = corr
        self.config = config
        self._memo: dict[float, MvnEstimate] = {}
        # Expected thresholds not yet evaluated; a 1-port CDF is exact and needs no pivot.
        distinct = dict.fromkeys(x for x in map(float, thresholds) if x > 0 and corr.dim >= 2)
        self._pending: dict[float, MvnProblem] = {x: self._problem(x) for x in distinct}

    def _problem(self, x: float) -> MvnProblem:
        marginal = -np.expm1(-x)
        marginal = min(max(marginal, _MARGINAL_LO), _MARGINAL_HI)
        z = std_normal_quantile(marginal)
        return MvnProblem(
            corr=self.corr,
            upper_limits=np.full(self.corr.dim, z),
            target_abs_error=self.config.target_abs_error,
            max_samples=self.config.max_samples,
            seed=self.config.seed,
        )

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
            problem = self._pending.pop(x, None)
            estimate = self._memo[x] = mvn_cdf(problem if problem is not None else self._problem(x))
        return estimate


class OutageCdfs:
    """The AF and DF best-gain CDFs behind :func:`outage_probabilities`.

    Both are on ``corr``; their engine seeds are ``derive_seed(config.seed, 0)``
    (AF) and ``derive_seed(config.seed, 1)`` (DF), derived once here.  The
    ``(AF, DF)`` pairs in ``thresholds`` are the ones expected; both
    schemes' engine problems for them are pivoted here in one stack.
    """

    def __init__(self, corr: CorrelationMatrix, config: CopulaConfig = CopulaConfig(), thresholds=()):
        af, df = zip(*thresholds) if thresholds else ((), ())
        self.af = BestGainCdf(corr, replace(config, seed=derive_seed(config.seed, 0)), af)
        self.df = BestGainCdf(corr, replace(config, seed=derive_seed(config.seed, 1)), df)
        pivot_problems([*self.af._pending.values(), *self.df._pending.values()])


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


def _thresholds(q: OutageQuery, lb: LinkBudget) -> tuple[float, float] | None:
    """Best-gain (AF, DF) thresholds of ``q``, or None when outage is certain either way."""
    if q.p_user == 0 or mean_snr_sum(q.p_user, q.p_relay, lb.gamma_bar_ub, lb.gamma_bar_rb) <= q.c_th:
        return None
    return max(xi_af(q, lb), 0.0), xi_df(q, lb)


def outage_probabilities(
    q: OutageQuery,
    lb: LinkBudget,
    corr: CorrelationMatrix | OutageCdfs,
    config: CopulaConfig | None = None,
) -> OutageResult:
    """AF and DF outage probabilities plus the scheme selection.

    ``corr`` is the port correlation matrix (evaluated with ``config``,
    default ``CopulaConfig()``) or an :class:`OutageCdfs`, whose memos
    then serve the call.  The infeasible region (mean SNR sum <= C_th,
    boundary included) returns exactly (1, 1, INFEASIBLE).  A nonpositive
    AF threshold returns OP_AF exactly 0.
    """
    selection = select_scheme(q, lb)
    thresholds = _thresholds(q, lb)
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
        cdfs = OutageCdfs(corr, config, [pair for q in queries if (pair := _thresholds(q, lb)) is not None])
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
