"""Monte Carlo validation, benchmark schemes, and parameter sweeps.

Everything here is trial-indexed: trial ``t`` of user ``k`` draws its
channel from the substream ``(seed, t, k, 0)`` and its random powers
(random-power benchmark only) from ``(seed, t, k, 1)``.  Streams never
depend on the scheme or the sweep value, which gives common random
numbers across schemes and sweep values: scheme comparisons are
per-trial comparisons (a 1x1-port grid consumes the same leading draws
as a larger grid, making the TAS benchmark the exact degenerate case of
the proposed scheme).

A ``TrialDraws`` object holds one run's draws as ``(T, K)`` arrays, the
gains made once per port grid: ``run_sweep`` passes one to every
``run_benchmark`` call, whatever the number of schemes and sweep values.

``run_benchmark`` takes one scheme's ``(T, K)`` user->relay SNRs from
one ``draw_gamma_ur`` call and solves every trial and user in one array
pass, users as columns: ``solve_system`` for ``proposed`` and ``tas``,
one ``optimize_powers`` call for ``avg_bandwidth``, and one set of power
draws with row-wise bandwidth for ``random_power``.  A sweep thus makes
one pass per scheme and sweep value, whatever the number of users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .allocator import (
    SnrTriple,
    UserConfig,
    allocate_bandwidth_rows,
    half_duplex_rate,
    optimize_powers,
    power_box,
    scheme_snr,
    snr_af,
    snr_df,
    solve_system,
    sum_over_users,
)
from .channel import CorrelationMatrix, PortGrid, best_gain_sq, build_correlation, sample_gains
from .domain import check
from .errors import InfeasibleError
from .outage import (
    LinkBudget,
    OutageQuery,
    OutageResult,
    Selection,
    mean_snr_sum,
    outage_thresholds,
    scheme_region,
    snr_threshold,
)
from .seeding import substream

PROPOSED = "proposed"
TAS = "tas"
AVG_BANDWIDTH = "avg_bandwidth"
RANDOM_POWER = "random_power"
SCHEMES = (PROPOSED, TAS, AVG_BANDWIDTH, RANDOM_POWER)

SWEEP_VARIABLES = ("num_users", "num_ports", "relay_power_max")

_CHANNEL_TAG = 0
_POWER_TAG = 1
_SAMPLE_CHUNK = 1 << 15
# Rows per sample_gains call inside a chunk: bounds the validator's temporaries.
_DRAW_BLOCK = 1 << 10

# Fixed parts of random_scenario: 5 MHz, 0.1 W power caps, -120 dBm
# noise, and dB windows in which the direct user->BS link is weak (users
# far from the BS) and the two relay hops are stronger.
RANDOM_TOTAL_BW = 5e6
RANDOM_P_MAX = 0.1
RANDOM_SIGMA2 = 1e-15
DEFAULT_ALPHA_UB_DB = (-115.0, -105.0)
DEFAULT_ALPHA_UR_DB = (-95.0, -85.0)
DEFAULT_ALPHA_RB_DB = (-95.0, -85.0)


@dataclass(frozen=True)
class Scenario:
    """Full multi-user setup for benchmarking and sweeps."""

    users: tuple[UserConfig, ...]
    grid: PortGrid
    total_bw: float
    xi: float
    seed: int
    trials: int

    def __post_init__(self):
        if not self.users:
            raise ValueError("scenario requires at least one user")
        check("total_bw_hz", self.total_bw, "total_bw")
        snr_threshold(self.xi)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "users", tuple(self.users))

    @property
    def c_th(self) -> float:
        return snr_threshold(self.xi)


def _check_sweep_value(variable: str, value) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{variable} sweep value {value!r} must be finite")
    if variable == "relay_power_max":
        check("power_w", value, f"relay_power_max sweep value {value!r}")
    elif value != int(value) or value < 1:
        raise ValueError(f"{variable} sweep value {value!r} must be a positive integer")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple
    schemes: tuple[str, ...] = SCHEMES

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}, expected one of {SWEEP_VARIABLES}")
        values = tuple(self.values)
        if not values:
            raise ValueError("sweep values must be nonempty")
        for value in values:
            _check_sweep_value(self.variable, value)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        schemes = tuple(self.schemes)
        unknown = [s for s in schemes if s not in SCHEMES]
        if unknown or not schemes:
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}, got {schemes}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "schemes", schemes)


@dataclass(frozen=True)
class CdfPoint:
    x: float
    cdf: float
    std_err: float


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    sum_rate: float
    feasible: bool
    reason: str = ""


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    scheme: str
    trial: int
    sum_rate: float
    feasible: bool


@dataclass(frozen=True)
class SweepSummary:
    sweep_value: float
    scheme: str
    mean_sum_rate: float
    std_error: float
    trials_used: int
    trials_excluded: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    summary: tuple[SweepSummary, ...]


def random_scenario(
    num_users: int,
    seed: int,
    grid: PortGrid = PortGrid(4, 4, 1.0, 1.0),
    xi: float = 0.1,
    trials: int = 100,
    rate_min: float = 0.5e6,
) -> Scenario:
    """Scenario with placement abstracted into log-uniform large-scale gains.

    Bandwidth, power caps, noise and dB windows are the ``RANDOM_*`` and
    ``DEFAULT_ALPHA_*_DB`` constants.  Users are ordered so the average
    direct-link gain increases with the user index.  Minimum powers are
    derived by ``power_box`` as the smallest feasible scaling of the maxima.
    """
    rng = substream(seed, 0xA1FA)
    c_th = snr_threshold(xi)
    users = []
    for _ in range(num_users):
        budget = LinkBudget(
            alpha_ur=10.0 ** (rng.uniform(*DEFAULT_ALPHA_UR_DB) / 10.0),
            alpha_ub=10.0 ** (rng.uniform(*DEFAULT_ALPHA_UB_DB) / 10.0),
            alpha_rb=10.0 ** (rng.uniform(*DEFAULT_ALPHA_RB_DB) / 10.0),
            sigma2_relay=RANDOM_SIGMA2,
            sigma2_bs=RANDOM_SIGMA2,
        )
        users.append(power_box(budget, RANDOM_P_MAX, RANDOM_P_MAX, rate_min, c_th))
    return Scenario(
        users=order_users_by_gain(users), grid=grid, total_bw=RANDOM_TOTAL_BW, xi=xi, seed=seed, trials=trials
    )


def order_users_by_gain(users) -> tuple[UserConfig, ...]:
    """Ascending average-channel-gain order (direct-link gain primary)."""
    return tuple(sorted(users, key=lambda u: (u.budget.alpha_ub, u.budget.alpha_ur, u.budget.alpha_rb)))


def _best_gain_blocks(corr: CorrelationMatrix, trials: int, seed: int):
    """Best-port |h|^2 of ``trials`` draws, yielded a block at a time.

    Chunk ``c`` holds trials ``c * _SAMPLE_CHUNK`` onwards and draws them
    from ``substream(seed, c)`` in blocks of ``_DRAW_BLOCK`` rows, one
    ``sample_gains`` call each.  The stream is prefix-stable, so the
    blocks read the draws one call per chunk would, and give its bits:
    a one-row product takes numpy's matrix-vector path, which rounds
    differently, so a one-row tail joins the block before it.  A block
    peaks in its ``sample_gains`` call, at 32 * N bytes a row: 0.5 MB on a
    4x4 grid.
    """
    for chunk_idx, chunk_start in enumerate(range(0, trials, _SAMPLE_CHUNK)):
        rng = substream(seed, chunk_idx)
        chunk_stop = min(chunk_start + _SAMPLE_CHUNK, trials)
        start = chunk_start
        while start < chunk_stop:
            stop = min(start + _DRAW_BLOCK, chunk_stop)
            if chunk_stop - stop == 1:
                stop = chunk_stop
            yield best_gain_sq(sample_gains(corr, rng, stop - start))
            start = stop


def _best_gain_samples(corr: CorrelationMatrix, trials: int, seed: int) -> np.ndarray:
    """All ``trials`` best-port |h|^2 samples of :func:`_best_gain_blocks`.

    Holds the ``(trials,)`` result, 8 bytes a trial, besides one block.
    """
    out = np.empty(trials)
    start = 0
    for gains in _best_gain_blocks(corr, trials, seed):
        out[start : start + len(gains)] = gains
        start += len(gains)
    return out


def binomial_std_err(p: float, trials: int) -> float:
    """Standard error of a proportion ``p`` estimated from ``trials`` draws."""
    return math.sqrt(p * (1.0 - p) / trials)


def empirical_best_gain_cdf(corr: CorrelationMatrix, xs, trials: int, seed: int) -> list[CdfPoint]:
    """Empirical CDF of the best-port gain with binomial standard errors."""
    if trials < 10_000:
        raise ValueError("empirical CDF needs at least 1e4 trials")
    samples = _best_gain_samples(corr, trials, seed)
    points = []
    for x in xs:
        p = float(np.count_nonzero(samples <= x) / trials)
        points.append(CdfPoint(x=float(x), cdf=p, std_err=binomial_std_err(p, trials)))
    return points


def empirical_outage(
    q: OutageQuery,
    lb: LinkBudget,
    corr: CorrelationMatrix,
    trials: int,
    seed: int,
) -> OutageResult:
    """Monte Carlo AF and DF outage probabilities under the analytic model's CSI rules.

    Both schemes are evaluated on one draw of best-port gains, by the
    allocator's :func:`snr_af` and :func:`snr_df`.  Mean
    UB/RB SNRs are used exactly as the analytic OP does, so certain
    outage is deterministic (both 1.0 with zero variance); only the
    best-port gain is sampled.  The selection and the certain-outage test
    come from :func:`outage_thresholds`, as in ``outage_probabilities``.  Outages
    are counted per block of :func:`_best_gain_blocks`, so a call holds
    one block (32 * N bytes a row, 0.5 MB on a 4x4 grid) and no array of
    ``trials`` length.
    """
    if trials < 10_000:
        raise ValueError("empirical outage needs at least 1e4 trials")
    selection, thresholds = outage_thresholds(q, lb)  # the thresholds go unused: outages are counted
    if thresholds is None:
        return OutageResult(op_af=1.0, op_df=1.0, selection=selection)
    c_th = q.c_th
    af_outages = df_outages = 0
    for gains in _best_gain_blocks(corr, trials, seed):
        snrs = SnrTriple.from_budget(lb, lb.alpha_ur * gains / lb.sigma2_relay)
        # 0.5*log2(1+snr) < xi is equivalent to snr < C_th.
        af_outages += np.count_nonzero(snr_af(q.p_user, q.p_relay, snrs) < c_th)
        df_outages += np.count_nonzero(snr_df(q.p_user, q.p_relay, snrs) < c_th)
    return OutageResult(
        op_af=float(af_outages / trials),
        op_df=float(df_outages / trials),
        selection=selection,
    )


class TrialDraws:
    """One run's draws as arrays over ``trials`` x ``num_users``, each made once.

    Each (trial, user) channel stream is derived once and restarted from
    its first state for every port grid, so each grid reads the draws of
    a fresh stream.  A one-port dimension's aperture sets no correlation,
    so it is left out of the gains' key: the TAS grid shares every 1x1
    grid's draw.  Power streams are derived only when asked for.
    """

    def __init__(self, seed: int, trials: int, num_users: int):
        self.seed = seed
        self.trials = trials
        self.num_users = num_users
        rngs = [substream(seed, t, k, _CHANNEL_TAG) for t, k in np.ndindex(trials, num_users)]
        self._channel_streams = [(rng, rng.bit_generator.state) for rng in rngs]
        self._best_gains: dict[tuple, np.ndarray] = {}
        self._power_uniforms: np.ndarray | None = None

    def best_gains(self, grid: PortGrid) -> np.ndarray:
        """``(T, K)`` best-port |h|^2 on ``grid``: one ``sample_gains`` row per (trial, user) stream."""
        key = (grid.n1, grid.n2, grid.w1 if grid.n1 > 1 else 0.0, grid.w2 if grid.n2 > 1 else 0.0)
        if key not in self._best_gains:
            corr = build_correlation(grid)
            rows = []
            for rng, start in self._channel_streams:
                rng.bit_generator.state = start
                rows.append(sample_gains(corr, rng, 1)[0])
            gains = np.reshape(rows, (self.trials, self.num_users, corr.dim))
            self._best_gains[key] = best_gain_sq(gains)
        return self._best_gains[key]

    def power_uniforms(self) -> np.ndarray:
        """``(T, K, 2)`` (p_user, p_relay) uniforms, one ``random(2)`` per (trial, user) power stream."""
        if self._power_uniforms is None:
            keys = np.ndindex(self.trials, self.num_users)
            pairs = [substream(self.seed, t, k, _POWER_TAG).random(2) for t, k in keys]
            self._power_uniforms = np.reshape(pairs, (self.trials, self.num_users, 2))
        return self._power_uniforms


def draw_gamma_ur(users, grid: PortGrid, draws: TrialDraws) -> np.ndarray:
    """``(T, K)`` instantaneous user->relay normalized SNRs on ``grid``, one column per user."""
    gains = draws.best_gains(grid)[:, : len(users)]
    return [user.budget.alpha_ur for user in users] * gains / [user.budget.sigma2_relay for user in users]


def _solve_average_bandwidth(users, total_bw, c_th, gammas):
    """Optimal powers but an equal bandwidth split: per-trial sum rates and reasons."""
    triple = SnrTriple.from_budget([user.budget for user in users], gammas)
    try:
        pu, pr, scheme = optimize_powers(users, triple, c_th)
    except InfeasibleError as err:  # a power box fails whatever the channel
        return np.zeros(len(gammas)), (err.reason,) * len(gammas)
    rate = half_duplex_rate(total_bw / len(users), scheme_snr(scheme, pu, pr, triple))
    short = np.any(rate < [u.rate_min for u in users], axis=1)
    reasons = tuple("INFEASIBLE_BANDWIDTH" if s else "" for s in short)
    return np.where(short, 0.0, sum_over_users(rate)), reasons


def _solve_random_power(users, total_bw, c_th, gammas, uniforms):
    """Uniform random powers in the box, scheme by the selection rule: per-trial sum rates and reasons."""
    u_lo, u_hi, r_lo, r_hi = np.array([(u.p_user_min, u.p_user_max, u.p_relay_min, u.p_relay_max) for u in users]).T
    # lo + (hi - lo)*u is exactly what Generator.uniform(lo, hi) returns.
    pu = u_lo + (u_hi - u_lo) * uniforms[:, : len(users), 0]
    pr = r_lo + (r_hi - r_lo) * uniforms[:, : len(users), 1]
    triple = SnrTriple.from_budget([user.budget for user in users], gammas)
    gub, grb = (np.broadcast_to(g, gammas.shape) for g in (triple.gamma_ub, triple.gamma_rb))
    reach = mean_snr_sum(pu, pr, gub, grb) >= c_th  # a draw that misses C_th: INFEASIBLE_POWER
    sends = reach & (pu > 0)  # a 0 W draw has SNR 0 under either scheme; the rule's tie convention picks AF
    scheme = np.full(gammas.shape, Selection.AF, dtype=object)
    scheme[sends] = scheme_region(pu[sends], pr[sends], c_th, gub[sends], grb[sends])
    snr = scheme_snr(scheme, pu, pr, triple)
    bandwidth, errors = allocate_bandwidth_rows(snr, [u.rate_min for u in users], total_bw)
    rate = half_duplex_rate(bandwidth, snr)
    short = ~reach.all(axis=1)
    reasons = ("INFEASIBLE_POWER" if s else "" if err is None else err.reason for s, err in zip(short, errors))
    return np.where(short, 0.0, sum_over_users(rate)), tuple(reasons)


def run_benchmark(
    scenario: Scenario, scheme: str, seed: int, draws: TrialDraws | None = None
) -> list[TrialRecord]:
    """Per-trial sum rates for one scheme; infeasible trials carry zero rate.

    Every trial of the scheme is solved in one array pass over (trial,
    user).  ``draws`` shares one run's draws between calls; by default the
    call makes its own.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown benchmark scheme {scheme!r}, expected one of {SCHEMES}")
    users, total_bw = scenario.users, scenario.total_bw
    if draws is None:
        draws = TrialDraws(seed, scenario.trials, len(users))
    elif draws.seed != seed:
        raise ValueError(f"draws were made for seed {draws.seed}, not {seed}")
    elif draws.trials != scenario.trials or draws.num_users < len(users):
        raise ValueError(
            f"draws were made for {draws.trials} trials of {draws.num_users} users, "
            f"not {scenario.trials} trials of {len(users)}"
        )
    grid = PortGrid(1, 1, 0.0, 0.0) if scheme == TAS else scenario.grid
    gammas = draw_gamma_ur(users, grid, draws)
    if scheme in (PROPOSED, TAS):
        result = solve_system(users, total_bw, scenario.xi, gammas)
        sum_rate, reasons = result.sum_rate, tuple("" if err is None else err.reason for err in result.errors)
    elif scheme == AVG_BANDWIDTH:
        sum_rate, reasons = _solve_average_bandwidth(users, total_bw, scenario.c_th, gammas)
    else:
        uniforms = draws.power_uniforms()
        sum_rate, reasons = _solve_random_power(users, total_bw, scenario.c_th, gammas, uniforms)
    return [
        TrialRecord(trial=trial, sum_rate=float(rate), feasible=not reason, reason=reason)
        for trial, (rate, reason) in enumerate(zip(sum_rate, reasons))
    ]


def _sweep_scenario(scenario: Scenario, variable: str, value) -> Scenario:
    if variable == "num_users":
        count = int(value)
        ordered = order_users_by_gain(scenario.users)
        if not 1 <= count <= len(ordered):
            raise ValueError(
                f"num_users sweep value {count} outside [1, {len(ordered)}]; "
                "the scenario must list at least that many users"
            )
        return replace(scenario, users=ordered[:count])
    if variable == "num_ports":
        side = int(value)
        return replace(scenario, grid=PortGrid(side, side, scenario.grid.w1, scenario.grid.w2))
    if variable == "relay_power_max":
        try:
            users = [power_box(u.budget, u.p_user_max, float(value), u.rate_min, scenario.c_th) for u in scenario.users]
        except InfeasibleError as err:
            raise InfeasibleError(err.reason, f"{variable}={value:g}: {err.detail}") from err
        return replace(scenario, users=tuple(users))
    raise ValueError(f"unknown sweep variable {variable!r}")


def run_sweep(scenario: Scenario, spec: SweepSpec) -> SweepResult:
    """Long-format sum-rate table over (sweep value, scheme, trial).

    Channel substreams are keyed only by (seed, trial, user), so every
    sweep value and scheme sees the same draws (common random numbers);
    the `num_ports` sweep at side 1 reproduces the TAS scheme exactly.
    One ``TrialDraws`` serves every value and scheme.
    """
    rows: list[SweepRow] = []
    summaries: list[SweepSummary] = []
    draws = TrialDraws(scenario.seed, scenario.trials, len(scenario.users))
    for value in spec.values:
        derived = _sweep_scenario(scenario, spec.variable, value)
        for scheme in spec.schemes:
            records = run_benchmark(derived, scheme, scenario.seed, draws)
            feasible_rates = [r.sum_rate for r in records if r.feasible]
            for record in records:
                rows.append(
                    SweepRow(
                        sweep_value=float(value),
                        scheme=scheme,
                        trial=record.trial,
                        sum_rate=record.sum_rate,
                        feasible=record.feasible,
                    )
                )
            used = len(feasible_rates)
            if used == 0:
                mean = 0.0
                std_err = 0.0
            else:
                mean = float(np.mean(feasible_rates))
                std_err = float(np.std(feasible_rates, ddof=1) / math.sqrt(used)) if used > 1 else 0.0
            summaries.append(
                SweepSummary(
                    sweep_value=float(value),
                    scheme=scheme,
                    mean_sum_rate=mean,
                    std_error=std_err,
                    trials_used=used,
                    trials_excluded=len(records) - used,
                )
            )
    return SweepResult(rows=tuple(rows), summary=tuple(summaries))
