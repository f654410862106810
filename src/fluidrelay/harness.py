"""Monte Carlo validation, benchmark schemes, and parameter sweeps.

Everything here is trial-indexed and embarrassingly parallel: trial ``t``
of user ``k`` draws its channel from the substream ``(seed, t, k, 0)``
and its random powers (random-power benchmark only) from
``(seed, t, k, 1)``.  Streams never depend on the scheme, the sweep value
or the worker count, which gives two properties for free:

* byte-identical outputs at any thread count;
* common random numbers across schemes and sweep values, so scheme
  comparisons are per-trial comparisons (a 1x1-port grid consumes the
  same leading draws as a larger grid, making the TAS benchmark the exact
  degenerate case of the proposed scheme).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .allocator import (
    SnrTriple,
    UserConfig,
    allocate_bandwidth,
    derive_min_powers,
    optimize_powers,
    scheme_region,
    scheme_snr,
    solve_system,
    _rate_scale,
)
from .channel import CorrelationMatrix, PortGrid, build_correlation, sample_gains
from .errors import InfeasibleError
from .outage import LinkBudget, OutageQuery, OutageResult, mean_snr_sum, select_scheme, snr_threshold
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

# Default dB windows for scenario randomization: the direct user->BS link
# is weak (users far from the BS), the two relay hops are stronger.
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
        if self.total_bw <= 0:
            raise ValueError("total bandwidth must be positive")
        snr_threshold(self.xi)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "users", tuple(self.users))

    @property
    def c_th(self) -> float:
        return snr_threshold(self.xi)


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
    rates: tuple[float, ...]
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
    total_bw: float = 5e6,
    xi: float = 0.1,
    trials: int = 100,
    p_user_max: float = 0.1,
    p_relay_max: float = 0.1,
    rate_min: float = 0.5e6,
    sigma2_relay: float = 1e-15,
    sigma2_bs: float = 1e-15,
    alpha_ub_db: tuple[float, float] = DEFAULT_ALPHA_UB_DB,
    alpha_ur_db: tuple[float, float] = DEFAULT_ALPHA_UR_DB,
    alpha_rb_db: tuple[float, float] = DEFAULT_ALPHA_RB_DB,
) -> Scenario:
    """Scenario with placement abstracted into log-uniform large-scale gains.

    Users are ordered so the average direct-link gain increases with the
    user index.  Minimum powers are derived as the smallest feasible
    scaling of the maxima.
    """
    rng = substream(seed, 0xA1FA)
    c_th = snr_threshold(xi)
    budgets = []
    for _ in range(num_users):
        budgets.append(
            LinkBudget(
                alpha_ur=10.0 ** (rng.uniform(*alpha_ur_db) / 10.0),
                alpha_ub=10.0 ** (rng.uniform(*alpha_ub_db) / 10.0),
                alpha_rb=10.0 ** (rng.uniform(*alpha_rb_db) / 10.0),
                sigma2_relay=sigma2_relay,
                sigma2_bs=sigma2_bs,
            )
        )
    budgets.sort(key=lambda b: (b.alpha_ub, b.alpha_ur, b.alpha_rb))
    users = []
    for budget in budgets:
        pu_min, pr_min = derive_min_powers(budget, p_user_max, p_relay_max, c_th)
        users.append(
            UserConfig(
                budget=budget,
                p_user_max=p_user_max,
                p_relay_max=p_relay_max,
                p_user_min=pu_min,
                p_relay_min=pr_min,
                rate_min=rate_min,
            )
        )
    return Scenario(users=tuple(users), grid=grid, total_bw=total_bw, xi=xi, seed=seed, trials=trials)


def order_users_by_gain(users) -> tuple[UserConfig, ...]:
    """Ascending average-channel-gain order (direct-link gain primary)."""
    return tuple(sorted(users, key=lambda u: (u.budget.alpha_ub, u.budget.alpha_ur, u.budget.alpha_rb)))


def _best_gain_samples(corr: CorrelationMatrix, trials: int, seed: int) -> np.ndarray:
    """Best-port |h|^2 samples, chunked over fixed-size substreams."""
    out = np.empty(trials)
    start = 0
    chunk_idx = 0
    while start < trials:
        count = min(_SAMPLE_CHUNK, trials - start)
        rng = substream(seed, chunk_idx)
        gains = sample_gains(corr, rng, count)
        out[start : start + count] = np.max(np.abs(gains) ** 2, axis=1)
        start += count
        chunk_idx += 1
    return out


def empirical_best_gain_cdf(corr: CorrelationMatrix, xs, trials: int, seed: int) -> list[CdfPoint]:
    """Empirical CDF of the best-port gain with binomial standard errors."""
    if trials < 10_000:
        raise ValueError("empirical CDF needs at least 1e4 trials")
    samples = _best_gain_samples(corr, trials, seed)
    points = []
    for x in xs:
        p = float(np.count_nonzero(samples <= x) / trials)
        points.append(CdfPoint(x=float(x), cdf=p, std_err=math.sqrt(p * (1.0 - p) / trials)))
    return points


def empirical_outage(
    q: OutageQuery,
    lb: LinkBudget,
    corr: CorrelationMatrix,
    trials: int,
    seed: int,
) -> OutageResult:
    """Monte Carlo AF and DF outage probabilities under the analytic model's CSI rules.

    Both schemes are evaluated on one draw of best-port gains.  Mean
    UB/RB SNRs are used exactly as the analytic OP does, so the
    infeasible branch is deterministic (both 1.0 with zero variance);
    only the best-port gain is sampled.  ``selection`` is the closed-form
    rule of ``select_scheme``, as in ``outage_probabilities``.
    """
    if trials < 10_000:
        raise ValueError("empirical outage needs at least 1e4 trials")
    selection = select_scheme(q, lb)
    c_th = q.c_th
    if mean_snr_sum(q, lb) <= c_th or q.p_user == 0:
        return OutageResult(op_af=1.0, op_df=1.0, selection=selection)
    gains = _best_gain_samples(corr, trials, seed)
    gamma_ur = lb.alpha_ur * gains / lb.sigma2_relay
    direct = q.p_user * lb.gamma_bar_ub
    relay = q.p_relay * lb.gamma_bar_rb
    hop = q.p_user * gamma_ur
    af_snr = direct + hop * relay / (hop + relay + 1.0)
    df_snr = np.minimum(direct + relay, hop)
    # 0.5*log2(1+snr) < xi is equivalent to snr < C_th.
    return OutageResult(
        op_af=float(np.count_nonzero(af_snr < c_th) / trials),
        op_df=float(np.count_nonzero(df_snr < c_th) / trials),
        selection=selection,
    )


def draw_gamma_ur(users, corr: CorrelationMatrix, seed: int, trial: int) -> list[float]:
    """Per-user instantaneous user->relay normalized SNRs for one trial."""
    gammas = []
    for k, user in enumerate(users):
        rng = substream(seed, trial, k, _CHANNEL_TAG)
        gains = sample_gains(corr, rng, 1)[0]
        best = float(np.max(np.abs(gains) ** 2))
        gammas.append(user.budget.alpha_ur * best / user.budget.sigma2_relay)
    return gammas


def _solve_average_bandwidth(users, total_bw, c_th, gammas) -> list[float]:
    """Optimal powers but an equal bandwidth split."""
    share = total_bw / len(users)
    rates = []
    for user, gamma_ur in zip(users, gammas):
        triple = SnrTriple.from_budget(user.budget, gamma_ur)
        pu, pr, scheme = optimize_powers(user, triple, c_th)
        snr = scheme_snr(scheme, pu, pr, triple)
        rates.append(0.5 * share * float(_rate_scale(snr)))
    for user, rate in zip(users, rates):
        if rate < user.rate_min:
            raise InfeasibleError(
                "INFEASIBLE_BANDWIDTH",
                f"equal split gives rate {rate:.6g} below the minimum {user.rate_min:.6g}",
            )
    return rates


def _solve_random_power(users, total_bw, c_th, gammas, seed, trial) -> list[float]:
    """Uniform random powers in the box, scheme by the selection rule."""
    snrs = []
    for k, (user, gamma_ur) in enumerate(zip(users, gammas)):
        rng = substream(seed, trial, k, _POWER_TAG)
        pu = rng.uniform(user.p_user_min, user.p_user_max)
        pr = rng.uniform(user.p_relay_min, user.p_relay_max)
        triple = SnrTriple.from_budget(user.budget, gamma_ur)
        scheme = scheme_region(pu, pr, c_th, triple.gamma_ub, triple.gamma_rb)
        snrs.append(scheme_snr(scheme, pu, pr, triple))
    bandwidth = allocate_bandwidth(snrs, [u.rate_min for u in users], total_bw)
    return [0.5 * b * float(_rate_scale(s)) for b, s in zip(bandwidth, snrs)]


def _run_trial(users, corr, total_bw, xi, scheme, seed, trial) -> TrialRecord:
    c_th = snr_threshold(xi)
    gammas = draw_gamma_ur(users, corr, seed, trial)
    try:
        if scheme in (PROPOSED, TAS):
            result = solve_system(users, total_bw, xi, gammas)
            rates = tuple(float(r) for r in result.rate)
        elif scheme == AVG_BANDWIDTH:
            rates = tuple(_solve_average_bandwidth(users, total_bw, c_th, gammas))
        elif scheme == RANDOM_POWER:
            rates = tuple(_solve_random_power(users, total_bw, c_th, gammas, seed, trial))
        else:
            raise ValueError(f"unknown benchmark scheme {scheme!r}")
    except InfeasibleError as err:
        return TrialRecord(
            trial=trial,
            sum_rate=0.0,
            rates=tuple(0.0 for _ in users),
            feasible=False,
            reason=err.reason,
        )
    return TrialRecord(trial=trial, sum_rate=float(sum(rates)), rates=rates, feasible=True)


def run_benchmark(
    scenario: Scenario,
    scheme: str,
    seed: int,
    n_threads: int | None = None,
) -> list[TrialRecord]:
    """Per-trial sum rates for one scheme; infeasible trials carry zero rate."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown benchmark scheme {scheme!r}, expected one of {SCHEMES}")
    grid = PortGrid(1, 1, 0.0, 0.0) if scheme == TAS else scenario.grid
    corr = build_correlation(grid)

    def worker(trial):
        return _run_trial(scenario.users, corr, scenario.total_bw, scenario.xi, scheme, seed, trial)

    trials = range(scenario.trials)
    if n_threads is not None and n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(worker, trials))
    return [worker(trial) for trial in trials]


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
        cap = float(value)
        users = []
        for user in scenario.users:
            pu_min, pr_min = derive_min_powers(user.budget, user.p_user_max, cap, scenario.c_th)
            users.append(
                replace(user, p_relay_max=cap, p_user_min=pu_min, p_relay_min=pr_min)
            )
        return replace(scenario, users=tuple(users))
    raise ValueError(f"unknown sweep variable {variable!r}")


def run_sweep(scenario: Scenario, spec: SweepSpec, n_threads: int | None = None) -> SweepResult:
    """Long-format sum-rate table over (sweep value, scheme, trial).

    Channel substreams are keyed only by (seed, trial, user), so every
    sweep value and scheme sees the same draws (common random numbers);
    the `num_ports` sweep at side 1 reproduces the TAS scheme exactly.
    """
    rows: list[SweepRow] = []
    summaries: list[SweepSummary] = []
    for value in spec.values:
        derived = _sweep_scenario(scenario, spec.variable, value)
        for scheme in spec.schemes:
            records = run_benchmark(derived, scheme, scenario.seed, n_threads=n_threads)
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
