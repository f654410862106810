"""Independent reference implementations used to check the package.

These deliberately avoid the package's own solution paths: bandwidth is
checked against a generic LP, power control against exhaustive grid
search over the power box with the selection rule applied pointwise,
special functions against series expansions, the blocked MVN kernel
against the engine's earlier one-shift-at-a-time loop, its stacked pivot
against one problem pivoted at a time, the engine's estimates against
the exact equicorrelated CDF (a 1-D integral), the best-port model
against its exact exchangeable form (another 1-D integral) and, on any
matrix, against a separation-of-variables estimator of the Rayleigh model
itself, and the sweep's
shared draws and array solvers against one fresh stream per (scheme,
trial, user) solved by the allocator's earlier per-trial scalar code
(copied here as ``scalar_*``), the validator's streamed best-gain
sampler against one complex-division draw per whole chunk, and the
correlation matrix against one port pair at a time.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.special import chndtr, chndtrix, ndtr, ndtri

from fluidrelay import LinkBudget, MvnEstimate, Selection, SnrTriple, UserConfig
from fluidrelay import harness
from fluidrelay.allocator import power_box
from fluidrelay.channel import PortGrid, build_correlation, sample_gains
from fluidrelay.errors import InfeasibleError
from fluidrelay.outage import af_df_boundary, mean_snr_sum, snr_threshold
from fluidrelay.mvncdf import _BASE_LATTICE, _NUM_SHIFTS, _U_HI, _U_LO, _first_primes, _truncated_mean
from fluidrelay.seeding import substream


def j0_series(x: float, terms: int = 40) -> float:
    """sin(x)/x via its Taylor series: sum (-1)^k x^(2k) / (2k+1)!."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
    return total


def port_index(n1_idx: int, n2_idx: int, grid: PortGrid) -> int:
    """Map 2-D port coordinates (1-based) to the 1-based row-major port number."""
    if not 1 <= n1_idx <= grid.n1:
        raise ValueError(f"n1 index {n1_idx} outside [1, {grid.n1}]")
    if not 1 <= n2_idx <= grid.n2:
        raise ValueError(f"n2 index {n2_idx} outside [1, {grid.n2}]")
    return (n1_idx - 1) * grid.n2 + n2_idx


def port_coords(index: int, grid: PortGrid) -> tuple[int, int]:
    """Inverse of :func:`port_index`."""
    if not 1 <= index <= grid.num_ports:
        raise ValueError(f"port number {index} outside [1, {grid.num_ports}]")
    return (index - 1) // grid.n2 + 1, (index - 1) % grid.n2 + 1


def spatial_correlation(port_a: tuple[int, int], port_b: tuple[int, int], grid: PortGrid) -> float:
    """Correlation between two ports given as (n1, n2) coordinate pairs, one pair at a time:
    the oracle for ``build_correlation``.

    The per-dimension offset is ``|n_i - m_i| * w_i / (n_i_total - 1)``,
    or 0 for a single-port dimension; the correlation is j0 of 2*pi times
    the Euclidean offset, with ``j0(x) = sin(x)/x``.
    """
    port_index(port_a[0], port_a[1], grid)
    port_index(port_b[0], port_b[1], grid)
    d1 = abs(port_a[0] - port_b[0]) * grid.w1 / (grid.n1 - 1) if grid.n1 > 1 else 0.0
    d2 = abs(port_a[1] - port_b[1]) * grid.w2 / (grid.n2 - 1) if grid.n2 > 1 else 0.0
    return float(np.sinc(2.0 * np.hypot(d1, d2)))  # np.sinc(x) = sin(pi x)/(pi x)


def lp_bandwidth(snrs, rate_mins, total_bw):
    """Generic-LP solution of the bandwidth subproblem.

    Returns (feasible, bandwidth, objective).  Mirrors the problem, not
    the closed form: maximize sum(0.5*log2(1+snr)*b) s.t. sum(b) <= B and
    each user's rate floor.
    """
    snrs = np.asarray(snrs, dtype=float)
    rate_mins = np.asarray(rate_mins, dtype=float)
    if np.any((snrs == 0) & (rate_mins > 0)):
        return False, None, None
    coeff = 0.5 * np.log1p(snrs) / np.log(2.0)
    lower = np.zeros_like(snrs)
    positive = rate_mins > 0
    lower[positive] = rate_mins[positive] / coeff[positive]
    res = linprog(
        c=-coeff,
        A_ub=np.ones((1, snrs.size)),
        b_ub=[total_bw],
        bounds=list(zip(lower, [None] * snrs.size)),
        method="highs",
    )
    if res.status == 2:
        return False, None, None
    assert res.status == 0, f"LP solver returned status {res.status}"
    return True, res.x, -res.fun


def selection_aware_grid(cfg, s, c_th, steps=400):
    """Max of the scheme-aware SNR over a power-box grid.

    At every grid point the relaying scheme follows the closed-form
    region test (AF on ties), then the matching SNR formula applies.
    """
    pu = np.linspace(cfg.p_user_min, cfg.p_user_max, steps)[:, None]
    pr = np.linspace(cfg.p_relay_min, cfg.p_relay_max, steps)[None, :]
    a = pu * s.gamma_ub
    b = pr * s.gamma_rb
    af_region = (c_th + 1.0) * a + a * b >= c_th * c_th + c_th
    hop = pu * s.gamma_ur
    af = a + hop * b / (b + hop + 1.0)
    df = np.minimum(a + b, hop)
    return float(np.where(af_region, af, df).max())


def df_subproblem_grid(cfg, s, c_th, steps=2000):
    """Max of the DF SNR over the box intersected with the DF region."""
    pu = np.linspace(cfg.p_user_min, cfg.p_user_max, steps)[:, None]
    pr = np.linspace(cfg.p_relay_min, cfg.p_relay_max, steps)[None, :]
    a = pu * s.gamma_ub
    b = pr * s.gamma_rb
    allowed = (c_th + 1.0) * a + a * b <= c_th * c_th + c_th
    df = np.minimum(a + b, pu * s.gamma_ur)
    df = np.where(allowed, df, -np.inf)
    return float(df.max())


def df_subproblem_sweep(cfg, s, c_th):
    """Max of the DF SNR along relay power by a 2049-point sweep plus golden section.

    Same reduction as the package (user power at the smaller of its box
    bound and the DF-region bound), but a numerical search over relay
    power instead of a candidate set.
    """
    gub, gur, grb = s.gamma_ub, s.gamma_ur, s.gamma_rb
    bound = c_th * c_th + c_th
    r_lo, r_hi = cfg.p_relay_min, cfg.p_relay_max
    if cfg.p_user_min > 0 and grb > 0:
        r_hi = min(r_hi, (bound / (gub * cfg.p_user_min) - (c_th + 1.0)) / grb)
    r_hi = max(r_hi, r_lo)

    def objective(r):
        pu = np.minimum(cfg.p_user_max, bound / (gub * ((c_th + 1.0) + grb * r)))
        return np.minimum(pu * gub + r * grb, pu * gur)

    grid = np.linspace(r_lo, r_hi, 2049)
    best = int(np.argmax(objective(grid)))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        x1 = hi - inv_phi * (hi - lo)
        x2 = lo + inv_phi * (hi - lo)
        if objective(x1) < objective(x2):
            lo = x1
        else:
            hi = x2
    return float(max(objective(grid[best]), objective(lo), objective(hi)))


def _budget_for(gamma_ub, gamma_rb):
    """Unit-noise budget reproducing the requested mean SNRs per watt."""
    return LinkBudget(alpha_ur=1.0, alpha_ub=gamma_ub, alpha_rb=gamma_rb, sigma2_relay=1.0, sigma2_bs=1.0)


def random_power_instance(rng):
    """Random (UserConfig, SnrTriple, c_th) exercising all solver branches.

    Mean SNR sums land between ~0.9x and ~10x the threshold, so the
    derived-minimum boxes span the DF-only, AF-only, and split regimes.
    """
    while True:
        c_th = 10.0 ** rng.uniform(-0.7, 0.7)
        pu_max = 10.0 ** rng.uniform(-1.0, 1.0)
        pr_max = 10.0 ** rng.uniform(-1.0, 1.0)
        a_max = c_th * 10.0 ** rng.uniform(-0.6, 1.0)
        b_max = c_th * 10.0 ** rng.uniform(-0.6, 1.0)
        if a_max + b_max < c_th:
            continue
        gamma_ub = a_max / pu_max
        gamma_rb = b_max / pr_max
        gamma_ur = (c_th / pu_max) * 10.0 ** rng.uniform(-1.5, 1.5)
        budget = _budget_for(gamma_ub, gamma_rb)
        box = power_box(budget, pu_max, pr_max, 0.0, c_th)
        pu_min, pr_min = box.p_user_min, box.p_relay_min
        grow = 10.0 ** rng.uniform(0.0, 0.3)
        pu_min = min(pu_min * grow, pu_max)
        pr_min = min(pr_min * grow, pr_max)
        cfg = UserConfig(
            budget=budget,
            p_user_max=pu_max,
            p_relay_max=pr_max,
            p_user_min=pu_min,
            p_relay_min=pr_min,
        )
        s = SnrTriple(gamma_ub=gamma_ub, gamma_ur=gamma_ur, gamma_rb=gamma_rb)
        return cfg, s, c_th


def random_df_instance(rng):
    """Random instance whose minimum-power corner sits in the DF region.

    The box spans 8..20% of the power scale, narrow enough that a
    2000x2000 grid resolves the optimum to well under 1e-4 relative.
    """
    while True:
        c_th = 10.0 ** rng.uniform(-0.7, 0.7)
        beta = rng.uniform(0.1, 1.0)
        b_min = beta * c_th
        alpha = rng.uniform(0.3, 0.95)
        a_min = alpha * c_th * (c_th + 1.0) / (c_th + 1.0 + b_min)
        if a_min + b_min < c_th:  # must satisfy the minimum-power guard
            continue
        pu_min = 10.0 ** rng.uniform(-1.0, 1.0)
        pr_min = 10.0 ** rng.uniform(-1.0, 1.0)
        shrink = rng.uniform(0.8, 0.92)
        cfg = UserConfig(
            budget=_budget_for(a_min / pu_min, b_min / pr_min),
            p_user_max=pu_min / shrink,
            p_relay_max=pr_min / shrink,
            p_user_min=pu_min,
            p_relay_min=pr_min,
        )
        s = SnrTriple(
            gamma_ub=a_min / pu_min,
            gamma_ur=(c_th / pu_min) * 10.0 ** rng.uniform(-1.0, 1.0),
            gamma_rb=b_min / pr_min,
        )
        return cfg, s, c_th


def _reordered_cholesky(matrix, limits):
    """Greedy pivoted Cholesky of one problem, each residual diagonal recomputed from its row:
    the oracle of the engine's stacked pivot."""
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
            factor[i + 1 :, i] = (a[i + 1 :, i] - factor[i + 1 :, :i] @ factor[i, :i]) / factor[i, i]
        y[i] = _truncated_mean(float((b[i] - factor[i, :i] @ y[:i]) / factor[i, i]))
    return factor, b


def _sov_mean(factor, limits, points):
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


def mvn_cdf_per_shift(problem):
    """``mvn_cdf`` with each lattice shift integrated on its own, sample-major.

    Same pivot rule, round schedule, substream keys and error formula as
    the package, computed without its blocking, in-place updates or
    residual reuse.  Finite limits and dimension >= 2 only.
    """
    limits = problem.upper_limits
    assert limits.size >= 2 and np.all(np.isfinite(limits))
    factor, limits = _reordered_cholesky(problem.corr.entries, limits)
    n = limits.size
    generator = np.sqrt(_first_primes(n - 1))
    shift_sums = np.zeros(_NUM_SHIFTS)
    weight = 0
    samples_used = 0
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
        est_error=est_error,
        samples_used=samples_used,
        converged=bool(est_error <= problem.target_abs_error),
    )


def equicorrelated_mvn_cdf(n: int, rho: float, z: float) -> float:
    """P(Z_1 <= z, ..., Z_n <= z) for standard normals with common correlation ``0 < rho < 1``.

    Steck's 1-D integral ``∫ φ(t) Φ((z - √ρ t) / √(1-ρ))^n dt`` (Steck &
    Owen 1962; Genz & Bretz 2009, §2.2), by adaptive quadrature: each Z_k
    is ``√ρ T + √(1-ρ) X_k`` with T, X_k independent.  The integrand
    peaks near ``t = z / √ρ``; beyond ``|t| = 15`` it is below 1e-48.
    """
    if not (n >= 1 and 0.0 < rho < 1.0):
        raise ValueError(f"need n >= 1 and 0 < rho < 1, got n={n}, rho={rho}")
    common, own = math.sqrt(rho), math.sqrt(1.0 - rho)

    def integrand(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * float(ndtr((z - common * t) / own)) ** n

    value, _ = quad(integrand, -15.0, 15.0, points=[z / common], epsabs=0.0, epsrel=1e-10, limit=200)
    return value


def exchangeable_best_gain_cdf(n: int, rho: float, x: float) -> float:
    """P(max_k |h_k|^2 <= x) for n Rayleigh ports with common correlation ``0 <= rho < 1``.

    With ``h_k = √(1-ρ) a_k + √ρ a_0`` and every ``a`` i.i.d. CN(0, 1), the
    ports are independent given ``r = |a_0|^2 ~ Exp(1)``, and
    ``2|h_k|^2 / (1-ρ)`` is noncentral chi-square with 2 degrees of freedom
    and noncentrality ``2ρr / (1-ρ)``.  So the CDF is
    ``∫_0^∞ e^{-r} chndtr(2x/(1-ρ), 2, 2ρr/(1-ρ))^n dr`` (the exchangeable
    model of Wong, Shojaeifard, Tong & Zhang, *IEEE Commun. Lett.* 2020),
    by adaptive quadrature; at ρ = 0 it is ``(1 - e^{-x})^n``.
    """
    if not (n >= 1 and 0.0 <= rho < 1.0 and x >= 0.0):
        raise ValueError(f"need n >= 1, 0 <= rho < 1 and x >= 0, got n={n}, rho={rho}, x={x}")
    if rho == 0.0:
        return (-math.expm1(-x)) ** n
    scale = 2.0 / (1.0 - rho)

    def integrand(r):
        return math.exp(-r) * float(chndtr(scale * x, 2.0, scale * rho * r)) ** n

    value, _ = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    return value


def rayleigh_best_gain_sov(corr, x: float, samples: int, rng) -> tuple[float, float]:
    """P(max_k |h_k|^2 <= x) for ``h ~ CN(0, J)``: the mean and its standard error.

    Separation of variables on the Rayleigh model itself, not on a copula.
    With ``h = L z`` (``L = corr.factor``, real lower Cholesky; ``z`` i.i.d.
    CN(0, 1)), port ``k`` given ports ``< k`` is CN(m_k, L_kk^2) with
    ``m_k = Σ_{j<k} L_kj z_j``, so ``2|h_k|^2 / L_kk^2`` is noncentral
    chi-square (2 degrees of freedom, noncentrality ``2|m_k|^2 / L_kk^2``).
    Each sample multiplies the conditional probabilities
    ``p_k = chndtr(2x / L_kk^2, 2, nc_k)`` and draws port ``k`` inside its
    disk: the radius by ``r^2 = L_kk^2 / 2 · chndtrix(U p_k, 2, nc_k)``, the
    angle from a von Mises law with mean ``arg m_k`` and concentration
    ``2 r |m_k| / L_kk^2``.  Unbiased; degrades where ``L_kk`` is tiny.
    """
    factor = np.asarray(corr.factor, dtype=float)
    z = np.zeros((samples, corr.dim), dtype=complex)
    weight = np.ones(samples)
    for k in range(corr.dim):
        sigma2 = factor[k, k] ** 2
        mean = z[:, :k] @ factor[k, :k]
        noncentrality = 2.0 * np.abs(mean) ** 2 / sigma2
        p = chndtr(2.0 * x / sigma2, 2.0, noncentrality)
        weight *= p
        radius = np.sqrt(0.5 * sigma2 * chndtrix(rng.random(samples) * p, 2.0, noncentrality))
        angle = np.angle(mean) + rng.vonmises(0.0, 2.0 * radius * np.abs(mean) / sigma2)
        z[:, k] = (radius * np.exp(1j * angle) - mean) / factor[k, k]
    return float(weight.mean()), float(weight.std(ddof=1) / math.sqrt(samples))


# The allocator as it was before trials became array axes: one channel
# realization per call, Python floats throughout.


def _scalar_rate_scale(snr):
    return np.log1p(snr) / math.log(2.0)


def _scalar_snr(scheme, p_user, p_relay, s):
    if scheme is Selection.AF:
        relayed_num = p_user * s.gamma_ur * p_relay * s.gamma_rb
        relayed_den = p_relay * s.gamma_rb + p_user * s.gamma_ur + 1.0
        return p_user * s.gamma_ub + relayed_num / relayed_den
    return min(p_user * s.gamma_ub + p_relay * s.gamma_rb, p_user * s.gamma_ur)


def _scalar_scheme_region(p_user, p_relay, c_th, gamma_bar_ub, gamma_bar_rb):
    if p_user <= 0:
        raise ValueError("scheme_region requires p_user > 0")
    total = mean_snr_sum(p_user, p_relay, gamma_bar_ub, gamma_bar_rb)
    if total < c_th:
        raise ValueError(f"scheme_region requires a feasible point: mean SNR sum {total:.6g} < {c_th:.6g}")
    direct = p_user * gamma_bar_ub
    return Selection.AF if direct >= af_df_boundary(p_relay * gamma_bar_rb, c_th) else Selection.DF


def _scalar_df_region_touches(p_user, p_relay, c_th, s):
    return p_user * s.gamma_ub <= af_df_boundary(p_relay * s.gamma_rb, c_th)


def scalar_solve_df_subproblem(cfg, s, c_th):
    """``solve_df_subproblem`` for one float ``gamma_ur``: five candidates, first best wins."""
    gub, gur, grb = s.gamma_ub, s.gamma_ur, s.gamma_rb
    if gub <= 0:
        raise ValueError("DF subproblem requires a positive mean user->BS SNR")
    bound = c_th * c_th + c_th
    u_lo, u_hi = cfg.p_user_min, cfg.p_user_max
    r_lo, r_hi = cfg.p_relay_min, cfg.p_relay_max
    if not _scalar_df_region_touches(u_lo, r_lo, c_th, s):
        raise ValueError("DF subproblem requires the DF region to touch the box (C~ >= 1)")

    def user_cap(p_relay):
        return bound / (gub * ((c_th + 1.0) + grb * p_relay))

    def relay_at_cap(p_user):
        return (bound / (gub * p_user) - (c_th + 1.0)) / grb

    def objective(p_relay):
        p_user = min(u_hi, max(u_lo, user_cap(p_relay)))
        return min(p_user * gub + p_relay * grb, p_user * gur)

    candidates = [r_lo]
    if grb > 0:
        r_top = max(min(r_hi, relay_at_cap(u_lo)) if u_lo > 0 else r_hi, r_lo)
        disc = (c_th + 1.0) ** 2 + 4.0 * bound * (gur - gub) / gub
        crossing = 2.0 * bound * (gur - gub) / (gub * grb * (c_th + 1.0 + math.sqrt(max(disc, 0.0))))
        points = (u_hi * (gur - gub) / grb, relay_at_cap(u_hi), crossing, r_top)
        candidates += [min(max(r, r_lo), r_top) for r in points]
    best_relay = max(candidates, key=objective)
    best_user = min(u_hi, max(u_lo, user_cap(best_relay)))
    return float(best_user), float(best_relay), float(objective(best_relay))


def scalar_optimize_powers(cfg, s, c_th):
    """``optimize_powers`` for one float ``gamma_ur``."""
    if s.gamma_ub <= 0 or s.gamma_rb <= 0:
        raise ValueError("optimize_powers requires positive mean UB/RB SNRs")
    guard = mean_snr_sum(cfg.p_user_min, cfg.p_relay_min, s.gamma_ub, s.gamma_rb)
    if guard < c_th:
        raise InfeasibleError(
            "INFEASIBLE_POWER", f"minimum powers give mean SNR sum {guard:.6g} < threshold {c_th:.6g}"
        )
    if _scalar_scheme_region(cfg.p_user_max, cfg.p_relay_max, c_th, s.gamma_ub, s.gamma_rb) is Selection.DF:
        return cfg.p_user_max, cfg.p_relay_max, Selection.DF
    if not _scalar_df_region_touches(cfg.p_user_min, cfg.p_relay_min, c_th, s):
        return cfg.p_user_max, cfg.p_relay_max, Selection.AF
    df_user, df_relay, df_snr = scalar_solve_df_subproblem(cfg, s, c_th)
    af_snr = _scalar_snr(Selection.AF, cfg.p_user_max, cfg.p_relay_max, s)
    if df_snr > af_snr:
        return df_user, df_relay, Selection.DF
    return cfg.p_user_max, cfg.p_relay_max, Selection.AF


def scalar_allocate_bandwidth(snrs, rate_mins, total_bw):
    """``allocate_bandwidth`` on one SNR vector, nudging Python floats."""
    snrs = np.asarray(snrs, dtype=float)
    rate_mins = np.asarray(rate_mins, dtype=float)
    if snrs.ndim != 1 or snrs.shape != rate_mins.shape:
        raise ValueError("snrs and rate_mins must be 1-D vectors of equal length")
    if total_bw <= 0:
        raise ValueError("total bandwidth must be positive")
    snr_list = snrs.tolist()
    if any(snr < 0 for snr in snr_list):
        raise ValueError("SNRs must be nonnegative")
    rate_list = rate_mins.tolist()
    for k, (snr, rate_min) in enumerate(zip(snr_list, rate_list)):
        if snr == 0 and rate_min > 0:
            raise InfeasibleError("INFEASIBLE_BANDWIDTH", f"user {k} has zero SNR but a positive rate floor")
    needs = [0.0] * len(snr_list)
    for k, (scale, rate_min) in enumerate(zip(_scalar_rate_scale(snrs).tolist(), rate_list)):
        if rate_min > 0:
            need = 2.0 * rate_min / scale
            while 0.5 * need * scale < rate_min:
                need = math.nextafter(need, math.inf)
            needs[k] = need
    leader = int(np.argmax(snrs))
    bandwidth = np.array(needs)
    with np.errstate(over="ignore"):
        needed = bandwidth.sum()
    if math.isinf(needed):
        raise InfeasibleError(
            "INFEASIBLE_BANDWIDTH", f"the minimum rates need more than {sys.float_info.max:.6g} Hz of bandwidth"
        )
    residual = float(total_bw - (needed - needs[leader]))
    bandwidth[leader] = residual
    while bandwidth.sum() > total_bw:
        residual = math.nextafter(residual, -math.inf)
        bandwidth[leader] = residual
    if residual < needs[leader]:
        raise InfeasibleError(
            "INFEASIBLE_BANDWIDTH",
            f"residual bandwidth {residual:.6g} Hz cannot cover the leader's minimum {needs[leader]:.6g} Hz",
        )
    return bandwidth


def leader_residual_is_tight(bandwidth, snrs, rate_mins, total_bw) -> bool:
    """Assert a split's exact inequalities; True when one ulp more for the SNR leader overshoots ``total_bw``.

    That is, the leader's residual is the largest double that fits the budget.
    """
    bandwidth = np.asarray(bandwidth, dtype=float)
    snrs = np.asarray(snrs, dtype=float)
    assert bandwidth.sum() <= total_bw
    assert np.all(0.5 * bandwidth * (np.log1p(snrs) / np.log(2.0)) >= rate_mins)
    bumped = bandwidth.copy()
    leader = int(np.argmax(snrs))
    bumped[leader] = np.nextafter(bumped[leader], np.inf)
    return bool(bumped.sum() > total_bw)


@dataclass(frozen=True)
class ScalarAllocation:
    """One realization solved by :func:`scalar_solve_system`: per-user arrays and schemes."""

    p_user: np.ndarray
    p_relay: np.ndarray
    bandwidth: np.ndarray
    scheme: tuple
    snr: np.ndarray
    rate: np.ndarray


def scalar_solve_system(users, total_bw, xi, gamma_ur_values):
    """``solve_system`` on one realization, user by user; an infeasible one raises InfeasibleError."""
    users = list(users)
    gamma_ur_values = [float(g) for g in gamma_ur_values]
    if not users:
        raise ValueError("solve_system requires at least one user")
    if len(gamma_ur_values) != len(users):
        raise ValueError("one gamma_ur realization is required per user")
    c_th = snr_threshold(xi)
    p_user = np.empty(len(users))
    p_relay = np.empty(len(users))
    schemes = []
    snrs = np.empty(len(users))
    for k, (cfg, gamma_ur) in enumerate(zip(users, gamma_ur_values)):
        triple = SnrTriple.from_budget(cfg.budget, gamma_ur)
        pu, pr, scheme = scalar_optimize_powers(cfg, triple, c_th)
        p_user[k], p_relay[k] = pu, pr
        schemes.append(scheme)
        snrs[k] = _scalar_snr(scheme, pu, pr, triple)
    bandwidth = scalar_allocate_bandwidth(snrs, np.array([cfg.rate_min for cfg in users]), total_bw)
    rates = 0.5 * bandwidth * _scalar_rate_scale(snrs)
    return ScalarAllocation(
        p_user=p_user, p_relay=p_relay, bandwidth=bandwidth, scheme=tuple(schemes), snr=snrs, rate=rates
    )


def _scalar_average_bandwidth(users, total_bw, c_th, gammas):
    share = total_bw / len(users)
    rates = []
    for user, gamma_ur in zip(users, gammas):
        triple = SnrTriple.from_budget(user.budget, gamma_ur)
        pu, pr, scheme = scalar_optimize_powers(user, triple, c_th)
        rates.append(0.5 * share * float(_scalar_rate_scale(_scalar_snr(scheme, pu, pr, triple))))
    for user, rate in zip(users, rates):
        if rate < user.rate_min:
            raise InfeasibleError("INFEASIBLE_BANDWIDTH", f"equal split rate {rate:.6g} below the minimum")
    return rates


def run_benchmark_per_trial(scenario, scheme, seed):
    """``run_benchmark`` as it was before ``TrialDraws`` and the array
    solvers: every (scheme, trial, user) derives its own channel and power
    substreams and draws its gains on its own grid, and every trial is
    solved on its own by the ``scalar_*`` copies above."""
    grid = PortGrid(1, 1, 0.0, 0.0) if scheme == harness.TAS else scenario.grid
    corr = build_correlation(grid)
    c_th = scenario.c_th
    records = []
    for trial in range(scenario.trials):
        gammas = []
        for k, user in enumerate(scenario.users):
            gains = sample_gains(corr, substream(seed, trial, k, 0), 1)[0]
            gammas.append(user.budget.alpha_ur * float(np.max(np.abs(gains) ** 2)) / user.budget.sigma2_relay)
        try:
            if scheme in (harness.PROPOSED, harness.TAS):
                result = scalar_solve_system(scenario.users, scenario.total_bw, scenario.xi, gammas)
                rates = [float(r) for r in result.rate]
            elif scheme == harness.AVG_BANDWIDTH:
                rates = _scalar_average_bandwidth(scenario.users, scenario.total_bw, c_th, gammas)
            else:
                snrs = []
                for k, (user, gamma_ur) in enumerate(zip(scenario.users, gammas)):
                    rng = substream(seed, trial, k, 1)
                    pu = rng.uniform(user.p_user_min, user.p_user_max)
                    pr = rng.uniform(user.p_relay_min, user.p_relay_max)
                    triple = SnrTriple.from_budget(user.budget, gamma_ur)
                    if mean_snr_sum(pu, pr, triple.gamma_ub, triple.gamma_rb) < c_th:
                        raise InfeasibleError("INFEASIBLE_POWER", "a random power draw misses C_th")
                    region = Selection.AF  # a 0 W user draw sends nothing: SNR 0, AF by the tie convention
                    if pu > 0:
                        region = _scalar_scheme_region(pu, pr, c_th, triple.gamma_ub, triple.gamma_rb)
                    snrs.append(_scalar_snr(region, pu, pr, triple))
                rate_mins = [u.rate_min for u in scenario.users]
                bandwidth = scalar_allocate_bandwidth(snrs, rate_mins, scenario.total_bw)
                rates = [0.5 * b * float(_scalar_rate_scale(x)) for b, x in zip(bandwidth, snrs)]
        except InfeasibleError as err:
            records.append(harness.TrialRecord(trial=trial, sum_rate=0.0, feasible=False, reason=err.reason))
            continue
        records.append(harness.TrialRecord(trial=trial, sum_rate=float(sum(rates)), feasible=True))
    return records


def gains_by_division(corr, rng, count):
    """``sample_gains`` as first written: the complex gains built by addition
    and complex division, then correlated."""
    draws = rng.standard_normal((count, 2 * corr.dim))
    white = (draws[:, 0::2] + 1j * draws[:, 1::2]) / np.sqrt(2.0)
    return white @ corr.factor.T


def best_gain_samples_per_chunk(corr, trials, seed):
    """The validator's best-port |h|^2 samples as drawn before blocking:
    one ``gains_by_division`` call on ``substream(seed, c)`` per whole
    32768-trial chunk."""
    chunk = 1 << 15
    out = np.empty(trials)
    for idx, start in enumerate(range(0, trials, chunk)):
        count = min(chunk, trials - start)
        gains = gains_by_division(corr, substream(seed, idx), count)
        out[start : start + count] = np.max(np.abs(gains) ** 2, axis=1)
    return out
