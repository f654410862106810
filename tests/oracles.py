"""Independent reference implementations used to check the package.

These deliberately avoid the package's own solution paths: bandwidth is
checked against a generic LP, power control against exhaustive grid
search over the power box with the selection rule applied pointwise, and
special functions against series expansions.
"""

import numpy as np
from scipy.optimize import linprog

from fluidrelay import LinkBudget, SnrTriple, UserConfig, derive_min_powers


def j0_series(x: float, terms: int = 40) -> float:
    """sin(x)/x via its Taylor series: sum (-1)^k x^(2k) / (2k+1)!."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
    return total


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
        pu_min, pr_min = derive_min_powers(budget, pu_max, pr_max, c_th)
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
