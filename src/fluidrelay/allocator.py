"""Sum-rate maximization: SNR model, bandwidth closed form, power control.

The system problem (maximize the half-duplex FDMA sum rate subject to
per-user minimum rates, a total bandwidth budget, and per-link power
boxes) decomposes:

1. per user, transmit powers maximize that user's scheme-aware SNR over
   its power box -- valid because the residual-bandwidth objective is
   nondecreasing in every user's SNR;
2. the relaying scheme at any power point follows the outage-minimizing
   rule, the closed-form boundary ``outage.af_df_boundary`` that
   :func:`scheme_region` applies (the AF region is the upper-right part of
   the box, the DF region the lower-left, separated by one monotone curve);
3. bandwidth then has a closed form: every user gets exactly the slice
   its minimum rate needs, and the user with the highest SNR absorbs the
   residual.

CSI convention: user->BS and relay->BS links enter through *mean*
normalized SNRs everywhere (the relay has only statistical CSI for
them); the user->relay link uses the instantaneous best-port value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .outage import LinkBudget, Selection, af_df_boundary, mean_snr_sum, snr_threshold


@dataclass(frozen=True)
class UserConfig:
    """Per-user link budget, power box, and minimum-rate requirement."""

    budget: LinkBudget
    p_user_max: float
    p_relay_max: float
    p_user_min: float = 0.0
    p_relay_min: float = 0.0
    rate_min: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(p) and p > 0 for p in (self.p_user_max, self.p_relay_max)):
            raise ValueError("maximum powers must be finite and strictly positive")
        if not 0 <= self.p_user_min <= self.p_user_max:
            raise ValueError(
                f"need 0 <= p_user_min <= p_user_max, got {self.p_user_min} vs {self.p_user_max}"
            )
        if not 0 <= self.p_relay_min <= self.p_relay_max:
            raise ValueError(
                f"need 0 <= p_relay_min <= p_relay_max, got {self.p_relay_min} vs {self.p_relay_max}"
            )
        if not (math.isfinite(self.rate_min) and self.rate_min >= 0):
            raise ValueError(f"rate_min must be finite and nonnegative, got {self.rate_min}")


@dataclass(frozen=True)
class SnrTriple:
    """Normalized per-watt SNRs for the three links.

    ``provenance`` tags each value as a statistical mean or an
    instantaneous realization; the default matches the CSI convention
    (mean UB, instantaneous UR, mean RB).
    """

    gamma_ub: float
    gamma_ur: float
    gamma_rb: float
    provenance: tuple[str, str, str] = ("mean", "instantaneous", "mean")

    def __post_init__(self):
        if self.gamma_ub < 0 or self.gamma_ur < 0 or self.gamma_rb < 0:
            raise ValueError("normalized SNRs must be nonnegative")
        for tag in self.provenance:
            if tag not in ("mean", "instantaneous"):
                raise ValueError(f"provenance tag must be 'mean' or 'instantaneous', got {tag!r}")

    @classmethod
    def from_budget(cls, budget: LinkBudget, gamma_ur: float) -> "SnrTriple":
        """Mean UB/RB SNRs from the budget plus an instantaneous UR value."""
        return cls(gamma_ub=budget.gamma_bar_ub, gamma_ur=gamma_ur, gamma_rb=budget.gamma_bar_rb)


@dataclass(frozen=True)
class AllocationResult:
    """Solved system: per-user powers, scheme, bandwidth, and rates."""

    p_user: np.ndarray
    p_relay: np.ndarray
    bandwidth: np.ndarray
    scheme: tuple[Selection, ...]
    snr: np.ndarray
    rate: np.ndarray
    best_user_index: int
    sum_rate: float
    feasible: bool


def snr_af(p_user: float, p_relay: float, s: SnrTriple) -> float:
    """End-to-end AF SNR with MRC of the direct and relayed copies."""
    if p_user < 0 or p_relay < 0:
        raise ValueError("powers must be nonnegative")
    relayed_num = p_user * s.gamma_ur * p_relay * s.gamma_rb
    relayed_den = p_relay * s.gamma_rb + p_user * s.gamma_ur + 1.0
    return p_user * s.gamma_ub + relayed_num / relayed_den


def snr_df(p_user: float, p_relay: float, s: SnrTriple) -> float:
    """End-to-end DF SNR: the weaker of decode hop and combined BS hop."""
    if p_user < 0 or p_relay < 0:
        raise ValueError("powers must be nonnegative")
    return min(p_user * s.gamma_ub + p_relay * s.gamma_rb, p_user * s.gamma_ur)


def scheme_snr(scheme: Selection, p_user: float, p_relay: float, s: SnrTriple) -> float:
    """End-to-end SNR of ``scheme`` (AF, else DF) at a power point."""
    return snr_af(p_user, p_relay, s) if scheme is Selection.AF else snr_df(p_user, p_relay, s)


def _rate_scale(snr):
    """log2(1 + snr), accurate for small and huge SNR."""
    return np.log1p(snr) / math.log(2.0)


def scheme_region(
    p_user: float,
    p_relay: float,
    c_th: float,
    gamma_bar_ub: float,
    gamma_bar_rb: float,
) -> Selection:
    """Which scheme the outage rule picks at a feasible power point.

    The rule of ``outage.select_scheme`` (:func:`~fluidrelay.outage.af_df_boundary`,
    ties to AF), except that a mean SNR sum equal to C_th counts as feasible.
    """
    if p_user <= 0:
        raise ValueError("scheme_region requires p_user > 0")
    total = mean_snr_sum(p_user, p_relay, gamma_bar_ub, gamma_bar_rb)
    if total < c_th:
        raise ValueError(
            f"scheme_region requires a feasible point: mean SNR sum {total:.6g} < C_th {c_th:.6g}"
        )
    direct = p_user * gamma_bar_ub
    return Selection.AF if direct >= af_df_boundary(p_relay * gamma_bar_rb, c_th) else Selection.DF


def derive_min_powers(
    budget: LinkBudget,
    p_user_max: float,
    p_relay_max: float,
    c_th: float,
) -> tuple[float, float]:
    """Smallest (t * max) power pair whose mean SNR sum still meets C_th.

    ``t = C_th / S`` (``S`` the sum at maximum powers), raised one ulp at a
    time until the returned pair passes the guard of :func:`optimize_powers`.
    """
    gub, grb = budget.gamma_bar_ub, budget.gamma_bar_rb
    full_sum = mean_snr_sum(p_user_max, p_relay_max, gub, grb)
    if not math.isfinite(full_sum):
        raise ValueError(f"maximum powers give a non-finite mean SNR sum {full_sum}")
    if full_sum < c_th:
        raise InfeasibleError(
            "INFEASIBLE_POWER",
            f"even maximum powers give mean SNR sum {full_sum:.6g} < threshold {c_th:.6g}",
        )
    t = c_th / full_sum if c_th < full_sum else 1.0
    while mean_snr_sum(t * p_user_max, t * p_relay_max, gub, grb) < c_th:
        t = math.nextafter(t, math.inf)
    return t * p_user_max, t * p_relay_max


def _df_region_touches(p_user: float, p_relay: float, c_th: float, s: SnrTriple) -> bool:
    """True when the point is on or below the AF/DF boundary (weakly DF)."""
    return p_user * s.gamma_ub <= af_df_boundary(p_relay * s.gamma_rb, c_th)


def solve_df_subproblem(
    cfg: UserConfig,
    s: SnrTriple,
    c_th: float,
) -> tuple[float, float, float]:
    """Best DF operating point inside the box and the DF region.

    Maximizes ``min(pu*gub + pr*grb, pu*gur)`` over the power box and the
    DF region ``(C+1)*gub*pu + gub*grb*pu*pr <= C^2 + C``.  At relay power
    ``r`` the best user power is ``min(u_hi, cap)``, ``cap = (C^2 + C)/(gub*t)``,
    ``t = C+1 + grb*r``.  Up to the kink ``r*`` (``cap = u_hi``) the objective
    does not decrease and is flat from ``u_hi*(gur - gub)/grb`` on.  Beyond
    ``r*`` it is ``min(A, B)``: ``A = (C^2 + C)/t + t - (C+1)`` is convex and
    increasing (``t >= C+1``), ``B = cap*gur`` decreases, so they cross at
    most once, at the larger root of ``t^2 - (C+1)*t + (C^2 + C)*(gub - gur)/gub``.
    The optimum is thus exactly one of ``{r_lo, flat start, r*, crossing,
    r_top}`` clipped to ``[r_lo, r_top]``; the first best wins, so ties take
    the least relay power.  With ``grb == 0`` the objective ignores ``r``
    and ``r_lo`` is returned.

    Returns ``(p_user, p_relay, snr_df)``.
    """
    gub, gur, grb = s.gamma_ub, s.gamma_ur, s.gamma_rb
    if gub <= 0:
        raise ValueError("DF subproblem requires a positive mean user->BS SNR")
    bound = c_th * c_th + c_th
    u_lo, u_hi = cfg.p_user_min, cfg.p_user_max
    r_lo, r_hi = cfg.p_relay_min, cfg.p_relay_max
    if not _df_region_touches(u_lo, r_lo, c_th, s):
        raise ValueError("DF subproblem requires the DF region to touch the box (C~ >= 1)")

    def user_cap(p_relay):
        return bound / (gub * ((c_th + 1.0) + grb * p_relay))

    def relay_at_cap(p_user):  # inverse of user_cap; needs grb > 0
        return (bound / (gub * p_user) - (c_th + 1.0)) / grb

    def objective(p_relay):
        p_user = min(u_hi, user_cap(p_relay))
        return min(p_user * gub + p_relay * grb, p_user * gur)

    candidates = [r_lo]
    if grb > 0:
        # Largest relay power leaving a feasible user power (>= r_lo by the ratio guard).
        r_top = max(min(r_hi, relay_at_cap(u_lo)) if u_lo > 0 else r_hi, r_lo)
        # Larger root, free of cancellation; disc < 0 (no crossing) gives r < 0, clipped away.
        disc = (c_th + 1.0) ** 2 + 4.0 * bound * (gur - gub) / gub
        crossing = 2.0 * bound * (gur - gub) / (gub * grb * (c_th + 1.0 + math.sqrt(max(disc, 0.0))))
        points = (u_hi * (gur - gub) / grb, relay_at_cap(u_hi), crossing, r_top)
        candidates += [min(max(r, r_lo), r_top) for r in points]
    best_relay = max(candidates, key=objective)
    best_user = min(u_hi, user_cap(best_relay))
    return float(best_user), float(best_relay), float(objective(best_relay))


def optimize_powers(
    cfg: UserConfig,
    s: SnrTriple,
    c_th: float,
) -> tuple[float, float, Selection]:
    """Scheme-aware optimal transmit powers over the user's power box.

    The scheme-region curve is monotone, so only three cases exist:

    * the max-power corner is in the DF region -> the whole box is, and
      DF at max powers is optimal (DF SNR is nondecreasing in both);
    * the min-power corner is strictly in the AF region -> the whole box
      is, and AF at max powers is optimal;
    * the regions split the box -> the best AF point is the max corner
      and the best DF point solves the DF subproblem; keep the larger
      SNR, AF winning ties.
    """
    if s.gamma_ub <= 0 or s.gamma_rb <= 0:
        raise ValueError("optimize_powers requires positive mean UB/RB SNRs")
    guard = mean_snr_sum(cfg.p_user_min, cfg.p_relay_min, s.gamma_ub, s.gamma_rb)
    if guard < c_th:
        raise InfeasibleError(
            "INFEASIBLE_POWER",
            f"minimum powers give mean SNR sum {guard:.6g} < threshold {c_th:.6g}",
        )
    if scheme_region(cfg.p_user_max, cfg.p_relay_max, c_th, s.gamma_ub, s.gamma_rb) is Selection.DF:
        return cfg.p_user_max, cfg.p_relay_max, Selection.DF
    if not _df_region_touches(cfg.p_user_min, cfg.p_relay_min, c_th, s):
        return cfg.p_user_max, cfg.p_relay_max, Selection.AF
    df_user, df_relay, df_snr = solve_df_subproblem(cfg, s, c_th)
    af_snr = snr_af(cfg.p_user_max, cfg.p_relay_max, s)
    if df_snr > af_snr:
        return df_user, df_relay, Selection.DF
    return cfg.p_user_max, cfg.p_relay_max, Selection.AF


def allocate_bandwidth(snrs, rate_mins, total_bw: float) -> np.ndarray:
    """Closed-form optimal bandwidth split.

    Every user other than the SNR leader gets exactly the bandwidth its
    minimum rate requires; the leader (argmax SNR, smallest index on
    ties) absorbs the rest.  Raises INFEASIBLE_BANDWIDTH when the
    residual cannot cover the leader's own minimum.

    The returned slices are nudged by ulps so that ``sum(b) <= total_bw``
    and ``0.5 * b * log2(1 + snr) >= rate_min`` hold as exact
    floating-point inequalities.
    """
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
            raise InfeasibleError(
                "INFEASIBLE_BANDWIDTH",
                f"user {k} has zero SNR but a positive minimum rate",
            )

    needs = [0.0] * len(snr_list)
    for k, (scale, rate_min) in enumerate(zip(_rate_scale(snrs).tolist(), rate_list)):
        if rate_min > 0:
            need = 2.0 * rate_min / scale
            # Nudge the slice up until the realized rate meets the minimum exactly.
            while 0.5 * need * scale < rate_min:
                need = math.nextafter(need, math.inf)
            needs[k] = need

    leader = int(np.argmax(snrs))
    bandwidth = np.array(needs)
    residual = float(total_bw - (bandwidth.sum() - needs[leader]))
    bandwidth[leader] = residual
    # Keep the summed total within the budget as an exact inequality.
    while bandwidth.sum() > total_bw:
        residual = math.nextafter(residual, -math.inf)
        bandwidth[leader] = residual
    if residual < needs[leader]:
        raise InfeasibleError(
            "INFEASIBLE_BANDWIDTH",
            f"residual bandwidth {residual:.6g} Hz cannot cover the leader's minimum "
            f"{needs[leader]:.6g} Hz",
        )
    return bandwidth


def solve_system(
    users,
    total_bw: float,
    xi: float,
    gamma_ur_values,
) -> AllocationResult:
    """Full per-realization solve: powers, schemes, bandwidth, rates.

    ``gamma_ur_values`` carries each user's instantaneous user->relay
    normalized SNR (best-port gain folded in); UB/RB links use the mean
    SNRs from each budget.
    """
    users = list(users)
    gamma_ur_values = [float(g) for g in gamma_ur_values]
    if not users:
        raise ValueError("solve_system requires at least one user")
    if len(gamma_ur_values) != len(users):
        raise ValueError("one gamma_ur realization is required per user")
    c_th = snr_threshold(xi)

    p_user = np.empty(len(users))
    p_relay = np.empty(len(users))
    schemes: list[Selection] = []
    snrs = np.empty(len(users))
    for k, (cfg, gamma_ur) in enumerate(zip(users, gamma_ur_values)):
        triple = SnrTriple.from_budget(cfg.budget, gamma_ur)
        pu, pr, scheme = optimize_powers(cfg, triple, c_th)
        p_user[k] = pu
        p_relay[k] = pr
        schemes.append(scheme)
        snrs[k] = scheme_snr(scheme, pu, pr, triple)

    rate_mins = np.array([cfg.rate_min for cfg in users])
    bandwidth = allocate_bandwidth(snrs, rate_mins, total_bw)
    rates = 0.5 * bandwidth * _rate_scale(snrs)
    return AllocationResult(
        p_user=p_user,
        p_relay=p_relay,
        bandwidth=bandwidth,
        scheme=tuple(schemes),
        snr=snrs,
        rate=rates,
        best_user_index=int(np.argmax(snrs)),
        sum_rate=float(rates.sum()),
        feasible=True,
    )
