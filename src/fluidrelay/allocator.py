"""Sum-rate maximization: SNR model, bandwidth closed form, power control.

The system problem (maximize the half-duplex FDMA sum rate subject to
per-user minimum rates, a total bandwidth budget, and per-link power
boxes) decomposes:

1. per user, transmit powers maximize that user's scheme-aware SNR over
   its power box (:func:`power_box`) -- valid because the residual-bandwidth
   objective is nondecreasing in every user's SNR;
2. the relaying scheme at any power point follows the OP-minimized rule
   that ``outage`` owns (``outage.scheme_region``; the AF region is the
   upper-right part of the box, the DF region the lower-left, separated
   by one monotone curve);
3. bandwidth then has a closed form: every user gets exactly the slice
   its minimum rate needs, and the user with the highest SNR absorbs the
   residual, lowered by one bounded search when the row overshoots.

CSI convention: user->BS and relay->BS links enter through *mean*
normalized SNRs everywhere (the relay has only statistical CSI for
them); the user->relay link uses the instantaneous best-port value.

Trials and users are array axes.  :func:`optimize_powers` and
:func:`solve_df_subproblem` take either one :class:`UserConfig`, with
``SnrTriple.gamma_ur`` a float or a 1-D array over trials, or a sequence
of K users as columns: each box and mean SNR is then a ``(K,)`` row
(:meth:`SnrTriple.from_budget` of K budgets) that broadcasts against
``gamma_ur`` shaped ``(K,)`` or ``(T, K)``.  Which case of the power
problem holds is a per-column mask, so every user of a batch takes one
array pass, and one user is the one-column case.  Floats in give floats
out; schemes come as an object array of :class:`Selection`, or one member.
:func:`solve_system` takes the user->relay SNRs of T realizations as a
``(T, K)`` array, solves them in one such pass and returns
:class:`TrialAllocations`, whose ``errors`` say which trials are
infeasible and why; one realization is ``T = 1``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import check
from .errors import InfeasibleError
from .outage import (
    LinkBudget,
    Selection,
    _af_minimizes_outage,
    _df_region_touches,
    _selections,
    mean_snr_sum,
    snr_threshold,
)


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
        check("power_w", self.p_user_max, "p_user_max")
        check("power_w", self.p_relay_max, "p_relay_max")
        if check("min_power_w", self.p_user_min, "p_user_min") > self.p_user_max:
            raise ValueError(f"need p_user_min <= p_user_max, got {self.p_user_min} vs {self.p_user_max}")
        if check("min_power_w", self.p_relay_min, "p_relay_min") > self.p_relay_max:
            raise ValueError(f"need p_relay_min <= p_relay_max, got {self.p_relay_min} vs {self.p_relay_max}")
        check("rate_min_bps", self.rate_min, "rate_min")


@dataclass(frozen=True)
class SnrTriple:
    """Normalized per-watt SNRs for the three links.

    ``gamma_ur`` may be a 1-D array over trials.  ``provenance`` tags each
    value as a statistical mean or an instantaneous realization; the
    default matches the CSI convention (mean UB, instantaneous UR, mean RB).
    """

    gamma_ub: float
    gamma_ur: float
    gamma_rb: float
    provenance: tuple[str, str, str] = ("mean", "instantaneous", "mean")

    def __post_init__(self):
        if np.any(self.gamma_ub < 0) or np.any(self.gamma_ur < 0) or np.any(self.gamma_rb < 0):
            raise ValueError("normalized SNRs must be nonnegative")
        for tag in self.provenance:
            if tag not in ("mean", "instantaneous"):
                raise ValueError(f"provenance tag must be 'mean' or 'instantaneous', got {tag!r}")

    @classmethod
    def from_budget(cls, budget, gamma_ur) -> "SnrTriple":
        """Mean UB/RB SNRs from the budget plus instantaneous UR values; K budgets give ``(K,)`` rows."""
        if isinstance(budget, LinkBudget):
            return cls(gamma_ub=budget.gamma_bar_ub, gamma_ur=gamma_ur, gamma_rb=budget.gamma_bar_rb)
        return cls(
            gamma_ub=np.array([b.gamma_bar_ub for b in budget]),
            gamma_ur=gamma_ur,
            gamma_rb=np.array([b.gamma_bar_rb for b in budget]),
        )


@dataclass(frozen=True)
class TrialAllocations:
    """Solved systems of T channel realizations, one row per trial.

    Arrays are ``(T, K)``, except ``sum_rate``, which is ``(T,)``.
    ``errors[t]`` is None for a feasible trial and its InfeasibleError
    otherwise.  Infeasible trials carry zero bandwidth, rate and sum rate;
    when a power box fails, their powers and SNRs are NaN and their
    schemes None.
    """

    p_user: np.ndarray
    p_relay: np.ndarray
    bandwidth: np.ndarray
    scheme: np.ndarray
    snr: np.ndarray
    rate: np.ndarray
    sum_rate: np.ndarray
    errors: tuple[InfeasibleError | None, ...]


def snr_af(p_user, p_relay, s: SnrTriple):
    """End-to-end AF SNR with MRC of the direct and relayed copies."""
    if np.any(p_user < 0) or np.any(p_relay < 0):
        raise ValueError("powers must be nonnegative")
    relayed_num = p_user * s.gamma_ur * p_relay * s.gamma_rb
    relayed_den = p_relay * s.gamma_rb + p_user * s.gamma_ur + 1.0
    return p_user * s.gamma_ub + relayed_num / relayed_den


def snr_df(p_user, p_relay, s: SnrTriple):
    """End-to-end DF SNR: the weaker of decode hop and combined BS hop."""
    if np.any(p_user < 0) or np.any(p_relay < 0):
        raise ValueError("powers must be nonnegative")
    return np.minimum(p_user * s.gamma_ub + p_relay * s.gamma_rb, p_user * s.gamma_ur)


def scheme_snr(scheme, p_user, p_relay, s: SnrTriple):
    """End-to-end SNR of ``scheme`` (AF, else DF), elementwise over arrays of :class:`Selection`."""
    return np.where(scheme == Selection.AF, snr_af(p_user, p_relay, s), snr_df(p_user, p_relay, s))


def _rate_scale(snr):
    """log2(1 + snr), accurate for small and huge SNR."""
    return np.log1p(snr) / math.log(2.0)


def half_duplex_rate(bandwidth, snr):
    """Half-duplex FDMA rate ``0.5 * bandwidth * log2(1 + snr)`` in bit/s."""
    return 0.5 * bandwidth * _rate_scale(snr)


def _smallest_passing(passes, cap: float) -> float:
    """Smallest x in [0, cap] with ``passes(x)``, for a nondecreasing test that ``cap`` passes.

    Bit patterns order nonnegative doubles, so bisecting them takes at most 64 steps.  The double
    below ``cap`` is tested first: when it fails, ``cap`` is the answer after that one test.
    """
    ok = struct.unpack("<q", struct.pack("<d", cap))[0]
    fails = ok - 1 if ok > 0 and not passes(struct.unpack("<d", struct.pack("<q", ok - 1))[0]) else -1
    while ok - fails > 1:
        mid = (fails + ok) // 2
        if passes(struct.unpack("<d", struct.pack("<q", mid))[0]):
            ok = mid
        else:
            fails = mid
    return struct.unpack("<d", struct.pack("<q", ok))[0]


def _require_reach(label: str, p_user, p_relay, gamma_ub, gamma_rb, c_th: float) -> None:
    """INFEASIBLE_POWER when the mean SNR sum of the powers ``label`` names falls below C_th.

    Over rows of users, the first user whose sum falls short is the one named.
    """
    total = np.reshape(mean_snr_sum(p_user, p_relay, gamma_ub, gamma_rb), -1)
    short = np.flatnonzero(total < c_th)
    if short.size:
        detail = f"{label} give mean SNR sum {total[short[0]]:.6g} < threshold {c_th:.6g}"
        raise InfeasibleError("INFEASIBLE_POWER", detail)


def power_box(budget: LinkBudget, p_user_max, p_relay_max, rate_min, c_th, p_user_min=None, p_relay_min=None):
    """A user's :class:`UserConfig`; a minimum power not given is the smallest passing :func:`optimize_powers`'s guard.

    Neither given: the least scaling ``t * (p_user_max, p_relay_max)``, ``t`` in [0, 1]; one given: the least
    other power in [0, its cap], 0 when the given one alone passes.  Unless both are given, a box that cannot
    reach C_th raises InfeasibleError.
    """
    if p_user_min is not None and p_relay_min is not None:
        return UserConfig(budget, p_user_max, p_relay_max, p_user_min, p_relay_min, rate_min)
    gub, grb = budget.gamma_bar_ub, budget.gamma_bar_rb
    _require_reach("even maximum powers", p_user_max, p_relay_max, gub, grb, c_th)
    # corner(x) is the power pair at search point x in [0, cap]; cap's pair reaches C_th.
    if p_user_min is None and p_relay_min is None:
        corner, cap = (lambda t: (t * p_user_max, t * p_relay_max)), 1.0
    else:
        if p_user_min is None:
            corner, cap = (lambda p: (p, p_relay_min)), p_user_max
        else:
            corner, cap = (lambda p: (p_user_min, p)), p_relay_max
        _require_reach("a given minimum power and the other cap", *corner(cap), gub, grb, c_th)
    least = _smallest_passing(lambda x: mean_snr_sum(*corner(x), gub, grb) >= c_th, cap)
    return UserConfig(budget, p_user_max, p_relay_max, *corner(least), rate_min)


class _Columns(NamedTuple):
    """Users as columns: ``(K,)`` box and mean-SNR rows, ``gamma_ur`` as ``(T, K)``, and its given shape."""

    users: tuple[UserConfig, ...]
    u_lo: np.ndarray
    u_hi: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray
    gub: np.ndarray
    grb: np.ndarray
    gur: np.ndarray
    shape: tuple[int, ...]


def _columns(cfg, s: SnrTriple) -> _Columns:
    """One :class:`UserConfig` as one column, or a sequence of K users whose ``gamma_ur`` is ``(K,)`` or ``(T, K)``."""
    users = (cfg,) if isinstance(cfg, UserConfig) else tuple(cfg)
    shape = np.shape(s.gamma_ur)
    if not isinstance(cfg, UserConfig) and shape[-1:] != (len(users),):
        raise ValueError(f"gamma_ur of {len(users)} users must be shaped (K,) or (T, K), got {shape}")
    box = np.array([(u.p_user_min, u.p_user_max, u.p_relay_min, u.p_relay_max) for u in users], dtype=float)
    gub, grb = np.full(len(users), s.gamma_ub, dtype=float), np.full(len(users), s.gamma_rb, dtype=float)
    gur = np.reshape(s.gamma_ur, (-1, len(users))).astype(float)
    return _Columns(users, *box.T, gub, grb, gur, shape)


def _in_shape(a: np.ndarray, shape: tuple[int, ...]):
    """A ``(T, K)`` result in ``gamma_ur``'s given shape: a float for a float."""
    return float(a[0, 0]) if not shape else a.reshape(shape)


def solve_df_subproblem(cfg, s: SnrTriple, c_th: float):
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
    the least relay power.  Both mean SNRs must be positive.  The candidates
    are elementwise in ``gur`` and the box, so every trial and user column
    (see :func:`optimize_powers`) is solved in one pass.

    Returns ``(p_user, p_relay, snr_df)``, floats or arrays shaped like ``gur``.
    """
    c = _columns(cfg, s)
    if (c.gub <= 0).any() or (c.grb <= 0).any():
        raise ValueError("DF subproblem requires positive mean UB/RB SNRs")
    if not _df_region_touches(c.u_lo, c.r_lo, c_th, c.gub, c.grb).all():
        raise ValueError("DF subproblem requires the DF region to touch the box (C~ >= 1)")
    gub, grb, gur = c.gub, c.grb, c.gur
    bound = c_th * c_th + c_th

    def user_cap(p_relay):
        return bound / (gub * ((c_th + 1.0) + grb * p_relay))

    # Largest relay power leaving a feasible user power (>= r_lo by the ratio guard): the
    # inverse of user_cap at u_lo, capped at r_hi; with u_lo = 0 every relay power leaves one.
    ratio_lo = np.divide(bound, gub * c.u_lo, out=np.full(gub.shape, np.inf), where=c.u_lo > 0)
    r_top = np.maximum(np.minimum(c.r_hi, (ratio_lo - (c_th + 1.0)) / grb), c.r_lo)
    # One (T, K) row per candidate relay power: r_lo, flat start, r*, crossing, r_top.
    relay = np.empty((5, *gur.shape))
    relay[0] = c.r_lo
    excess = gur - gub
    relay[1] = c.u_hi * excess / grb
    relay[2] = (bound / (gub * c.u_hi) - (c_th + 1.0)) / grb
    # Larger root, free of cancellation; disc < 0 (no crossing) gives r < 0, clipped away.
    disc = (c_th + 1.0) ** 2 + 4.0 * bound * excess / gub
    relay[3] = 2.0 * bound * excess / (gub * grb * (c_th + 1.0 + np.sqrt(np.maximum(disc, 0.0))))
    relay[4] = r_top
    np.minimum(np.maximum(relay, c.r_lo, out=relay), r_top, out=relay)
    # Every candidate is <= r_top, so the cap is >= u_lo; the max only undoes
    # rounding in user_cap(r_top), which can land an ulp below u_lo.
    user = np.minimum(c.u_hi, np.maximum(c.u_lo, user_cap(relay)))
    value = np.minimum(user * gub + relay * grb, user * gur)
    best = np.argmax(value, axis=0)
    return tuple(_in_shape(np.choose(best, a), c.shape) for a in (user, relay, value))


def optimize_powers(cfg, s: SnrTriple, c_th: float):
    """Scheme-aware optimal transmit powers over each user's power box.

    The scheme-region curve is monotone, so only three cases exist:

    * the max-power corner is in the DF region -> the whole box is, and
      DF at max powers is optimal (DF SNR is nondecreasing in both);
    * the min-power corner is strictly in the AF region -> the whole box
      is, and AF at max powers is optimal;
    * the regions split the box -> the best AF point is the max corner
      and the best DF point solves the DF subproblem; keep the larger
      SNR, AF winning ties.

    Which case holds does not depend on ``gur``, so it is a mask over user
    columns, and one :func:`solve_df_subproblem` call serves every split
    column.  ``cfg`` is one :class:`UserConfig` or a sequence of K users
    (see the module docstring); a box whose minimum corner misses C_th raises
    the first such user's INFEASIBLE_POWER.  Returns ``(p_user, p_relay,
    scheme)``: floats and a :class:`Selection`, or arrays shaped like ``gur``.
    """
    c = _columns(cfg, s)
    if (c.gub <= 0).any() or (c.grb <= 0).any():
        raise ValueError("optimize_powers requires positive mean UB/RB SNRs")
    _require_reach("minimum powers", c.u_lo, c.r_lo, c.gub, c.grb, c_th)
    # The rule at the max corner, which reaches C_th since the min corner does.
    whole_df = ~_af_minimizes_outage(c.u_hi, c.r_hi, c_th, c.gub, c.grb)
    split = np.flatnonzero(~whole_df & _df_region_touches(c.u_lo, c.r_lo, c_th, c.gub, c.grb))
    p_user, p_relay, df = (np.full(c.gur.shape, row) for row in (c.u_hi, c.r_hi, whole_df))
    if split.size:
        sub = SnrTriple(c.gub[split], c.gur[:, split], c.grb[split])
        df_user, df_relay, df_snr = solve_df_subproblem([c.users[k] for k in split], sub, c_th)
        df[:, split] = wins = df_snr > snr_af(c.u_hi[split], c.r_hi[split], sub)
        p_user[:, split] = np.where(wins, df_user, c.u_hi[split])
        p_relay[:, split] = np.where(wins, df_relay, c.r_hi[split])
    return _in_shape(p_user, c.shape), _in_shape(p_relay, c.shape), _selections(df.reshape(c.shape))


def allocate_bandwidth_rows(snrs, rate_mins, total_bw: float) -> tuple[np.ndarray, list]:
    """:func:`allocate_bandwidth` on each row of ``(T, K)`` SNRs.

    Returns ``(bandwidth, errors)``.  ``errors[t]`` is the InfeasibleError
    that row ``t`` raises in :func:`allocate_bandwidth`, or None; infeasible
    rows get zero bandwidth.  Every feasible row meets both exact inequalities;
    an over-budget row's leader residual comes from one :func:`_smallest_passing`.
    """
    snrs = np.asarray(snrs, dtype=float)
    rate_mins = np.asarray(rate_mins, dtype=float)
    if snrs.ndim != 2 or rate_mins.shape != snrs.shape[1:]:
        raise ValueError("snrs must be (T, K) and rate_mins (K,)")
    if total_bw <= 0:
        raise ValueError("total bandwidth must be positive")
    if not np.all((snrs >= 0) & (snrs < np.inf)):
        raise ValueError("SNRs must be finite and nonnegative")
    floored = rate_mins > 0
    dead = (snrs == 0) & floored  # zero SNR cannot meet a positive minimum rate
    scale = _rate_scale(snrs)
    live = floored & ~dead
    need = np.divide(2.0 * rate_mins, scale, out=np.zeros_like(snrs), where=live)
    # Nudge each slice up until its realized rate meets the minimum exactly.
    short = live & (0.5 * need * scale < rate_mins)
    while short.any():
        need[short] = np.nextafter(need[short], np.inf)
        short &= 0.5 * need * scale < rate_mins

    rows = np.arange(len(snrs))
    leader = np.argmax(snrs, axis=1)
    leader_need = need[rows, leader]
    residual = total_bw - (need.sum(axis=1) - leader_need)
    bandwidth = need
    bandwidth[rows, leader] = residual
    # Keep each feasible row's summed total within the budget as an exact
    # inequality.  The row sum never falls as the residual grows, so the leader
    # takes the double below the smallest residual that overshoots; when even
    # 0 overshoots, that double is negative and the row infeasible below.
    for t in np.flatnonzero((residual >= leader_need) & (bandwidth.sum(axis=1) > total_bw)):

        def overshoots(r, row=bandwidth[t], k=leader[t]):
            row[k] = r
            return row.sum() > total_bw

        residual[t] = bandwidth[t, leader[t]] = np.nextafter(_smallest_passing(overshoots, residual[t]), -np.inf)

    errors = [None] * len(snrs)
    for t in np.flatnonzero(dead.any(axis=1) | ~(residual >= leader_need)):
        if dead[t].any():
            detail = f"user {np.argmax(dead[t])} has zero SNR but a positive minimum rate"
        else:
            detail = (
                f"residual bandwidth {residual[t]:.6g} Hz cannot cover the leader's minimum "
                f"{leader_need[t]:.6g} Hz"
            )
        errors[t] = InfeasibleError("INFEASIBLE_BANDWIDTH", detail)
        bandwidth[t] = 0.0
    return bandwidth, errors


def allocate_bandwidth(snrs, rate_mins, total_bw: float) -> np.ndarray:
    """Closed-form optimal bandwidth split.

    Every user other than the SNR leader gets exactly the bandwidth its
    minimum rate requires; the leader (argmax SNR, smallest index on
    ties) absorbs the rest.  Raises INFEASIBLE_BANDWIDTH when the
    residual cannot cover the leader's own minimum, and ValueError when
    an SNR is negative or not finite.

    ``sum(b) <= total_bw`` and ``half_duplex_rate(b, snr) >= rate_min`` hold as
    exact floating-point inequalities: slices rise by ulps to meet their minimums,
    and a leader's residual that overshoots drops to the largest double that fits.
    """
    snrs = np.asarray(snrs, dtype=float)
    if snrs.ndim != 1 or snrs.shape != np.shape(rate_mins):
        raise ValueError("snrs and rate_mins must be 1-D vectors of equal length")
    bandwidth, errors = allocate_bandwidth_rows(snrs[None, :], rate_mins, total_bw)
    if errors[0] is not None:
        raise errors[0]
    return bandwidth[0]


def sum_over_users(rate: np.ndarray) -> np.ndarray:
    """Per-trial sums of ``(T, K)`` rates, added user by user as ``sum`` adds a list.

    ``rate.sum(axis=1)`` adds eight or more users pairwise, which rounds differently.
    """
    return sum(rate.T)


def solve_system(users, total_bw: float, xi: float, gamma_ur_values) -> TrialAllocations:
    """Full solve of T channel realizations: powers, schemes, bandwidth, rates.

    ``gamma_ur_values`` is ``(T, K)``: each trial's instantaneous
    user->relay normalized SNR of every user (best-port gain folded in);
    UB/RB links use the mean SNRs from each budget.  Infeasible trials are
    marked in ``errors``, never raised.
    """
    users = tuple(users)
    if not users:
        raise ValueError("solve_system requires at least one user")
    gammas = np.asarray(gamma_ur_values, dtype=float)
    if gammas.ndim != 2 or gammas.shape[1] != len(users):
        raise ValueError("gamma_ur must be (T, K): one realization per user in each trial")
    c_th = snr_threshold(xi)
    triple = SnrTriple.from_budget([cfg.budget for cfg in users], gammas)
    try:
        p_user, p_relay, scheme = optimize_powers(users, triple, c_th)
    except InfeasibleError as err:  # a power box fails whatever the channel
        p_user, p_relay, snr = (np.full(gammas.shape, np.nan) for _ in range(3))
        scheme = np.full(gammas.shape, None, dtype=object)
        bandwidth, rate, errors = np.zeros(gammas.shape), np.zeros(gammas.shape), [err] * len(gammas)
    else:
        snr = scheme_snr(scheme, p_user, p_relay, triple)
        bandwidth, errors = allocate_bandwidth_rows(snr, [cfg.rate_min for cfg in users], total_bw)
        rate = half_duplex_rate(bandwidth, snr)
    return TrialAllocations(
        p_user=p_user,
        p_relay=p_relay,
        bandwidth=bandwidth,
        scheme=scheme,
        snr=snr,
        rate=rate,
        sum_rate=sum_over_users(rate),
        errors=tuple(errors),
    )
