"""The physical input domain: one table of bounds and one checker.

Every physical number the program reads lies in a row of :data:`BOUNDS`:
scenario keys, the ``op-surface`` flags ``--xi``, ``--pu-range`` and
``--pr-range``, ``relay_power_max`` sweep values, and the fields of
``LinkBudget``, ``UserConfig``, ``Scenario`` and (through ``snr_threshold``)
``OutageQuery``.  :func:`check` rejects anything else, NaN and inf included,
with a ValueError that names the key, flag, sweep value or field.

Why every intermediate stays finite and normal on the domain: the rows give
C_th = 2^(2 xi) - 1 in [1.39e-6, 1.85e19], mean SNRs per watt in
[1e-30, 1e30], and mean SNRs of at most 1e36 at the caps.  Derived values:

* ``power_box``'s minimum corners fall below the cap bound: ``t`` times the
  caps with ``t`` >= C_th / 2e36 = 6.9e-43 (neither given), or a partner
  that moves the mean SNR sum by at least C_th * 2^-54 (one given).  Each
  is 0 or at least 6.9e-73 W, inside the ``min_power_w`` row.
* ``random_power`` draws ``lo + (hi - lo) * u``, ``u`` a multiple of 2^-53:
  0 W, or at least 6.9e-73 W.
* ``op-surface``'s default range [0, 3 C_th / mean SNR] reaches 5.5e49 W,
  past the cap bound, while each axis's mean SNR stays at most 3 C_th.  Any
  range's positive grid points are at least 1e-80 W / 1e12 steps = 1e-92 W.
* ``validate``'s probes reach 3.7e49 W and a direct mean SNR of 1.9e79.
* Best-port gains are 0 or in [1e-33, 2e8]: the first port's ``|h|^2`` is
  half a sum of two squared ziggurat normals, each 0 or at least 4.8e-17 and
  at most 14 in magnitude, and N ports (N < 1e6, for the N x N correlation
  matrix to fit in memory) multiply the top by at most N.  User->relay SNRs
  per watt are thus 0 or in [1e-63, 2e38].

Hence ``xi_df``'s denominator ``alpha_ur * p_u`` is at least 1e-117, and
``xi_af``'s (times a feasibility margin of at least one ulp of C_th) at least
1e-139, against numerators of at most 1e5 * 1e36 * 1.9e79 = 1.9e120.  In the
DF power subproblem ``C^2 + C`` is at most 3.4e38, its quotients by
``gamma_ub * u_lo`` >= 6.9e-103 and by ``gamma_rb`` >= 1e-30 stay below 5e170,
and its discriminant below 2.7e107.  SNRs are at most 2e44, and a positive one
the allocator sees at least 6.9e-136, so a rate floor's slice
``2 rate_min / log2(1 + SNR)`` is at most 2e148.  Rates are at most
0.5 * 1e12 * 148 = 7.4e13 bit/s a user, and ``2 pi hypot(w1, w2)`` at most 8.9e6.
"""

from __future__ import annotations

from typing import NamedTuple


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


class Bound(NamedTuple):
    lo: float
    hi: float
    unit: str
    zero: bool = False  # 0 lies in the domain too


_NOISE_DBM = Bound(-170.0, 80.0, "dBm")

BOUNDS = {
    "xi_bits": Bound(1e-6, 32.0, "bit/s/Hz"),
    # Power caps and relay_power_max sweep values.
    "power_w": Bound(1e-30, 1e6, "W"),
    # Minimum powers, given or derived, and the ends of op-surface's power ranges.
    "min_power_w": Bound(1e-80, 1e6, "W", zero=True),
    # Large-scale link gains alpha_ur, alpha_ub and alpha_rb.
    "gain": Bound(1e-25, 1e10, "(linear)"),
    "noise_dbm": _NOISE_DBM,
    "noise_w": Bound(dbm_to_watts(_NOISE_DBM.lo), dbm_to_watts(_NOISE_DBM.hi), "W"),
    "total_bw_hz": Bound(1.0, 1e12, "Hz"),
    "rate_min_bps": Bound(1e-3, 1e13, "bit/s", zero=True),
    "aperture_wl": Bound(0.0, 1e6, "wavelengths"),
}


def check(row: str, value, name: str):
    """``value`` unchanged when it lies in ``BOUNDS[row]``; otherwise a ValueError that names ``name``."""
    lo, hi, unit, zero = BOUNDS[row]
    if not (lo <= value <= hi or zero and value == 0):
        raise ValueError(f"{name}: must be {'0 or ' if zero else ''}in [{lo:g}, {hi:g}] {unit}, got {value}")
    return value
