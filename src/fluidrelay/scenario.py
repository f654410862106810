"""Scenario file parsing: strict JSON schema with physical-unit conversion.

The schema (see the README for a field reference):

    {
      "grid":   {"n1": int, "n2": int, "w1": num, "w2": num},
      "system": {"total_bw_hz": num, "xi_bits": num, "seed": int, "trials": int},
      "users":  [{"alpha_ur": num, "alpha_ub": num, "alpha_rb": num,
                  "sigma2_relay_dbm": num, "sigma2_bs_dbm": num,
                  "p_user_max_w": num, "p_relay_max_w": num,
                  "rate_min_bps": num,
                  "p_user_min_w": num (optional), "p_relay_min_w": num (optional)}],
      "sweep":  {"variable": str, "values": [num], "schemes": [str]}  (optional)
    }

Unknown keys anywhere are rejected with the offending path so typos in
physical parameters cannot pass silently, and so is every number outside
its row of ``domain.BOUNDS``.  dBm fields convert to watts as
10**((dBm - 30)/10).  Absent minimum powers are derived lazily, by
``allocator.power_box`` in :func:`build_scenario` (commands that never
touch power boxes still work on power-infeasible scenarios).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .allocator import power_box
from .channel import PortGrid
from .domain import check, dbm_to_watts
from .harness import SCHEMES, Scenario, SweepSpec
from .outage import LinkBudget, snr_threshold

@dataclass(frozen=True)
class UserSpec:
    """One user's raw file entry (mins may be absent -> derived later)."""

    budget: LinkBudget
    p_user_max: float
    p_relay_max: float
    rate_min: float
    p_user_min: float | None = None
    p_relay_min: float | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    grid: PortGrid
    total_bw: float
    xi: float
    seed: int
    trials: int
    users: tuple[UserSpec, ...]
    sweep: SweepSpec | None


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected an object")
    return value


def _reject_unknown(obj: dict, path: str, allowed) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key: {path}{unknown[0]}")


def _get_number(obj: dict, path: str, key: str, row: str) -> float:
    """The number at ``key``, checked against the domain's ``row``."""
    if key not in obj:
        raise ValueError(f"missing key: {path}{key}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}{key}: expected a number")
    return float(check(row, value, f"{path}{key}"))


def _get_int(obj: dict, path: str, key: str, *, minimum: int) -> int:
    if key not in obj:
        raise ValueError(f"missing key: {path}{key}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}{key}: expected an integer")
    if value < minimum:
        raise ValueError(f"{path}{key}: must be >= {minimum}")
    return value


def _parse_user(obj, path: str) -> UserSpec:
    obj = _expect_mapping(obj, path)
    _reject_unknown(
        obj,
        path,
        (
            "alpha_ur",
            "alpha_ub",
            "alpha_rb",
            "sigma2_relay_dbm",
            "sigma2_bs_dbm",
            "p_user_max_w",
            "p_relay_max_w",
            "rate_min_bps",
            "p_user_min_w",
            "p_relay_min_w",
        ),
    )
    budget = LinkBudget(
        alpha_ur=_get_number(obj, path, "alpha_ur", "gain"),
        alpha_ub=_get_number(obj, path, "alpha_ub", "gain"),
        alpha_rb=_get_number(obj, path, "alpha_rb", "gain"),
        sigma2_relay=dbm_to_watts(_get_number(obj, path, "sigma2_relay_dbm", "noise_dbm")),
        sigma2_bs=dbm_to_watts(_get_number(obj, path, "sigma2_bs_dbm", "noise_dbm")),
    )
    p_user_max = _get_number(obj, path, "p_user_max_w", "power_w")
    p_relay_max = _get_number(obj, path, "p_relay_max_w", "power_w")
    p_user_min = p_relay_min = None
    if "p_user_min_w" in obj:
        p_user_min = _get_number(obj, path, "p_user_min_w", "min_power_w")
        if p_user_min > p_user_max:
            raise ValueError(f"{path}p_user_min_w: must not exceed p_user_max_w")
    if "p_relay_min_w" in obj:
        p_relay_min = _get_number(obj, path, "p_relay_min_w", "min_power_w")
        if p_relay_min > p_relay_max:
            raise ValueError(f"{path}p_relay_min_w: must not exceed p_relay_max_w")
    return UserSpec(
        budget=budget,
        p_user_max=p_user_max,
        p_relay_max=p_relay_max,
        rate_min=_get_number(obj, path, "rate_min_bps", "rate_min_bps"),
        p_user_min=p_user_min,
        p_relay_min=p_relay_min,
    )


def _parse_sweep(obj, path: str) -> SweepSpec:
    obj = _expect_mapping(obj, path)
    _reject_unknown(obj, path, ("variable", "values", "schemes"))
    if "variable" not in obj:
        raise ValueError(f"missing key: {path}variable")
    if "values" not in obj:
        raise ValueError(f"missing key: {path}values")
    values = obj["values"]
    if not isinstance(values, list) or not values:
        raise ValueError(f"{path}values: expected a nonempty array")
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{path}values[{i}]: expected a number")
    schemes = obj.get("schemes", list(SCHEMES))
    if not isinstance(schemes, list):
        raise ValueError(f"{path}schemes: expected an array")
    try:
        return SweepSpec(variable=obj["variable"], values=tuple(values), schemes=tuple(schemes))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def parse_scenario(doc, source: str = "scenario") -> ScenarioSpec:
    doc = _expect_mapping(doc, source)
    _reject_unknown(doc, "", ("grid", "system", "users", "sweep"))
    for key in ("grid", "system", "users"):
        if key not in doc:
            raise ValueError(f"missing key: {key}")

    grid_obj = _expect_mapping(doc["grid"], "grid")
    _reject_unknown(grid_obj, "grid.", ("n1", "n2", "w1", "w2"))
    grid = PortGrid(
        n1=_get_int(grid_obj, "grid.", "n1", minimum=1),
        n2=_get_int(grid_obj, "grid.", "n2", minimum=1),
        w1=_get_number(grid_obj, "grid.", "w1", "aperture_wl"),
        w2=_get_number(grid_obj, "grid.", "w2", "aperture_wl"),
    )

    system = _expect_mapping(doc["system"], "system")
    _reject_unknown(system, "system.", ("total_bw_hz", "xi_bits", "seed", "trials"))
    total_bw = _get_number(system, "system.", "total_bw_hz", "total_bw_hz")
    xi = _get_number(system, "system.", "xi_bits", "xi_bits")
    seed = _get_int(system, "system.", "seed", minimum=0)
    trials = _get_int(system, "system.", "trials", minimum=1)

    users_obj = doc["users"]
    if not isinstance(users_obj, list) or not users_obj:
        raise ValueError("users: expected a nonempty array")
    users = tuple(_parse_user(u, f"users[{i}].") for i, u in enumerate(users_obj))

    sweep = _parse_sweep(doc["sweep"], "sweep.") if "sweep" in doc else None
    return ScenarioSpec(
        grid=grid, total_bw=total_bw, xi=xi, seed=seed, trials=trials, users=users, sweep=sweep
    )


def load_scenario(path: str) -> ScenarioSpec:
    """Parse a scenario file; JSON errors surface with their byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ValueError(f"parse error at byte offset {err.pos}: {err.msg}") from err
    return parse_scenario(doc, source=path)


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Materialize the runnable scenario; ``allocator.power_box`` builds each user's box.

    Raises InfeasibleError when a minimum power to derive cannot reach the
    outage threshold within its cap.
    """
    c_th = snr_threshold(spec.xi)
    return Scenario(
        users=tuple(
            power_box(u.budget, u.p_user_max, u.p_relay_max, u.rate_min, c_th, u.p_user_min, u.p_relay_min)
            for u in spec.users
        ),
        grid=spec.grid,
        total_bw=spec.total_bw,
        xi=spec.xi,
        seed=spec.seed,
        trials=spec.trials,
    )
