"""Scenario file parsing: strict JSON sections with physical-unit conversion.

:data:`SECTIONS` is the schema of the ``grid``, ``system`` and ``users[]``
sections.  It gives each key its rule: a row of ``domain.BOUNDS`` for a
number, or the least allowed value for an integer.  Only the keys in
:data:`OPTIONAL` may be absent.  The optional ``sweep`` section takes
``variable``, ``values`` and ``schemes``, whose rules ``harness.SweepSpec``
holds.  The README is the field reference.

Unknown keys anywhere are rejected with the offending path so typos in
physical parameters cannot pass silently, and so is every number outside
its rule.  dBm fields convert to watts as 10**((dBm - 30)/10).  Absent
minimum powers are derived lazily, by ``allocator.power_box`` in
:func:`build_scenario` (commands that never touch power boxes still work on
power-infeasible scenarios).
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


# Each section's rules by key: a ``domain.BOUNDS`` row for a number, the least allowed value for an integer.
SECTIONS = {
    "grid": {"n1": 1, "n2": 1, "w1": "aperture_wl", "w2": "aperture_wl"},
    "system": {"total_bw_hz": "total_bw_hz", "xi_bits": "xi_bits", "seed": 0, "trials": 1},
    "users": {
        "alpha_ur": "gain", "alpha_ub": "gain", "alpha_rb": "gain",
        "sigma2_relay_dbm": "noise_dbm", "sigma2_bs_dbm": "noise_dbm",
        "p_user_max_w": "power_w", "p_relay_max_w": "power_w",
        "p_user_min_w": "min_power_w", "p_relay_min_w": "min_power_w",
        "rate_min_bps": "rate_min_bps",
    },
}
OPTIONAL = frozenset({"p_user_min_w", "p_relay_min_w"})


def _keys(obj, path: str, allowed, optional=()) -> dict:
    """``obj`` when it is an object with no key outside ``allowed`` and every key of ``allowed`` not in ``optional``.

    Messages name ``obj`` as ``path`` and its keys as ``path.key``, or as ``key`` when ``path`` is empty.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key: {prefix}{unknown[0]}")
    for key in allowed:
        if key not in obj and key not in optional:
            raise ValueError(f"missing key: {prefix}{key}")
    return obj


def _read(obj, path: str, table: dict) -> dict:
    """The values of section ``obj`` by key, each checked against its rule in ``table``."""
    values = {}
    for key, value in _keys(obj, path, table, OPTIONAL).items():
        rule, name = table[key], f"{path}.{key}"
        integer = isinstance(rule, int)
        # A bool is never a number, and a JSON float such as 2.0 is never an integer.
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            raise ValueError(f"{name}: expected {'an integer' if integer else 'a number'}")
        if integer and value < rule:
            raise ValueError(f"{name}: must be >= {rule}")
        values[key] = value if integer else float(check(rule, value, name))
    return values


def _parse_user(obj, path: str) -> UserSpec:
    v = _read(obj, path, SECTIONS["users"])
    for low, cap in (("p_user_min_w", "p_user_max_w"), ("p_relay_min_w", "p_relay_max_w")):
        if v.get(low, 0.0) > v[cap]:
            raise ValueError(f"{path}.{low}: must not exceed {cap}")
    budget = LinkBudget(
        v["alpha_ur"], v["alpha_ub"], v["alpha_rb"],
        dbm_to_watts(v["sigma2_relay_dbm"]), dbm_to_watts(v["sigma2_bs_dbm"])
    )
    return UserSpec(
        budget, v["p_user_max_w"], v["p_relay_max_w"], v["rate_min_bps"], v.get("p_user_min_w"), v.get("p_relay_min_w")
    )


def _parse_sweep(obj, path: str) -> SweepSpec:
    obj = _keys(obj, path, ("variable", "values", "schemes"), optional=("schemes",))
    values = obj["values"]
    if not isinstance(values, list) or not values:
        raise ValueError(f"{path}.values: expected a nonempty array")
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{path}.values[{i}]: expected a number")
    schemes = obj.get("schemes", list(SCHEMES))
    if not isinstance(schemes, list):
        raise ValueError(f"{path}.schemes: expected an array")
    try:
        return SweepSpec(variable=obj["variable"], values=tuple(values), schemes=tuple(schemes))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def parse_scenario(doc, source: str = "scenario") -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: expected an object")
    _keys(doc, "", ("grid", "system", "users", "sweep"), optional=("sweep",))
    grid = PortGrid(**_read(doc["grid"], "grid", SECTIONS["grid"]))
    system = _read(doc["system"], "system", SECTIONS["system"])
    users_obj = doc["users"]
    if not isinstance(users_obj, list) or not users_obj:
        raise ValueError("users: expected a nonempty array")
    users = tuple(_parse_user(u, f"users[{i}]") for i, u in enumerate(users_obj))
    sweep = _parse_sweep(doc["sweep"], "sweep") if "sweep" in doc else None
    return ScenarioSpec(
        grid, system["total_bw_hz"], system["xi_bits"], system["seed"], system["trials"], users, sweep
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
