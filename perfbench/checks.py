"""Output checks: turn one workload's CSV into accuracy figures and a verdict.

Reference tables in ``reference/`` were written by the unmodified code for
the default workload seed (``REFERENCE_SEED``).  Outage probabilities and
CDF values are seed-independent quantities that the engine estimates with
seed-dependent lattice shifts, so they are compared with the reference on
every seed, within a tolerance.  Sum rates depend on the seed's channel
draws and are compared on the reference seed only.  The structural checks
(columns, seed-independent columns, ``within_budget``, scheme dominance on
common random numbers) and the replayed DF-subproblem cases
(``reference/df_cases.json``, see ``make_df_cases.py``) apply on every seed.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

REFERENCE_SEED = 2024
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DF_CASES = REFERENCE_DIR / "df_cases.json"

# |op| difference allowed against the reference surface: ten times the
# engine target (--target-error 1e-4) the workload requests.  Over seeds
# 1-11 the largest difference was 1.4e-5.
OP_ABS_TOL = 1e-3
# Difference of ``analytic`` allowed against the reference in
# ``copula_validate``: the smaller of ANALYTIC_REL_TOL * |reference| (for the
# far-tail CDF values, 3.5e-12 to 4e-4) and ANALYTIC_ABS_TOL.  Over seeds
# 1-10 and 12-42 the largest differences were 0.059 relative (the 3.5e-12
# row) and 3.5e-4 absolute.  An engine stopped after its first lattice round,
# instead of spending the 5e5-sample budget, was 1.2e-3 off.
ANALYTIC_REL_TOL = 0.2
ANALYTIC_ABS_TOL = 8e-4
# Relative shortfall allowed against the reference per-trial sum rate; the
# CSV keeps 9 significant digits, so equal solutions differ by < 1e-8.
SUM_RATE_REL_TOL = 1e-6
# A replayed DF case passes when its point lies in the power box and the
# DF region (up to FEASIBLE_REL_TOL), its returned SNR is the DF SNR at
# that point, and that SNR falls short of the recorded one by at most
# DF_REL_TOL (a better optimum passes).
DF_REL_TOL = 1e-6
FEASIBLE_REL_TOL = 1e-9


def _rows(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def _reference(workload: str) -> tuple[list[str], list[dict[str, str]]]:
    return _rows((REFERENCE_DIR / f"{workload}.csv").read_text())


def _same_columns(errors, rows, ref_rows, columns) -> None:
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in columns:
            if row[col] != ref[col]:
                errors.append(f"row {i}: {col}={row[col]!r}, expected {ref[col]!r}")
                return


def _check_outage_map(rows, ref_rows, seed, errors, accuracy) -> None:
    _same_columns(errors, rows, ref_rows, ("p_user_w", "p_relay_w", "xi", "selection"))
    for i, row in enumerate(rows):
        op_af, op_df = float(row["op_af"]), float(row["op_df"])
        if not (0.0 <= op_af <= 1.0 and 0.0 <= op_df <= 1.0):
            errors.append(f"row {i}: outage probability outside [0, 1]")
            return
    err = max(
        abs(float(row[col]) - float(ref[col]))
        for row, ref in zip(rows, ref_rows)
        for col in ("op_af", "op_df")
    )
    accuracy["op_max_abs_err"] = err
    if err > OP_ABS_TOL:
        errors.append(f"op_max_abs_err {err:.3g} > {OP_ABS_TOL:g}")


def _check_copula_validate(rows, ref_rows, seed, errors, accuracy) -> None:
    _same_columns(errors, rows, ref_rows, ("kind", "x", "p_user_w", "p_relay_w", "scheme"))
    failed = [i for i, row in enumerate(rows) if row["within_budget"] != "true"]
    if failed:
        errors.append(f"within_budget false on rows {failed}")
    gaps = [abs(float(r["analytic"]) - float(r["empirical"])) for r in rows if r["kind"] == "cdf"]
    accuracy["copula_gap_max"] = max(gaps)
    # Each row's difference from the reference as a share of its tolerance.
    shares = [
        abs(float(row["analytic"]) - float(ref["analytic"]))
        / min(ANALYTIC_REL_TOL * abs(float(ref["analytic"])), ANALYTIC_ABS_TOL)
        for row, ref in zip(rows, ref_rows)
    ]
    accuracy["analytic_tol_frac"] = max(shares)
    worst = max(range(len(shares)), key=shares.__getitem__)
    if shares[worst] > 1.0:
        errors.append(f"row {worst}: analytic {rows[worst]['analytic']} is {shares[worst]:.3g} tolerances off "
                      f"the reference {ref_rows[worst]['analytic']}")


def _check_rate_sweep(rows, ref_rows, seed, errors, accuracy) -> None:
    _same_columns(errors, rows, ref_rows, ("sweep_value", "scheme", "trial"))
    by_key = {(r["sweep_value"], r["trial"], r["scheme"]): r for r in rows}
    for (value, trial, scheme), row in by_key.items():
        if scheme == "proposed" or row["feasible"] != "true":
            continue
        best = by_key[(value, trial, "proposed")]
        if best["feasible"] == "true" and float(best["sum_rate_bps"]) < float(row["sum_rate_bps"]):
            errors.append(f"sweep_value {value} trial {trial}: {scheme} beats proposed")
            return
    if seed == REFERENCE_SEED:
        _same_columns(errors, rows, ref_rows, ("feasible",))
        shortfall = max(
            (float(ref["sum_rate_bps"]) - float(row["sum_rate_bps"])) / float(ref["sum_rate_bps"])
            for row, ref in zip(rows, ref_rows)
            if ref["feasible"] == "true" and row["feasible"] == "true"
        )
        accuracy["sum_rate_shortfall"] = shortfall
        if shortfall > SUM_RATE_REL_TOL:
            errors.append(f"sum_rate_shortfall {shortfall:.3g} > {SUM_RATE_REL_TOL:g}")


def check_df_cases(allocator) -> list[str]:
    """Replay the recorded DF-subproblem cases through ``allocator``; return the failures."""
    failures = []
    cases = json.loads(DF_CASES.read_text())
    for i, case in enumerate(cases):
        budget = allocator.LinkBudget(**case["cfg"]["budget"])
        cfg = allocator.UserConfig(**dict(case["cfg"], budget=budget))
        s = allocator.SnrTriple(**dict(case["snr"], provenance=tuple(case["snr"]["provenance"])))
        c_th = case["c_th"]
        p_user, p_relay, snr = allocator.solve_df_subproblem(cfg, s, c_th)
        slack = 1.0 + FEASIBLE_REL_TOL
        in_box = (cfg.p_user_min / slack <= p_user <= cfg.p_user_max * slack
                  and cfg.p_relay_min / slack <= p_relay <= cfg.p_relay_max * slack)
        region = (c_th + 1.0) * s.gamma_ub * p_user + s.gamma_ub * s.gamma_rb * p_user * p_relay
        at_point = min(p_user * s.gamma_ub + p_relay * s.gamma_rb, p_user * s.gamma_ur)
        recorded = case["result"][2]
        if not in_box or region > (c_th * c_th + c_th) * slack:
            failures.append(f"DF case {i}: point ({p_user:.9g}, {p_relay:.9g}) outside the box or DF region")
        elif abs(snr - at_point) > FEASIBLE_REL_TOL * abs(at_point):
            failures.append(f"DF case {i}: returned SNR {snr:.9g}, but the DF SNR at its point is {at_point:.9g}")
        elif snr < recorded * (1.0 - DF_REL_TOL):
            failures.append(f"DF case {i}: SNR {snr:.9g} below the recorded optimum {recorded:.9g}")
    if failures:
        return [f"{len(failures)} of {len(cases)} DF cases failed; first: {failures[0]}"]
    return []


_CHECKERS = {
    "outage_map": _check_outage_map,
    "copula_validate": _check_copula_validate,
    "rate_sweep": _check_rate_sweep,
}


def check_output(workload: str, exit_code: int, text: str, seed: int) -> tuple[list[str], dict[str, float]]:
    """Return ``(errors, accuracy)`` for one run; no errors means it passed."""
    errors: list[str] = []
    accuracy: dict[str, float] = {}
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    header, rows = _rows(text)
    ref_header, ref_rows = _reference(workload)
    if header != ref_header or len(rows) != len(ref_rows):
        errors.append(f"table shape {len(header)}x{len(rows)}, expected {len(ref_header)}x{len(ref_rows)}")
        return errors, accuracy
    _CHECKERS[workload](rows, ref_rows, seed, errors, accuracy)
    return errors, accuracy
