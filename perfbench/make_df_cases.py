"""Record DF-subproblem cases for the ``rate_sweep`` output check.

Usage (from the repository root, on the code the reference should hold)::

    python3 perfbench/make_df_cases.py

Runs the ``rate_sweep`` command on the reference seed with every call of
``fluidrelay.allocator.solve_df_subproblem`` recorded, keeps every
``STRIDE``-th call and writes its inputs and result to
``reference/df_cases.json``.  ``checks.check_df_cases`` replays them.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import checks
import run

STRIDE = 20


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    import fluidrelay.allocator as allocator
    import fluidrelay.cli as cli

    run.OUT.mkdir(exist_ok=True)
    scenario = run.write_scenario("rate_sweep", checks.REFERENCE_SEED)
    csv_path = run.OUT / "make-df-cases.csv"
    calls = []
    original = allocator.solve_df_subproblem

    def recording(cfg, s, c_th):
        result = original(cfg, s, c_th)
        calls.append({"cfg": dataclasses.asdict(cfg), "snr": dataclasses.asdict(s), "c_th": c_th,
                      "result": list(result)})
        return result

    allocator.solve_df_subproblem = recording
    try:
        code = cli.main(run.cli_argv("rate_sweep", scenario, csv_path))
    finally:
        allocator.solve_df_subproblem = original
    if code != 0 or not calls:
        raise SystemExit(f"error: sweep exited with {code} after {len(calls)} DF calls")
    cases = calls[::STRIDE]
    checks.DF_CASES.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} of {len(calls)} DF calls to {checks.DF_CASES}")


if __name__ == "__main__":
    main()
