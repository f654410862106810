"""The benchmark's recorded DF-subproblem cases replay cleanly through the allocator.

``perfbench/checks.py`` replays 60 recorded ``solve_df_subproblem`` cases
after each ``rate_sweep`` repetition.  Running the same replay here makes
an allocator change that breaks one of them fail ``pytest`` too, not only
a benchmark run.
"""

import importlib
from pathlib import Path

import fluidrelay.allocator as allocator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_recorded_df_cases_replay(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    assert checks.check_df_cases(allocator) == []
