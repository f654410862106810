import contextlib
import copy
import hashlib
import importlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluidrelay.cli as cli
from fluidrelay import scheme_region, solve_system
from fluidrelay.domain import BOUNDS
from fluidrelay.harness import SCHEMES, TrialDraws, draw_gamma_ur, run_benchmark
from fluidrelay.outage import snr_threshold
from fluidrelay.scenario import build_scenario, load_scenario

from oracles import leader_residual_is_tight

DEFAULT_SCENARIO = str(Path(__file__).resolve().parent.parent / "scenarios" / "default.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# stdout of the benchmark's outage_map command (seed 2024, 20x20, 1e-4).
OUTAGE_MAP_SHA256 = "8cace161ec48a076c55219868dd25c211ac629efdd94ebf22a8afad1674e6fe8"
# stdout of ``optimize`` and ``sweep`` on the shipped scenarios.  ``hybrid.json`` is
# ``default.json`` at xi_bits 6, where DF wins 28% of the proposed user-trials
# (user 0's optimize row among them); at 0.1 bit AF wins every one.
SCENARIO_SHA256 = {
    ("optimize", "default.json"): "0be8d4b90becb3c2fdf58086886d72ad294800c731606831b2600b5d54d08dc7",
    ("sweep", "default.json"): "8a4f279cdff36f4d274fd9ae05c0b85e6b18df307ea734f7806352612b6cc2d5",
    ("optimize", "hybrid.json"): "a00754f0b5ba5f4b0f338a1294af8c845d50c0058f7acf804678cfdf250fd35c",
    ("sweep", "hybrid.json"): "586f645a56c9f2a32fcad6f3eaf63cb59b1cb1356597c4b8a02a99fe0676dfcc",
}


def base_doc(**overrides):
    doc = {
        "grid": {"n1": 2, "n2": 2, "w1": 1.0, "w2": 1.0},
        "system": {"total_bw_hz": 5e6, "xi_bits": 0.1, "seed": 11, "trials": 4},
        "users": [
            {
                "alpha_ur": 1e-9,
                "alpha_ub": 1e-11,
                "alpha_rb": 1e-9,
                "sigma2_relay_dbm": -120,
                "sigma2_bs_dbm": -120,
                "p_user_max_w": 0.1,
                "p_relay_max_w": 0.1,
                "rate_min_bps": 5e5,
            },
            {
                "alpha_ur": 2e-9,
                "alpha_ub": 2e-11,
                "alpha_rb": 2e-9,
                "sigma2_relay_dbm": -120,
                "sigma2_bs_dbm": -120,
                "p_user_max_w": 0.1,
                "p_relay_max_w": 0.1,
                "rate_min_bps": 5e5,
            },
        ],
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# A CLI run that never returns fails its test instead of stalling the suite.
_CLI_TIMEOUT_S = 300


def run_cli(*args):
    """``fluidrelay.cli.main(args)`` in this process, with its exit code and captured output.

    argparse's ``SystemExit`` becomes the return code.  Any other exception
    escapes and fails the test, as a traceback would in a real run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exit_:
            code = exit_.code or 0
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def finite_csv(text: str) -> bool:
    """Whether every numeric cell of a CSV table (header row skipped) is finite."""
    numbers = []
    for cell in (cell for row in text.strip().split("\n")[1:] for cell in row.split(",")):
        try:
            numbers.append(float(cell))
        except ValueError:  # a label, a scheme or an empty cell
            pass
    return all(math.isfinite(number) for number in numbers)


def run_module(*args):
    """``python -m fluidrelay args`` in a fresh interpreter: the entry point, and bytes across processes."""
    return subprocess.run(
        [sys.executable, "-m", "fluidrelay", *args],
        capture_output=True,
        text=True,
        timeout=_CLI_TIMEOUT_S,
    )


class TestOpSurface:
    def _outage_map(self, tmp_path, monkeypatch, threads):
        # The benchmark's outage_map scenario as perfbench/run.py writes it, judged
        # by the benchmark's own check against perfbench/reference/outage_map.csv,
        # and pinned to the bytes of the common-seed map (that reference file
        # predates it and differs from it at line 28).
        monkeypatch.syspath_prepend(str(PERFBENCH))
        checks = importlib.import_module("checks")
        doc = json.loads((PERFBENCH / "base_scenario.json").read_text())
        doc["system"].update(seed=2024)
        path = tmp_path / "scenario-outage_map-seed2024.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        result = run_cli(
            "op-surface", "--steps", "20", "--target-error", "1e-4", "--max-samples", "2000000",
            str(path), "--threads", threads,
        )
        errors, _ = checks.check_output("outage_map", result.returncode, result.stdout, 2024)
        assert errors == [], result.stderr
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == OUTAGE_MAP_SHA256

    def test_outage_map_workload_passes_benchmark_check(self, tmp_path, monkeypatch):
        self._outage_map(tmp_path, monkeypatch, "1")

    def test_outage_map_bytes_at_two_threads(self, tmp_path, monkeypatch):
        self._outage_map(tmp_path, monkeypatch, "2")

    @pytest.mark.parametrize(
        "args", [("validate", "--trials", "1000000000000000"), ("op-surface", "--steps", "1000000000000000")]
    )
    def test_impossible_allocation_exit_2(self, args):
        # The first request is for 7 PiB, which no address space holds: nothing is allocated.
        result = run_cli(*args, DEFAULT_SCENARIO)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "Unable to allocate" in result.stderr
        assert "Traceback" not in result.stderr

    def test_row_count(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        result = run_cli("op-surface", path, "--steps", "10", "--target-error", "5e-3")
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "p_user_w,p_relay_w,xi,op_af,op_df,selection"
        assert len(lines) == 1 + 100

    def test_malformed_json_exit_2_with_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": {,}}')
        result = run_cli("op-surface", str(path))
        assert result.returncode == 2
        assert "byte offset" in result.stderr

    def test_all_infeasible_at_high_threshold(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        result = run_cli(
            "op-surface", path, "--steps", "4", "--xi", "30",
            "--pu-range", "0", "0.1", "--pr-range", "0", "0.1",
        )
        assert result.returncode == 0
        rows = result.stdout.strip().split("\n")[1:]
        assert all(row.endswith("INFEASIBLE") for row in rows)

    @pytest.mark.parametrize(
        "command, scenario_xi, flags",
        [
            ("op-surface", 0.1, ("--xi", "600")),
            ("op-surface", 600, ()),
            ("optimize", 600, ()),
        ],
    )
    def test_overflowing_xi_exit_2(self, tmp_path, command, scenario_xi, flags):
        doc = base_doc(system={"total_bw_hz": 5e6, "xi_bits": scenario_xi, "seed": 11, "trials": 4})
        path = write_doc(tmp_path, doc)
        result = run_cli(command, path, *flags)
        assert result.returncode == 2
        named = "--xi" if flags else "system.xi_bits"
        assert result.stderr == f"error: {named}: must be in [1e-06, 32] bit/s/Hz, got 600{'.0' if flags else ''}\n"

    def test_nan_xi_exit_2_names_xi(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        result = run_cli("op-surface", path, "--xi", "nan")
        assert result.returncode == 2
        assert result.stderr == "error: --xi: must be in [1e-06, 32] bit/s/Hz, got nan\n"

    @pytest.mark.parametrize("xi", [1e-300, 1e-17, 5e-7])
    def test_tiny_xi_exit_2_names_it(self, tmp_path, xi):
        # Below about 5.6e-17, C_th rounded to exactly 0 and the default range collapsed to
        # [0, 0]: nine identical INFEASIBLE rows with exit 0.
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        doc["system"]["xi_bits"] = xi
        result = run_cli("op-surface", write_doc(tmp_path, doc), "--steps", "3")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: system.xi_bits: must be in [1e-06, 32] bit/s/Hz")
        result = run_cli("op-surface", DEFAULT_SCENARIO, "--steps", "3", "--xi", str(xi))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: --xi: must be in [1e-06, 32] bit/s/Hz")

    @pytest.mark.parametrize(
        "flag, power_range",
        [
            ("--pu-range", ("0", "inf")),
            ("--pr-range", ("nan", "1")),
            ("--pu-range", ("-1", "1")),
            ("--pr-range", ("1e-81", "1")),
            ("--pu-range", ("0", "2e6")),
        ],
    )
    def test_power_range_outside_the_domain_exit_2_without_warning(self, flag, power_range):
        # "--pu-range 0 inf" printed numpy's RuntimeWarning from linspace before it exited 2.
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fluidrelay", "op-surface", DEFAULT_SCENARIO,
             flag, *power_range],
            capture_output=True, text=True, timeout=_CLI_TIMEOUT_S,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(f"error: {flag}: must be 0 or in [1e-80, 1e+06] W, got ")

    def test_power_range_ends_out_of_order_exit_2(self):
        result = run_cli("op-surface", DEFAULT_SCENARIO, "--pr-range", "0.2", "0.1")
        assert result.returncode == 2
        assert result.stderr == "error: --pr-range: LO must not exceed HI, got 0.2 > 0.1\n"

    def test_missing_file_exit_2(self):
        assert run_cli("op-surface", "/nonexistent/file.json").returncode == 2

    def test_huge_xi_gives_finite_map(self):
        # At the domain's largest xi, C_th = 2^64 - 1 and the default range reaches 2.8e16 W.
        result = run_cli(
            "op-surface", DEFAULT_SCENARIO, "--xi", "32", "--target-error", "5e-3",
            "--threads", "1",
        )
        assert result.returncode == 0, result.stderr
        rows = [row.split(",") for row in result.stdout.strip().split("\n")[1:]]
        assert len(rows) == 400
        assert all(math.isfinite(float(value)) for row in rows for value in row[:5])
        assert {row[5] for row in rows} == {"AF", "DF", "INFEASIBLE"}

    @staticmethod
    def map_rows(*ranges):
        result = run_cli(
            "op-surface", DEFAULT_SCENARIO, "--steps", "2", *ranges, "--target-error", "5e-3",
            "--threads", "1",
        )
        assert result.returncode == 0, result.stderr
        return [row.split(",") for row in result.stdout.strip().split("\n")[1:]]

    def test_overflowing_relay_snr_takes_limit(self):
        # p_r * gamma_rb overflowed a double from p_r ~ 1.8e302 on; the range now stops at 1e6 W,
        # where the relay's mean SNR (1e12) already takes AF's limit at every point.
        result = run_cli("op-surface", DEFAULT_SCENARIO, "--steps", "2", "--pr-range", "1e306", "1e307")
        assert result.returncode == 2 and result.stderr.startswith("error: --pr-range: must be 0 or in")
        rows = self.map_rows("--pu-range", "1e-5", "2e-5", "--pr-range", "1e5", "1e6")
        assert all(math.isfinite(float(value)) for row in rows for value in row[:5])
        assert {row[5] for row in rows} == {"AF"}

    def test_overflowing_user_snr_gives_zero_af(self):
        result = run_cli("op-surface", DEFAULT_SCENARIO, "--steps", "2", "--pu-range", "1e306", "1e307")
        assert result.returncode == 2 and result.stderr.startswith("error: --pu-range: must be 0 or in")
        rows = self.map_rows("--pu-range", "1e5", "1e6", "--pr-range", "1e-3", "2e-3")
        assert len(rows) == 4
        assert all(row[3] == "0" and row[5] == "AF" for row in rows)

    def test_overflowing_default_range_exit_2(self, tmp_path):
        # A direct mean SNR of 1e-9 per watt made 3*C_th/SNR overflow at xi = 500; its gain is now
        # outside the domain.  At the domain's corner (1e-30 per watt, xi = 32) the default range
        # reaches 5.5e49 W, past the cap bound, and is used as it is.
        doc = base_doc()
        doc["users"][0]["alpha_ub"] = 1e-26
        result = run_module("op-surface", write_doc(tmp_path, doc), "--xi", "32")
        assert result.returncode == 2
        assert result.stderr == "error: users[0].alpha_ub: must be in [1e-25, 1e+10] (linear), got 1e-26\n"
        doc["users"][0].update(alpha_ub=1e-25, sigma2_bs_dbm=80)
        result = run_cli("op-surface", write_doc(tmp_path, doc), "--xi", "32", "--steps", "2", "--max-samples", "1200")
        assert result.returncode == 0, result.stderr
        rows = [[float(value) for value in row.split(",")[:5]] for row in result.stdout.strip().split("\n")[1:]]
        assert all(math.isfinite(value) for row in rows for value in row)
        assert max(row[0] for row in rows) == pytest.approx(3.0 * snr_threshold(32.0) / 1e-30, rel=1e-8)

    def test_max_samples_below_one_per_shift_exit_2(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        result = run_cli("op-surface", path, "--steps", "3", "--max-samples", "5")
        assert result.returncode == 2
        assert "max_samples must be at least 12" in result.stderr
        assert "Traceback" not in result.stderr


class TestEngineSettings:
    """``--target-error``/``--max-samples`` are checked before any work, and only where read."""

    def test_all_infeasible_map_still_checks_max_samples(self):
        # Every point is infeasible, so no CDF is evaluated.
        result = run_cli(
            "op-surface", DEFAULT_SCENARIO, "--pu-range", "0", "1e-12", "--pr-range", "0", "1e-12",
            "--max-samples", "5",
        )
        assert result.returncode == 2
        assert "max_samples must be at least 12" in result.stderr
        assert "Traceback" not in result.stderr

    def test_validate_checks_target_error_before_sampling(self):
        # Too few trials would fail inside the sampling step, which must not be reached.
        result = run_cli("validate", DEFAULT_SCENARIO, "--target-error", "0.5", "--trials", "5")
        assert result.returncode == 2
        assert "target_abs_error must be in (0, 0.1], got 0.5" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    def test_engine_flags_rejected_where_unread(self, command):
        result = run_cli(command, DEFAULT_SCENARIO, "--target-error", "7", "--max-samples", "-4")
        assert result.returncode == 2
        assert "unrecognized arguments: --target-error 7 --max-samples -4" in result.stderr


class TestCountFlags:
    """Counts below 1 are input errors that name their flag, before any work."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", ["op-surface", "validate", "optimize", "sweep"])
    def test_threads_below_one_exit_2(self, command, value):
        result = run_cli(command, DEFAULT_SCENARIO, "--threads", value)
        assert result.returncode == 2
        assert f"argument --threads: must be an integer >= 1, got '{value}'" in result.stderr

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("op-surface", "--steps", "0"),
            ("op-surface", "--steps", "-3"),
            ("validate", "--points", "0"),
            ("validate", "--points", "-2"),
            ("validate", "--points", "2.5"),
        ],
    )
    def test_grid_counts_below_one_exit_2(self, command, flag, value):
        result = run_cli(command, DEFAULT_SCENARIO, flag, value)
        assert result.returncode == 2
        assert f"argument {flag}: must be an integer >= 1, got '{value}'" in result.stderr

    def test_one_of_each_runs(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        result = run_cli("op-surface", path, "--steps", "1", "--threads", "1", "--target-error", "5e-3")
        assert result.returncode == 0
        assert len(result.stdout.strip().split("\n")) == 2


class TestRelayingDecisions:
    """Feasibility and the AF/DF boundary agree between the outage map and the allocator."""

    def test_threshold_on_the_min_power_boundary_runs(self, tmp_path):
        # At xi = 6.02 the derived minimum powers once failed the optimizer's guard by an ulp.
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        doc["system"]["xi_bits"] = 6.02
        path = write_doc(tmp_path, doc)
        optimize = run_cli("optimize", path)
        assert optimize.returncode == 0, optimize.stderr
        sweep = run_cli("sweep", path)
        assert sweep.returncode == 0, sweep.stderr
        proposed = [row.split(",") for row in sweep.stdout.split("\n") if ",proposed," in row]
        assert len(proposed) == 400
        assert all(row[4] == "true" for row in proposed)

    def test_map_selection_is_scheme_region(self):
        result = run_cli(
            "op-surface", DEFAULT_SCENARIO, "--xi", "1", "--steps", "10", "--target-error", "5e-3",
            "--threads", "1",
        )
        assert result.returncode == 0, result.stderr
        rows = [row.split(",") for row in result.stdout.strip().split("\n")[1:]]
        budget = load_scenario(DEFAULT_SCENARIO).users[0].budget
        gub, grb = budget.gamma_bar_ub, budget.gamma_bar_rb
        c_th = snr_threshold(1.0)
        # The CLI's default ranges: [0, 3 * C_th / mean SNR] per axis.
        points = [
            (pu, pr)
            for pu in np.linspace(0.0, 3.0 * c_th / gub, 10)
            for pr in np.linspace(0.0, 3.0 * c_th / grb, 10)
        ]
        assert [row[:2] for row in rows] == [[f"{pu:.9g}", f"{pr:.9g}"] for pu, pr in points]
        # Without user power (the first row) the map picks AF by the tie
        # convention; scheme_region needs p_user > 0.
        feasible = [
            (row[5], pu, pr) for row, (pu, pr) in zip(rows, points) if row[5] != "INFEASIBLE" and pu > 0
        ]
        assert len(feasible) > 50
        for selection, pu, pr in feasible:
            assert selection == scheme_region(pu, pr, c_th, gub, grb).value, (pu, pr)
        assert ["0.0005", "8e-06", "1", "2.13421769e-25", "1.9115791e-25", "DF"] in rows


class TestValidate:
    def test_copula_validate_workload_bytes_match_reference(self, tmp_path):
        # The benchmark's copula_validate scenario as perfbench/run.py writes it:
        # base_scenario.json at the reference seed 2024, with the workload's flags.
        doc = json.loads((PERFBENCH / "base_scenario.json").read_text())
        doc["system"].update(seed=2024)
        path = tmp_path / "scenario-copula_validate-seed2024.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        out = tmp_path / "copula_validate.csv"
        result = run_cli(
            "validate", "--trials", "100000", "--points", "9", "--target-error", "1e-6",
            "--max-samples", "500000", str(path), "--threads", "1", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == (PERFBENCH / "reference" / "copula_validate.csv").read_bytes()

    def test_degenerate_grid_matches_marginal(self, tmp_path):
        doc = base_doc(grid={"n1": 1, "n2": 1, "w1": 0.0, "w2": 0.0})
        path = write_doc(tmp_path, doc)
        result = run_cli("validate", path, "--trials", "20000", "--points", "5")
        assert result.returncode == 0
        for line in result.stdout.strip().split("\n")[1:]:
            cells = line.split(",")
            if cells[0] != "cdf":
                continue
            x, analytic = float(cells[1]), float(cells[5])
            assert abs(analytic - (1.0 - math.exp(-x))) < 1e-9

    def test_default_grid_within_budget(self, tmp_path):
        doc = base_doc(grid={"n1": 4, "n2": 4, "w1": 1.0, "w2": 1.0})
        path = write_doc(tmp_path, doc)
        result = run_cli("validate", path, "--trials", "50000", "--target-error", "1e-3")
        assert result.returncode == 0
        assert "false" not in result.stdout


@pytest.mark.parametrize("command, name", sorted(SCENARIO_SHA256))
def test_shipped_scenario_bytes(command, name):
    result = run_cli(command, str(Path(DEFAULT_SCENARIO).with_name(name)))
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == SCENARIO_SHA256[command, name]


def test_hybrid_scenario_mixes_schemes():
    result = run_cli("optimize", str(Path(DEFAULT_SCENARIO).with_name("hybrid.json")))
    schemes = [line.split(",")[4] for line in result.stdout.splitlines()[1:-1]]
    assert schemes == ["DF", "AF", "AF", "AF"]


class TestOptimize:
    def test_single_user_takes_all_bandwidth(self, tmp_path):
        doc = base_doc()
        doc["users"] = doc["users"][:1]
        doc["users"][0]["rate_min_bps"] = 0.0
        path = write_doc(tmp_path, doc)
        result = run_cli("optimize", path)
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert len(lines) == 3  # header + user + summary
        user_row = lines[1].split(",")
        assert float(user_row[5]) == pytest.approx(5e6)

    def test_infeasible_rate_floor_exit_5(self, tmp_path):
        doc = base_doc()
        for user in doc["users"]:
            user["rate_min_bps"] = 1e12
        path = write_doc(tmp_path, doc)
        result = run_module("optimize", path)
        assert result.returncode == 5
        assert "INFEASIBLE_BANDWIDTH" in result.stderr

    def test_given_minimum_powers_below_threshold_exit_5(self, tmp_path):
        # The same box makes every power-controlled sweep trial an INFEASIBLE_POWER row (TestSweep).
        doc = base_doc()
        doc["users"][0].update(p_user_min_w=1e-9, p_relay_min_w=1e-9)
        result = run_cli("optimize", write_doc(tmp_path, doc))
        assert result.returncode == 5
        assert "INFEASIBLE_POWER: minimum powers give mean SNR sum" in result.stderr

    def test_bit_exact_across_runs(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        first = run_cli("optimize", path)
        second = run_cli("optimize", path)
        assert first.stdout == second.stdout

    def test_out_flag_writes_file(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        out = tmp_path / "result.csv"
        result = run_cli("optimize", path, "--out", str(out))
        assert result.returncode == 0
        assert result.stdout == ""
        assert out.read_text().startswith("row,user,")

    def test_default_scenario_bytes(self):
        result = run_module("optimize", DEFAULT_SCENARIO)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "row,user,p_user_w,p_relay_w,scheme,bandwidth_hz,snr,rate_bps,best_user_index,sum_rate_bps,feasible\n"
            "user,0,0.1,0.1,AF,61590.9331,77190.5886,500000,,,\n"
            "user,1,0.1,0.1,AF,58535.2589,138902.214,500000,,,\n"
            "user,2,0.1,0.1,AF,59197.8486,121659.878,500000,,,\n"
            "user,3,0.1,0.1,AF,4820675.96,176227.614,42005173.7,,,\n"
            "summary,,,,,,,,3,43505173.7,true\n"
        )

    def test_nine_users_summary(self, tmp_path):
        # Nine users: eight or more is where numpy's pairwise sum would round differently.
        doc = base_doc()
        doc["users"] = [dict(doc["users"][k % 2], alpha_ur=1e-9 * (1.0 + 0.25 * k)) for k in range(9)]
        result = run_cli("optimize", write_doc(tmp_path, doc))
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "row,user,p_user_w,p_relay_w,scheme,bandwidth_hz,snr,rate_bps,best_user_index,sum_rate_bps,feasible\n"
            "user,0,0.1,0.1,AF,64176.2943,49052.8118,500000,,,\n"
            "user,1,0.1,0.1,AF,60508.5561,94404.8331,500000,,,\n"
            "user,2,0.1,0.1,AF,66196.1103,35280.5861,500000,,,\n"
            "user,3,0.1,0.1,AF,58273.1876,146499.988,500000,,,\n"
            "user,4,0.1,0.1,AF,62190.6903,69251.4312,500000,,,\n"
            "user,5,0.1,0.1,AF,58993.0186,126707.901,500000,,,\n"
            "user,6,0.1,0.1,AF,60695.0953,91138.9444,500000,,,\n"
            "user,7,0.1,0.1,AF,4507570.2,150271.34,38758838.1,,,\n"
            "user,8,0.1,0.1,AF,61396.848,79986.1748,500000,,,\n"
            "summary,,,,,,,,7,42758838.1,true\n"
        )

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_huge_power_cap_exit_2_names_key(self, tmp_path, command):
        # Finite caps whose end-to-end SNR overflowed printed nan rates with exit 0, then exited 3.
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        for user in doc["users"]:
            user["p_user_max_w"] = 1e300
        out = tmp_path / "result.csv"
        result = run_cli(command, write_doc(tmp_path, doc), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == "error: users[0].p_user_max_w: must be in [1e-30, 1e+06] W, got 1e+300\n"
        assert not out.exists()
        # The domain's largest caps give finite rates.
        for user in doc["users"]:
            user["p_user_max_w"] = user["p_relay_max_w"] = 1e6
        result = run_cli(command, write_doc(tmp_path, doc), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert finite_csv(out.read_text())


    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_huge_bandwidth_exit_2_names_it(self, tmp_path, command):
        # At 1e308 Hz the rates overflowed: inf sum rates with exit 0, after a numpy warning.
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        doc["system"]["total_bw_hz"] = 1e308
        result = run_cli(command, write_doc(tmp_path, doc))
        assert result.returncode == 2
        assert result.stderr == "error: system.total_bw_hz: must be in [1, 1e+12] Hz, got 1e+308\n"

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_bandwidth_at_its_bound_gives_finite_rates(self, tmp_path, command):
        doc = base_doc(sweep={"variable": "num_ports", "values": [1, 2]})
        doc["system"]["total_bw_hz"] = 1e12
        result = run_cli(command, write_doc(tmp_path, doc))
        assert result.returncode == 0, result.stderr
        # The sum rate is the second-to-last field of optimize's summary row and of every sweep row.
        rows = result.stdout.strip().split("\n")[1:]
        rates = [float(row.split(",")[-2]) for row in (rows[-1:] if command == "optimize" else rows)]
        assert all(math.isfinite(rate) for rate in rates) and max(rates) > 1e12

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_huge_rate_threshold_exit_2(self, tmp_path, command):
        # xi = 300 bits: C_th**2 overflowed in the DF power solver, which exited 3.
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        doc["system"].update(xi_bits=300.0, trials=2)
        for user in doc["users"]:
            user["p_user_max_w"] = user["p_relay_max_w"] = 1e6
        result = run_module(command, write_doc(tmp_path, doc))
        assert result.returncode == 2
        assert result.stderr == "error: system.xi_bits: must be in [1e-06, 32] bit/s/Hz, got 300.0\n"
        # At the domain's largest xi, relay links of 1e30 per watt reach C_th = 2^64 - 1 and the
        # DF power solver runs on C_th**2 ~ 3.4e38.
        doc["system"]["xi_bits"] = 32
        for user in doc["users"]:
            user.update(alpha_rb=1e10, sigma2_bs_dbm=-170)
        result = run_cli(command, write_doc(tmp_path, doc))
        assert result.returncode == 0, result.stderr
        assert finite_csv(result.stdout)


class TestTinyLeaderResidual:
    """The default scenario, user 3 first, with rate floors that leave the SNR leader
    (user 0, no floor) a residual whose ulp is 2^-33 of the budget's."""

    RATE_MINS = [0.0, 25916534.828188855, 8630643.419976437, 6608338.820274387]

    def doc(self):
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        doc["users"] = [doc["users"][k] for k in (3, 0, 1, 2)]
        for user, rate in zip(doc["users"], self.RATE_MINS):
            user["rate_min_bps"] = rate
        doc["system"]["trials"] = 1
        doc["sweep"] = {"variable": "num_ports", "values": [4], "schemes": ["proposed"]}
        return doc

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_leader_gets_the_largest_residual_that_fits(self, tmp_path, command):
        path = write_doc(tmp_path, self.doc())
        result = subprocess.run(
            [sys.executable, "-m", "fluidrelay", command, path], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        # Both commands solve trial 0 on the 4x4 grid; the CSV rounds, so check the same solve in process.
        scenario = build_scenario(load_scenario(path))
        gammas = draw_gamma_ur(scenario.users, scenario.grid, TrialDraws(scenario.seed, 1, len(scenario.users)))
        solved = solve_system(scenario.users, scenario.total_bw, scenario.xi, gammas)
        assert result.stdout.splitlines()[-1].split(",")[-2] == f"{solved.sum_rate[0]:.9g}"
        assert leader_residual_is_tight(solved.bandwidth[0], solved.snr[0], self.RATE_MINS, scenario.total_bw)


class TestSweep:
    def test_rate_sweep_workload_bytes_match_reference(self, tmp_path):
        # The benchmark's rate_sweep scenario as perfbench/run.py writes it:
        # base_scenario.json with 25 trials, at the reference seed 2024.
        doc = json.loads((PERFBENCH / "base_scenario.json").read_text())
        doc["system"].update({"trials": 25}, seed=2024)
        path = tmp_path / "scenario-rate_sweep-seed2024.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        out = tmp_path / "rate_sweep.csv"
        result = run_cli("sweep", str(path), "--threads", "1", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == (PERFBENCH / "reference" / "rate_sweep.csv").read_bytes()

    def test_row_count(self, tmp_path):
        doc = base_doc(
            sweep={"variable": "num_users", "values": [1, 2], "schemes": ["proposed", "tas"]}
        )
        path = write_doc(tmp_path, doc)
        result = run_cli("sweep", path)
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "sweep_value,scheme,trial,sum_rate_bps,feasible"
        assert len(lines) == 1 + 2 * 2 * 4  # values x schemes x trials

    def test_ports_sweep_first_point_matches_tas(self, tmp_path):
        doc = base_doc(
            sweep={"variable": "num_ports", "values": [1, 2], "schemes": ["proposed", "tas"]}
        )
        path = write_doc(tmp_path, doc)
        result = run_cli("sweep", path)
        rows = [line.split(",") for line in result.stdout.strip().split("\n")[1:]]
        proposed = {r[2]: r[3] for r in rows if r[0] == "1" and r[1] == "proposed"}
        tas = {r[2]: r[3] for r in rows if r[0] == "1" and r[1] == "tas"}
        assert proposed == tas

    def test_given_minimum_powers_below_threshold_are_infeasible_rows(self, tmp_path):
        # Given minimums are not checked against C_th when the box is built: each trial reports them.
        schemes = ["proposed", "tas", "avg_bandwidth"]
        doc = base_doc(sweep={"variable": "num_ports", "values": [1, 2], "schemes": schemes})
        doc["users"][0].update(p_user_min_w=1e-9, p_relay_min_w=1e-9)
        result = run_cli("sweep", write_doc(tmp_path, doc))
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in result.stdout.strip().split("\n")[1:]]
        assert len(rows) == 2 * 3 * 4 and all(row[3:] == ["0", "false"] for row in rows)

    @pytest.mark.parametrize("command", ["sweep", "optimize"])
    def test_box_that_cannot_reach_threshold_exit_5(self, tmp_path, command):
        doc = base_doc(sweep={"variable": "num_ports", "values": [1, 2]})
        doc["users"][0].update(p_user_max_w=1e-9, p_relay_max_w=1e-9)
        result = run_cli(command, write_doc(tmp_path, doc))
        assert result.returncode == 5 and result.stdout == ""
        assert "INFEASIBLE_POWER: even maximum powers give mean SNR sum" in result.stderr

    def test_relay_cap_sweep_ignores_the_file_box(self, tmp_path):
        # Every file relay cap of 1 uW misses C_th = 255, but every swept cap reaches it.
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        doc["system"].update(xi_bits=4, trials=2)
        for user in doc["users"]:
            user["p_relay_max_w"] = 1e-6
        doc["sweep"] = {"variable": "relay_power_max", "values": [0.01, 0.1], "schemes": ["proposed", "tas"]}
        result = run_cli("sweep", write_doc(tmp_path, doc))
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in result.stdout.strip().split("\n")[1:]]
        assert len(rows) == 2 * 2 * 2 and all(row[4] == "true" for row in rows)

    def test_relay_cap_sweep_names_an_infeasible_value(self, tmp_path):
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        doc["system"].update(xi_bits=4, trials=2)
        doc["sweep"] = {"variable": "relay_power_max", "values": [1e-6, 0.1], "schemes": ["proposed", "tas"]}
        result = run_cli("sweep", write_doc(tmp_path, doc))
        assert result.returncode == 5 and result.stdout == ""
        assert "INFEASIBLE_POWER: relay_power_max=1e-06: even maximum powers give" in result.stderr

    def test_missing_sweep_section_exit_2(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        result = run_cli("sweep", path)
        assert result.returncode == 2
        assert "sweep" in result.stderr

    def test_unknown_sweep_variable_exit_2(self, tmp_path):
        doc = base_doc(sweep={"variable": "frequency", "values": [1, 2]})
        path = write_doc(tmp_path, doc)
        assert run_cli("sweep", path).returncode == 2

    @pytest.mark.parametrize(
        "variable, values, named",
        [
            ("num_ports", [1, math.inf], "num_ports sweep value inf"),
            ("num_ports", [1, math.nan], "num_ports sweep value nan"),
            ("num_ports", [1, 1.5], "num_ports sweep value 1.5"),
            ("num_users", [1, 1.7], "num_users sweep value 1.7"),
            ("relay_power_max", [-1, 0.1], "relay_power_max sweep value -1"),
        ],
    )
    def test_invalid_sweep_value_exit_2_names_it(self, tmp_path, variable, values, named):
        # json writes inf and nan as Infinity and NaN, which json.loads accepts.
        path = write_doc(tmp_path, base_doc(sweep={"variable": variable, "values": values}))
        result = run_cli("sweep", path)
        assert result.returncode == 2
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("key", ["p_user_min_w", "p_relay_min_w"])
    def test_one_zero_minimum_power_keeps_default_users_feasible(self, tmp_path, key):
        # The other minimum is derived against the given one, so the box's corner reaches C_th.
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        for user in doc["users"]:
            user[key] = 0
        path = write_doc(tmp_path, doc)
        assert run_cli("optimize", path).returncode == 0
        sweep = run_cli("sweep", path)
        assert sweep.returncode == 0 and ",false" not in sweep.stdout

    @pytest.mark.parametrize("p_user_max", [5e-324, 1e-323])
    def test_random_power_zero_watt_draws_are_infeasible_rows(self, tmp_path, p_user_max):
        # Under a 5e-324 W cap, user 1's random powers rounded to 0 W; that cap is now outside the
        # domain.  Under the smallest cap, 1e-30 W, they send so little that no row meets its minimum rate.
        doc = base_doc(sweep={"variable": "num_ports", "values": [1, 2], "schemes": ["random_power"]})
        doc["users"][1]["p_user_max_w"] = p_user_max
        result = run_cli("sweep", write_doc(tmp_path, doc))
        assert result.returncode == 2 and result.stderr.startswith("error: users[1].p_user_max_w: must be in")
        doc["users"][1]["p_user_max_w"] = 1e-30
        result = run_cli("sweep", write_doc(tmp_path, doc))
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in result.stdout.strip().split("\n")[1:]]
        assert len(rows) == 2 * 4 and all(row[3:] == ["0", "false"] for row in rows)

    def test_random_power_draws_below_threshold_are_infeasible_rows(self, tmp_path):
        # 1 mW relay caps and zero minimum powers let some random draws miss C_th = 255.
        doc = json.loads(Path(DEFAULT_SCENARIO).read_text())
        doc["system"].update(xi_bits=4, trials=100)
        for user in doc["users"]:
            user.update(p_relay_max_w=1e-3, p_user_min_w=0, p_relay_min_w=0)
        doc["sweep"] = {"variable": "num_ports", "values": [1, 2], "schemes": ["proposed", "random_power"]}
        path = write_doc(tmp_path, doc)
        result = run_cli("sweep", path)
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in result.stdout.strip().split("\n")[1:]]
        drawn = [row[3:] for row in rows if row[1] == "random_power"]
        assert len(drawn) == 2 * 100 and ["0", "false"] in drawn and any(row[1] == "true" for row in drawn)
        records = run_benchmark(build_scenario(load_scenario(path)), "random_power", doc["system"]["seed"])
        assert {r.reason for r in records if not r.feasible} == {"INFEASIBLE_POWER"}
        assert all(r.sum_rate == 0 for r in records if not r.feasible)

    def test_integral_float_port_count_runs(self, tmp_path):
        doc = base_doc(sweep={"variable": "num_ports", "values": [1, 2.0], "schemes": ["proposed"]})
        result = run_cli("sweep", write_doc(tmp_path, doc))
        assert result.returncode == 0
        assert len(result.stdout.strip().split("\n")) == 1 + 2 * 4


class TestFormatting:
    @pytest.mark.parametrize("value, text", [(np.True_, "true"), (np.False_, "false"), (True, "true")])
    def test_booleans_lowercase(self, value, text):
        assert cli._flag(value) == text

    def test_floats_nine_significant_digits(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        result = run_cli("optimize", path)
        summary = result.stdout.strip().split("\n")[-1].split(",")
        sum_rate = summary[9]
        mantissa = sum_rate.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 9


def _run_doc(doc, command, *flags):
    """``run_cli`` on ``doc`` written to a fresh temporary file (one per hypothesis example)."""
    with tempfile.TemporaryDirectory() as tmp:
        return run_cli(command, write_doc(Path(tmp), doc), *flags)


def _assert_exit_in(result, codes):
    assert result.returncode in codes, result.stderr
    if result.returncode:
        assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


class TestOpSurfaceGrids:
    """op-surface on grids of 1-16 ports a side and 0-10 wavelength apertures, including 256 ports."""

    @settings(max_examples=8, derandomize=True, deadline=None)
    @given(n1=st.integers(1, 16), n2=st.integers(1, 16), w1=st.floats(0.0, 10.0), w2=st.floats(0.0, 10.0))
    @example(n1=16, n2=16, w1=0.0, w2=0.0)
    @example(n1=16, n2=16, w1=10.0, w2=10.0)
    def test_probabilities_finite_or_numerical_error(self, n1, n2, w1, w2):
        doc = base_doc(grid={"n1": n1, "n2": n2, "w1": w1, "w2": w2})
        result = _run_doc(doc, "op-surface", "--steps", "3", "--max-samples", "12288")
        _assert_exit_in(result, (0, 3))
        if result.returncode == 0:
            rows = [line.split(",") for line in result.stdout.strip().split("\n")[1:]]
            assert len(rows) == 9
            probabilities = np.array([[float(row[3]), float(row[4])] for row in rows])
            assert np.all(np.isfinite(probabilities))
            assert np.all((probabilities >= 0.0) & (probabilities <= 1.0))


_MISSING = object()
# Leaves and sections of a scenario with a sweep section; each mutation
# deletes one or replaces it.  Huge counts stay beyond int64, so no draw
# can ask for a large but allocatable array.
_FUZZ_PATHS = (
    ("grid",), ("grid", "n1"), ("grid", "n2"), ("grid", "w1"), ("grid", "w2"),
    ("system",), ("system", "total_bw_hz"), ("system", "xi_bits"), ("system", "seed"), ("system", "trials"),
    ("users",), ("users", 0), *(("users", 1, key) for key in base_doc()["users"][1]),
    ("users", 0, "p_user_min_w"), ("users", 0, "p_relay_min_w"),
    ("sweep",), ("sweep", "variable"), ("sweep", "values"), ("sweep", "values", 1), ("sweep", "schemes"),
)
_FUZZ_VALUES = (
    _MISSING, "x", None, True, [], {}, math.nan, math.inf, -math.inf,
    0, -1, -1e300, 1e-300, 5e-324, 1e300, 10**30,
    # Every edge of the physical domain.
    *sorted({edge for bound in BOUNDS.values() for edge in (bound.lo, bound.hi)}),
)
_FUZZ_FLAGS = {
    "op-surface": ("--steps", "2", "--max-samples", "1200"),
    "validate": ("--trials", "10000", "--points", "2", "--max-samples", "1200"),
    "optimize": (),
    "sweep": (),
}


def _settable(container, key) -> bool:
    """Whether ``container[key]`` can be set: any key of an object, or an existing array index."""
    return isinstance(container, dict) or isinstance(container, list) and isinstance(key, int) and key < len(container)


def _container(doc, keys):
    """The object at ``keys`` in ``doc``, or None when an earlier mutation removed or replaced it."""
    for key in keys:
        if not _settable(doc, key) or isinstance(doc, dict) and key not in doc:
            return None
        doc = doc[key]
    return doc


@st.composite
def _scenario_docs(draw):
    """A valid scenario with a sweep section, then up to three mutations of it."""
    variable, values = draw(
        st.sampled_from([("num_ports", [1, 2]), ("num_users", [1, 2]), ("relay_power_max", [0.05, 0.1])])
    )
    schemes = draw(st.lists(st.sampled_from(SCHEMES), min_size=1, unique=True))
    doc = base_doc(sweep={"variable": variable, "values": values, "schemes": schemes})
    for *keys, key in draw(st.lists(st.sampled_from(_FUZZ_PATHS), max_size=3)):
        value = draw(st.sampled_from(_FUZZ_VALUES))
        container = _container(doc, keys)
        if not _settable(container, key):
            continue
        if value is _MISSING:
            if isinstance(container, list) or key in container:
                del container[key]
        else:
            container[key] = copy.deepcopy(value)  # the shared [] and {} must not collect mutations
    return doc


def _corner(row: str, typical):
    """A value at either edge of a domain row (or 0 where the row takes it), or a typical one."""
    bound = BOUNDS[row]
    return st.sampled_from([bound.lo, typical, typical, bound.hi] + [0] * bound.zero)


@st.composite
def _corner_docs(draw):
    """A scenario inside the domain with every physical key at an edge of its bound or at a typical value."""
    variable, values = draw(
        st.sampled_from([("num_ports", [1, 2]), ("num_users", [1, 2]), ("relay_power_max", [1e-30, 1e6])])
    )
    doc = base_doc(sweep={"variable": variable, "values": values, "schemes": list(SCHEMES)})
    doc["grid"].update(w1=draw(_corner("aperture_wl", 1.0)), w2=draw(_corner("aperture_wl", 1.0)))
    doc["system"].update(
        total_bw_hz=draw(_corner("total_bw_hz", 5e6)), xi_bits=draw(_corner("xi_bits", 0.1)), trials=3
    )
    for user in doc["users"]:
        user.update(
            {key: draw(_corner("gain", 1e-9)) for key in ("alpha_ur", "alpha_ub", "alpha_rb")},
            **{key: draw(_corner("noise_dbm", -120)) for key in ("sigma2_relay_dbm", "sigma2_bs_dbm")},
            **{key: draw(_corner("power_w", 0.1)) for key in ("p_user_max_w", "p_relay_max_w")},
            rate_min_bps=draw(_corner("rate_min_bps", 5e5)),
        )
        for key in ("p_user_min_w", "p_relay_min_w"):
            cap = user[key.replace("min", "max")]
            minimum = draw(st.sampled_from([None] * 4 + [0, BOUNDS["min_power_w"].lo, cap]))
            if minimum is not None:
                user[key] = minimum
    return doc


_CORNER_SURFACE_FLAGS = (
    (), ("--xi", "1e-06"), ("--xi", "32"), ("--pu-range", "0", "1e-80", "--pr-range", "1e-80", "1e6"),
)


class TestScenarioFuzz:
    """Valid and mutated scenario documents through every command: an exit code, never a traceback."""

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(doc=_scenario_docs())
    def test_every_command_exits_with_a_code(self, doc):
        # Under the suite's filter a numpy RuntimeWarning raises, so it fails here too.
        for command, flags in _FUZZ_FLAGS.items():
            _assert_exit_in(_run_doc(doc, command, *flags), (0, 2, 3, 4, 5))

    @pytest.mark.parametrize(
        "keys, value, code",
        [
            (("users", 0, "alpha_rb"), 5e-324, 2),
            (("users", 0, "rate_min_bps"), 1e308, 2),
            (("users", 0, "p_user_max_w"), 5e-324, 2),
            (("users", 0, "alpha_ur"), 1e308, 2),
            (("grid", "w1"), 1e308, 2),
            # The same keys at the domain's nearest edge.
            (("users", 0, "alpha_rb"), 1e-25, 0),
            (("users", 0, "rate_min_bps"), 1e13, 5),
            (("users", 0, "p_user_max_w"), 1e-30, 5),
            (("users", 0, "alpha_ur"), 1e10, 0),
            (("grid", "w1"), 1e6, 0),
        ],
    )
    def test_extreme_finite_input_exits_without_warning(self, keys, value, code):
        # Each value outside the domain printed a numpy RuntimeWarning before exit 0, 5 or 3;
        # the suite's filter makes one fail here.  Now each exits 2 naming its key.
        doc = base_doc()
        *path, key = keys
        _container(doc, path)[key] = value
        result = _run_doc(doc, "optimize")
        assert result.returncode == code, result.stderr
        assert code == 0 or result.stderr.startswith("error: ")
        if code == 2:
            named = "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in keys).lstrip(".")
            assert result.stderr.startswith(f"error: {named}: must be ")

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(doc=_corner_docs(), surface_flags=st.sampled_from(_CORNER_SURFACE_FLAGS))
    def test_domain_corners_run_every_command(self, doc, surface_flags):
        # No RuntimeWarning (the suite's filter raises one), finite numbers, and no input error:
        # exit 3 only where the port correlation cannot be factored.
        for command, flags in _FUZZ_FLAGS.items():
            if command == "op-surface":
                flags += surface_flags
            result = _run_doc(doc, command, *flags)
            assert result.returncode in (0, 3, 4, 5), result.stderr
            assert result.returncode != 3 or "correlation factorization failed" in result.stderr
            assert finite_csv(result.stdout)

    def test_sweep_trial_count_beyond_int64_exit_2(self):
        doc = base_doc(sweep={"variable": "relay_power_max", "values": [0.05, 0.1]})
        doc["system"]["trials"] = 10**30
        result = _run_doc(doc, "sweep")
        assert result.returncode == 2 and result.stderr.startswith("error: "), result.stderr
