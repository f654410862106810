"""The benchmark's layer tracer (``perfbench/spans.py``) still sees every layer.

``spans.Tracer`` rebinds layer functions by name and the benchmark fails a
traced run when a function it predicts busy records no calls.  This test
runs each benchmark workload's command on a small input under the tracer,
so a rename, a signature change, or a cache that hides the engine call,
fails here instead of in a benchmark run.
"""

import collections
import importlib
import json
import os
from pathlib import Path

import pytest

import fluidrelay.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Each workload's command with less work than the benchmark gives it; the
# scenario is ``perfbench/base_scenario.json`` cut to two trials.
SMALL_ARGV = {
    "outage_map": ["op-surface", "--steps", "4", "--target-error", "5e-3"],
    "copula_validate": ["validate", "--trials", "20000", "--points", "3", "--target-error", "5e-3"],
    "rate_sweep": ["sweep"],
}


@pytest.fixture
def perfbench(monkeypatch):
    """Import ``spans`` and ``run`` from ``perfbench/`` without leaking their side effects."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    environ = dict(os.environ)  # run.py pins BLAS thread counts on import
    try:
        spans = importlib.import_module("spans")
        run = importlib.import_module("run")
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return spans, run


def test_every_workload_is_traced(perfbench):
    _, run = perfbench
    assert set(SMALL_ARGV) == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMALL_ARGV))
def test_busy_functions_record_calls(perfbench, tmp_path, workload):
    spans, run = perfbench
    doc = json.loads((PERFBENCH / "base_scenario.json").read_text())
    doc["system"]["trials"] = 2
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    argv = SMALL_ARGV[workload] + [str(scenario), "--threads", "1", "--out", str(tmp_path / "out.csv")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    calls = collections.Counter(span.name for span in tracer.spans)
    busy = run.WORKLOADS[workload]["busy"]
    assert [name for name in busy if not calls[name]] == []
    metrics = spans.layer_metrics(tracer.spans)
    if workload == "outage_map":
        assert metrics["outage.points"] == 16
        # Each point looks up its AF threshold, then its DF one; the schemes
        # have their own engine seeds, so each evaluates its thresholds.
        per_point = collections.defaultdict(list)
        for span in tracer.spans:
            if span.name == "best_gain_cdf":
                per_point[id(span.parent)].append(span.info["x"])
        thresholds = {(scheme, x) for xs in per_point.values() for scheme, x in enumerate(xs) if x > 0}
        assert 0 < metrics["mvncdf.calls"] == len(thresholds) < metrics["outage.cdf_lookups"]
        engine = [span for span in tracer.spans if span.name == "mvn_cdf"]
        assert all(span.has_ancestor("outage_probabilities") for span in engine)
    if workload == "rate_sweep":
        assert all(metrics[f"harness.trial_us.{scheme}"] > 0 for scheme in spans.SCHEMES)
