"""The benchmark's layer tracer (``perfbench/spans.py``) still sees every layer.

``spans.Tracer`` rebinds layer functions by name and the benchmark fails a
traced run when a function it predicts busy records no calls.  This test
runs a small ``op-surface`` under the tracer, so a rename, or a cache that
hides the engine call, fails here instead of in a benchmark run.
"""

import collections
import importlib
import os
import sys
from pathlib import Path

import pytest

import fluidrelay.cli as cli
import fluidrelay.outage as outage

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DEFAULT_SCENARIO = PERFBENCH.parent / "scenarios" / "default.json"


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


def test_outage_map_busy_functions_record_calls(perfbench, monkeypatch, tmp_path):
    spans, run = perfbench
    monkeypatch.setattr(outage, "_CDF_MEMO", {})  # a memo warmed by another test hides mvn_cdf
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main([
            "op-surface", str(DEFAULT_SCENARIO), "--steps", "4", "--target-error", "5e-3",
            "--threads", "1", "--out", str(tmp_path / "map.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    calls = collections.Counter(span.name for span in tracer.spans)
    busy = run.WORKLOADS["outage_map"]["busy"]
    assert [name for name in busy if not calls[name]] == []
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["outage.points"] == 16
    assert 0 < metrics["mvncdf.calls"] < metrics["outage.cdf_lookups"]
