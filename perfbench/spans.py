"""Layer spans recorded from outside the fluidrelay package.

``Tracer.install()`` rebinds every public layer function named in
``LAYER_FUNCTIONS`` to a wrapper, in every ``fluidrelay`` module that
holds it.  ``from .mvncdf import mvn_cdf`` copies the name into
``fluidrelay.outage``, so patching only the defining module would miss
that caller; rebinding by identity catches every copy.
``Tracer.uninstall()`` restores every binding.

Span stacks are per thread, so calls made in pool threads (``op_surface``
and ``run_benchmark`` at ``--threads`` > 1) nest correctly; a pool task's
outermost span then has no parent.  Spans live in memory until the run
ends.  Layer times are thread CPU seconds (``time.thread_time``), so a
thread waiting for the interpreter lock is not counted as busy;
``trial_us`` and ``cli.self_s`` are wall times.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time

LAYER_FUNCTIONS = {
    "channel": ("sample_gains", "build_correlation"),
    "mvncdf": ("mvn_cdf",),
    "outage": ("outage_probabilities", "best_gain_cdf", "best_gain_cdf_estimate", "op_surface"),
    "allocator": ("solve_system", "optimize_powers", "solve_df_subproblem"),
    "harness": (
        "run_sweep",
        "run_benchmark",
        "empirical_best_gain_cdf",
        "empirical_outage",
        "draw_gamma_ur",
    ),
    "scenario": ("load_scenario", "build_scenario"),
    "cli": ("main",),
}

# Names a caller copied with ``from ... import``; each copy must be wrapped
# or that caller's work would silently vanish from its layer.
REQUIRED_ALIASES = (
    ("fluidrelay.outage", "mvn_cdf"),
    ("fluidrelay.harness", "optimize_powers"),
    ("fluidrelay.harness", "solve_system"),
    ("fluidrelay.cli", "solve_system"),
)

SCHEMES = ("proposed", "tas", "avg_bandwidth", "random_power")
INFEASIBLE_REASONS = ("INFEASIBLE_POWER", "INFEASIBLE_BANDWIDTH")

PER_LAYER_METRICS = (
    ("mvncdf.calls", "count"),
    ("mvncdf.busy_s", "s"),
    ("mvncdf.samples", "count"),
    ("mvncdf.ms_per_call", "ms"),
    ("mvncdf.ns_per_sample", "ns"),
    ("mvncdf.unconverged", "count"),
    ("mvncdf.converged_frac", "ratio"),
    ("mvncdf.max_est_error", "prob"),
    ("outage.points", "count"),
    ("outage.cdf_lookups", "count"),
    ("outage.engine_calls_per_point", "ratio"),
    ("outage.repeat_threshold_frac", "ratio"),
    ("outage.self_s", "s"),
    ("allocator.solve_system.calls", "count"),
    ("allocator.solve_system.busy_s", "s"),
    ("allocator.optimize_powers.calls", "count"),
    ("allocator.solve_df.calls", "count"),
    ("allocator.solve_df.busy_s", "s"),
    ("allocator.solve_df.us_per_call", "us"),
    ("allocator.df_split_frac", "ratio"),
    *((f"harness.trial_us.{scheme}", "us") for scheme in SCHEMES),
    ("harness.self_s", "s"),
    *((f"harness.infeasible.{reason}", "count") for reason in INFEASIBLE_REASONS),
    ("harness.infeasible.other", "count"),
    ("harness.empirical_s", "s"),
    ("channel.sample_gains.calls", "count"),
    ("channel.sample_gains.busy_s", "s"),
    ("channel.draws_per_s", "1/s"),
    ("channel.build_correlation.busy_s", "s"),
    ("scenario.load_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Span:
    __slots__ = ("layer", "name", "parent", "thread", "wall0", "wall1", "cpu0", "cpu1",
                 "child_wall", "child_cpu", "info")

    def __init__(self, layer, name, parent, thread):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.info = None

    @property
    def wall(self) -> float:
        return self.wall1 - self.wall0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall

    def has_ancestor(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False

    def to_json(self, ids) -> dict:
        return {
            "id": ids[id(self)],
            "parent": ids.get(id(self.parent)),
            "layer": self.layer,
            "name": self.name,
            "thread": self.thread,
            "wall0": self.wall0,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "info": self.info,
        }


def _note(name, args, kwargs, result):
    """What a span keeps of its call besides its times."""
    if name == "mvn_cdf":
        return {"samples": result.samples_used, "converged": result.converged,
                "est_error": result.est_error}
    if name in ("best_gain_cdf", "best_gain_cdf_estimate"):
        return {"x": float(args[0] if args else kwargs["x"])}
    if name == "sample_gains":
        corr = args[0] if args else kwargs["corr"]
        count = args[2] if len(args) > 2 else kwargs["count"]
        return {"draws": int(count) * int(corr.dim)}
    if name == "run_benchmark":
        scheme = args[1] if len(args) > 1 else kwargs["scheme"]
        return {"scheme": scheme, "trials": len(result),
                "reasons": [r.reason for r in result if not r.feasible]}
    return None


class Tracer:
    """Collects spans for one traced execution; not reentrant."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer, name) -> Span:
        stack = self._stack()
        span = Span(layer, name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        span.cpu0 = time.thread_time()
        span.wall0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.wall1 = time.perf_counter()
        span.cpu1 = time.thread_time()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_wall += span.wall
            span.parent.child_cpu += span.cpu
        self.spans.append(span)

    def _wrap(self, layer, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            span.info = _note(name, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "fluidrelay" and not modname.startswith("fluidrelay."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"fluidrelay.{layer}"]
            for name in names:
                original = getattr(module, name)  # a rename fails here, loudly
                self._rebind(original, self._wrap(layer, name, original))
        for modname, name in REQUIRED_ALIASES:
            if not hasattr(getattr(sys.modules[modname], name), "__wrapped__"):
                raise RuntimeError(f"{modname}.{name} was not wrapped")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self) -> list[dict]:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        return [span.to_json(ids) for span in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced execution (``trace.overhead_frac`` excepted)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def cpu(name):
        return sum(span.cpu for span in named(name))

    def self_cpu(layer):
        return sum(span.self_cpu for span in spans if span.layer == layer)

    m: dict[str, float] = {}

    mvn = named("mvn_cdf")
    samples = sum(span.info["samples"] for span in mvn)
    converged = sum(1 for span in mvn if span.info["converged"])
    m["mvncdf.calls"] = len(mvn)
    m["mvncdf.busy_s"] = cpu("mvn_cdf")
    m["mvncdf.samples"] = samples
    m["mvncdf.ms_per_call"] = 1e3 * _ratio(m["mvncdf.busy_s"], len(mvn))
    m["mvncdf.ns_per_sample"] = 1e9 * _ratio(m["mvncdf.busy_s"], samples)
    m["mvncdf.unconverged"] = len(mvn) - converged
    m["mvncdf.converged_frac"] = _ratio(converged, len(mvn))
    m["mvncdf.max_est_error"] = max((span.info["est_error"] for span in mvn), default=0.0)

    # A best_gain_cdf call reaches best_gain_cdf_estimate inside the
    # module; count each lookup once, at its outermost span.
    lookups = named("best_gain_cdf") + [
        span for span in named("best_gain_cdf_estimate") if not span.has_ancestor("best_gain_cdf")
    ]
    thresholds = [span.info["x"] for span in lookups if span.info["x"] > 0]
    points = len(named("outage_probabilities"))
    engine_calls = sum(1 for span in mvn if span.has_ancestor("outage_probabilities"))
    m["outage.points"] = points
    m["outage.cdf_lookups"] = len(lookups)
    m["outage.engine_calls_per_point"] = _ratio(engine_calls, points)
    m["outage.repeat_threshold_frac"] = 1.0 - _ratio(len(set(thresholds)), len(thresholds)) if thresholds else 0.0
    m["outage.self_s"] = self_cpu("outage")

    optimize = named("optimize_powers")
    solve_df = named("solve_df_subproblem")
    m["allocator.solve_system.calls"] = len(named("solve_system"))
    m["allocator.solve_system.busy_s"] = cpu("solve_system")
    m["allocator.optimize_powers.calls"] = len(optimize)
    m["allocator.solve_df.calls"] = len(solve_df)
    m["allocator.solve_df.busy_s"] = cpu("solve_df_subproblem")
    m["allocator.solve_df.us_per_call"] = 1e6 * _ratio(m["allocator.solve_df.busy_s"], len(solve_df))
    split = sum(1 for span in solve_df if span.parent is not None and span.parent.name == "optimize_powers")
    m["allocator.df_split_frac"] = _ratio(split, len(optimize))

    benchmarks = named("run_benchmark")
    for scheme in SCHEMES:
        runs = [span for span in benchmarks if span.info["scheme"] == scheme]
        m[f"harness.trial_us.{scheme}"] = 1e6 * _ratio(
            sum(span.wall for span in runs), sum(span.info["trials"] for span in runs)
        )
    m["harness.self_s"] = self_cpu("harness")
    reasons = [reason for span in benchmarks for reason in span.info["reasons"]]
    for reason in INFEASIBLE_REASONS:
        m[f"harness.infeasible.{reason}"] = reasons.count(reason)
    m["harness.infeasible.other"] = sum(1 for r in reasons if r not in INFEASIBLE_REASONS)
    m["harness.empirical_s"] = cpu("empirical_best_gain_cdf") + cpu("empirical_outage")

    gains = named("sample_gains")
    m["channel.sample_gains.calls"] = len(gains)
    m["channel.sample_gains.busy_s"] = cpu("sample_gains")
    m["channel.draws_per_s"] = _ratio(sum(span.info["draws"] for span in gains), m["channel.sample_gains.busy_s"])
    m["channel.build_correlation.busy_s"] = cpu("build_correlation")

    m["scenario.load_s"] = cpu("load_scenario")
    m["cli.self_s"] = sum(span.self_wall for span in named("main"))

    for name, value in m.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite: {value}")
    return m
