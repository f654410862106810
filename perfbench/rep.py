"""One benchmark repetition, in a fresh interpreter.

Usage (``run.py`` starts it; from the repository root)::

    python3 perfbench/rep.py '{"workload": "...", "argv": [...], "spans_out": null}'

Imports ``fluidrelay.cli`` and times ``main(argv)`` in this process, so
no module state of an earlier repetition carries over.  Given a
``spans_out`` path, the call runs under ``spans.Tracer``, the per-layer
metrics of that call are returned and the spans written to that path.
On ``rate_sweep`` the recorded DF-subproblem cases are replayed after the
timed call.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import collections
import json
import resource
import sys
import time
from pathlib import Path

import checks
import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import fluidrelay.cli as cli

    tracer = spans.Tracer() if spec["spans_out"] else None
    if tracer is not None:
        tracer.install()
    error = None
    try:
        t0 = time.perf_counter()
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed repetition, reported below
            code, error = -1, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "wall_s": wall,
        "exit_code": code,
        "error": error,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "df_errors": [],
    }
    if spec["workload"] == "rate_sweep":
        import fluidrelay.allocator as allocator

        result["df_errors"] = checks.check_df_cases(allocator)
    if tracer is not None:
        result["calls"] = collections.Counter(span.name for span in tracer.spans)
        result["layers"] = spans.layer_metrics(tracer.spans)
        with open(spec["spans_out"], "w") as fh:
            for record in tracer.dump():
                fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
