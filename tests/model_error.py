"""Print the Gaussian copula's model error against the exact Rayleigh best-port CDF.

Each row compares ``outage.best_gain_cdf_estimate`` (the copula, at the
engine defaults) with ``oracles.rayleigh_best_gain_sov`` (the exact model,
estimated by separation of variables from 2e4 seeded samples) on one port
grid at one threshold x, as a Markdown table.  Run from the repository root:

    PYTHONPATH=src python tests/model_error.py

Not a test module (pytest collects ``test_*.py`` only); the fast checks of
the estimator live in ``tests/test_outage.py::TestExchangeableReference``.
"""

import time

import numpy as np
from oracles import rayleigh_best_gain_sov

from fluidrelay import PortGrid, build_correlation
from fluidrelay.outage import best_gain_cdf_estimate

SAMPLES = 20_000
SEED = 1
# (label, grid, thresholds x)
CASES = (
    ("4×4 1λ (default)", PortGrid(4, 4, 1.0, 1.0), (0.03, 0.1, 0.3, 0.7)),
    ("6×6 2λ", PortGrid(6, 6, 2.0, 2.0), (1.5,)),
)


def main() -> None:
    start = time.perf_counter()
    print("| grid | x | exact model (rel. SE) | copula | copula / exact − 1 |")
    print("|---|---|---|---|---|")
    for label, grid, xs in CASES:
        corr = build_correlation(grid)
        for x in xs:
            exact, std_err = rayleigh_best_gain_sov(corr, x, SAMPLES, np.random.default_rng(SEED))
            copula = best_gain_cdf_estimate(x, corr).value
            print(
                f"| {label} | {x:g} | {exact:.2e} ({std_err / exact:.1%}) | {copula:.2e} "
                f"| {copula / exact - 1.0:+.1%} |"
            )
    print(f"\n{SAMPLES} exact-model samples per row, {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
