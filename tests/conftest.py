import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

# pyproject's ``pythonpath`` reaches only this process; the few CLI tests
# that start ``python -m fluidrelay`` in a subprocess (the entry point, A10,
# cross-process bytes) find the package through PYTHONPATH instead.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from fluidrelay import CorrelationMatrix, PortGrid, build_correlation


@pytest.fixture(scope="session")
def default_grid_corr():
    """4x4 grid, one-wavelength aperture per side (the default setup)."""
    return build_correlation(PortGrid(4, 4, 1.0, 1.0))


def correlation_from(matrix) -> CorrelationMatrix:
    matrix = np.asarray(matrix, dtype=float)
    return CorrelationMatrix(dim=matrix.shape[0], entries=matrix, factor=np.linalg.cholesky(matrix))


@pytest.fixture
def pair_corr():
    def make(rho: float) -> CorrelationMatrix:
        return correlation_from([[1.0, rho], [rho, 1.0]])

    return make
