"""Fluid-antenna port geometry, spatial correlation, and channel sampling.

A fluid antenna exposes ``N = n1 * n2`` candidate ports on a rectangular
aperture of ``w1 x w2`` wavelengths, numbered row-major: port ``(i, j)``
(0-based) is entry ``i * n2 + j`` of every gain vector and correlation
matrix.  The instantaneous gain at each port is a unit-variance
circularly symmetric complex Gaussian; gains at different ports are
coupled through the isotropic-scattering kernel ``j0(2*pi*d)`` where
``d`` is the port separation in wavelengths (``|i - i'| * w1 / (n1 - 1)``
along dimension 1, 0 for a single-port dimension) and ``j0`` is the
spherical Bessel function of the first kind, ``sin(x)/x``.

The antenna always operates on its best port, so the quantity consumed
downstream is ``best_gain_sq = max_l |h_l|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import check
from .errors import NumericalError

# Diagonal jitter ladder used when the Bessel kernel comes out numerically
# semidefinite: add eps, renormalize to unit diagonal, retry.
_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_FACTOR_TOL = 1e-10
_ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class PortGrid:
    """Rectangular port layout: n1 x n2 ports on a w1 x w2 wavelength aperture.

    A dimension with a single port has no spatial extent, so its spacing
    term is defined as 0 regardless of the aperture length.
    """

    n1: int
    n2: int
    w1: float
    w2: float

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"port counts must be >= 1, got {self.n1} x {self.n2}")
        check("aperture_wl", self.w1, "w1")
        check("aperture_wl", self.w2, "w2")

    @property
    def num_ports(self) -> int:
        return self.n1 * self.n2


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Port correlation matrix together with a lower-triangular factor.

    ``factor @ factor.T`` reproduces ``entries`` (after any regularization
    applied at build time) to within 1e-10 entrywise; the factor drives
    both correlated sampling and the Gaussian-copula CDF.  Equality and
    hashing are by identity.
    """

    dim: int
    entries: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        factor = np.array(self.factor, dtype=float)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"correlation matrix must be {self.dim}x{self.dim}, got {entries.shape}")
        if factor.shape != (self.dim, self.dim):
            raise ValueError(f"factor must be {self.dim}x{self.dim}, got {factor.shape}")
        if not np.all(entries.diagonal() == 1.0):
            raise ValueError("correlation invariant violated: diagonal entries must be exactly 1")
        if not np.array_equal(entries, entries.T):
            raise ValueError("correlation invariant violated: matrix must be symmetric")
        if np.max(np.abs(entries)) > 1.0 + _ENTRY_TOL:
            raise ValueError("correlation invariant violated: entries must lie in [-1, 1]")
        if np.any(np.triu(factor, k=1) != 0.0):
            raise ValueError("factor must be lower-triangular")
        if np.max(np.abs(factor @ factor.T - entries)) > _FACTOR_TOL:
            raise ValueError("factor invariant violated: L@L.T must reproduce the matrix to 1e-10")
        entries.setflags(write=False)
        factor.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "factor", factor)

    @classmethod
    def identity(cls, dim: int) -> "CorrelationMatrix":
        return cls(dim=dim, entries=np.eye(dim), factor=np.eye(dim))


def _j0(x: np.ndarray | float):
    """Spherical Bessel function of the first kind, j0(x) = sin(x)/x, j0(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def regularized_cholesky(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Cholesky-factor a unit-diagonal correlation matrix, jittering if needed.

    Returns ``(regularized_matrix, factor, eps)``.  Each ladder step adds
    ``eps`` to the diagonal and rescales by ``1/(1+eps)`` so the diagonal
    stays exactly 1.

    Raises:
        NumericalError: if factorization fails at every ladder step.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    for eps in _JITTER_LADDER:
        reg = matrix if eps == 0.0 else (matrix + eps * np.eye(n)) / (1.0 + eps)
        try:
            factor = np.linalg.cholesky(reg)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(factor @ factor.T - reg)) <= _FACTOR_TOL:
            return reg, factor, eps
    min_eig = float(np.linalg.eigvalsh(matrix).min())
    raise NumericalError(
        f"correlation factorization failed even with diagonal jitter up to "
        f"{_JITTER_LADDER[-1]:g} (min eigenvalue {min_eig:.3e})"
    )


def build_correlation(grid: PortGrid) -> CorrelationMatrix:
    """Build the spatial correlation matrix of all ports of ``grid``."""
    n = grid.num_ports
    idx = np.arange(n)
    c1 = idx // grid.n2  # 0-based coordinate along dimension 1
    c2 = idx % grid.n2
    s1 = grid.w1 / (grid.n1 - 1) if grid.n1 > 1 else 0.0
    s2 = grid.w2 / (grid.n2 - 1) if grid.n2 > 1 else 0.0
    d1 = np.abs(c1[:, None] - c1[None, :]) * s1
    d2 = np.abs(c2[:, None] - c2[None, :]) * s2
    entries = _j0(2.0 * np.pi * np.hypot(d1, d2))
    np.fill_diagonal(entries, 1.0)
    reg, factor, _ = regularized_cholesky(entries)
    return CorrelationMatrix(dim=n, entries=reg, factor=factor)


def sample_gains(corr: CorrelationMatrix, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` correlated gain vectors, shape (count, N) complex.

    Each realization consumes exactly ``2 * N`` normal draws in a fixed
    (re, im) interleaved order, so the first port's gain for a given
    stream does not depend on how many ports the grid has.  The draws are
    scaled in place and read as complex through a view, so one call holds
    the ``(count, 2N)`` draws and the ``(count, N)`` result: 32 * N bytes
    per row (512 bytes on a 4x4 grid).
    """
    draws = rng.standard_normal((count, 2 * corr.dim))
    # Times the reciprocal, as numpy's complex / real does: the same bits.
    draws *= 1.0 / np.sqrt(2.0)
    return draws.view(np.complex128) @ corr.factor.T


def best_gain_sq(gains: np.ndarray) -> np.ndarray:
    """Best-port ``max_l |h_l|^2`` of gain vectors laid along the last axis."""
    return np.max(np.abs(gains) ** 2, axis=-1)
