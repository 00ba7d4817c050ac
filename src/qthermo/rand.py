"""Seeded random matrices and states for tests and verification sweeps.

Every generator takes a ``numpy.random.Generator`` first so sweeps stay
reproducible from a single seed.  Each splits into its RNG draw and a
finish that also runs on a stack of draws, so a sweep can draw case by
case in one RNG order and finish every case of one shape in one call.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .linalg import (
    BipartiteState,
    DensityMatrix,
    HermitianMatrix,
    UnitaryMatrix,
    _check_unitary,
    _dag,
)


def _ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Complex Gaussian draw: the real parts, then the imaginary parts."""
    shape = (rows, rows if cols is None else cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _wishart(g: np.ndarray) -> np.ndarray:
    """G G^dag / tr(G G^dag) of a draw, or of each draw of a stack."""
    w = g @ _dag(g)
    return w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None]


def _haar(g: np.ndarray) -> np.ndarray:
    """The phase-fixed Q of a QR decomposition, per draw of a stack too."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _env_draw(rng: np.random.Generator, dim: int, spread: float = 1.0,
              offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The levels and the basis draw of ``rand_env_hamiltonian``."""
    if not spread > 0:
        raise InvalidInput("spread must be positive")
    for _ in range(64):
        w = offset + spread * np.sort(rng.uniform(0.0, 1.0, size=dim))
        if w[-1] - w[0] >= 1e-3 * spread:
            break
    return w, _ginibre(rng, dim)


def _env_matrix(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """V diag(w) V^dag for the Haar V of g; per row of stacks too."""
    v = _haar(g)
    _check_unitary(v)
    return (v * w[..., None, :]) @ _dag(v)


def rand_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianMatrix:
    """Gaussian Hermitian matrix with entries of typical size ``scale``."""
    g = _ginibre(rng, dim)
    return HermitianMatrix(0.5 * scale * (g + g.conj().T))


def rand_unitary(rng: np.random.Generator, dim: int) -> UnitaryMatrix:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    return UnitaryMatrix(_haar(_ginibre(rng, dim)))


def rand_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """Normalized Wishart state G G^dag / tr, full rank by default."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise InvalidInput(f"rank must lie in [1, {dim}], got {rank}")
    return DensityMatrix(_wishart(_ginibre(rng, dim, rank)))


def rand_bipartite(rng: np.random.Generator, d_s: int, d_e: int) -> BipartiteState:
    """Random correlated joint state on d_s x d_e."""
    return BipartiteState(d_s, d_e, rand_density(rng, d_s * d_e))


def rand_product(rng: np.random.Generator, d_s: int, d_e: int) -> BipartiteState:
    """Random product state rho_S x rho_E."""
    return BipartiteState._product(rand_density(rng, d_s), rand_density(rng, d_e))


def rand_env_hamiltonian(rng: np.random.Generator, dim: int, spread: float = 1.0,
                         offset: float = 0.0) -> HermitianMatrix:
    """Hamiltonian with eigenvalues uniform in [offset, offset+spread], Haar basis.

    Redraws until the spectrum spans at least a thousandth of ``spread`` so
    thermal solvers always see two distinct levels.
    """
    return HermitianMatrix(_env_matrix(*_env_draw(rng, dim, spread, offset)))
