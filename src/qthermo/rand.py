"""Seeded random matrices and states for tests and verification sweeps.

Every generator takes a ``numpy.random.Generator`` first so sweeps stay
reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .linalg import BipartiteState, DensityMatrix, HermitianMatrix, UnitaryMatrix


def rand_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianMatrix:
    """Gaussian Hermitian matrix with entries of typical size ``scale``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(0.5 * scale * (g + g.conj().T))


def rand_unitary(rng: np.random.Generator, dim: int) -> UnitaryMatrix:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return UnitaryMatrix(q)


def rand_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """Normalized Wishart state G G^dag / tr, full rank by default."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise InvalidInput(f"rank must lie in [1, {dim}], got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    w = g @ g.conj().T
    return DensityMatrix(w / np.trace(w).real)


def rand_bipartite(rng: np.random.Generator, d_s: int, d_e: int,
                   rank: int | None = None) -> BipartiteState:
    """Random correlated joint state on d_s x d_e."""
    return BipartiteState(d_s, d_e, rand_density(rng, d_s * d_e, rank=rank))


def rand_product(rng: np.random.Generator, d_s: int, d_e: int) -> BipartiteState:
    """Random product state rho_S x rho_E."""
    a = rand_density(rng, d_s)
    b = rand_density(rng, d_e)
    return BipartiteState(d_s, d_e, np.kron(a.mat, b.mat))


def rand_env_hamiltonian(rng: np.random.Generator, dim: int, spread: float = 1.0,
                         offset: float = 0.0) -> HermitianMatrix:
    """Hamiltonian with eigenvalues uniform in [offset, offset+spread], Haar basis.

    Redraws until the spectrum spans at least a thousandth of ``spread`` so
    thermal solvers always see two distinct levels.
    """
    if not spread > 0:
        raise InvalidInput("spread must be positive")
    for _ in range(64):
        w = offset + spread * np.sort(rng.uniform(0.0, 1.0, size=dim))
        if w[-1] - w[0] >= 1e-3 * spread:
            break
    v = rand_unitary(rng, dim).mat
    return HermitianMatrix((v * w) @ v.conj().T)
