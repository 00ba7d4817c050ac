"""Validated matrix types and dense Hermitian linear algebra.

Everything here assumes small dimensions (products of subsystem sizes up to
a few dozen): spectral functions use a full eigendecomposition, exp(-i H dt)
a dense Taylor series, and no sparse or iterative machinery is used.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, InvalidState

# Construction-time tolerances.  Hermiticity is relative to the largest
# entry magnitude (with a floor of 1), the others are absolute.
TOL_HERM = 1e-12
TOL_TRACE = 1e-10
TOL_PSD = 1e-10
TOL_UNITARY = 1e-10


def _as_square_complex(mat, what: str) -> np.ndarray:
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvalidInput(f"{what} must be a nonempty square 2-d array, got shape {a.shape}")
    return a


def _dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2: exactly Hermitian, and equal to A when A is, up to the sign of a zero."""
    return (a + _dag(a)) / 2.0


# The validators below decide the common case with few reductions over the whole
# stack: on the constructors' one matrix, each NumPy call costs microseconds.

def _hermitian_part(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """(A + A^dag)/2 of a matrix or of each matrix of an (n, d, d) stack, as a new array: a copy
    of A if A == A^dag, keeping signed zeros ``_sym`` makes +0.0 (the -0.0 diagonal imaginary
    parts of -M for a real M); raises where one has a non-finite entry, or deviates from
    self-adjointness by more than ``TOL_HERM`` relative to its largest entry (floor 1)."""
    # Entries are tested only where ||A||_F^2 is not finite: A - A^dag never meets inf - inf.
    if not np.vdot(a, a).real < np.inf and not np.isfinite(a).all():
        raise InvalidInput(f"{what} contains non-finite entries")
    ah = _dag(a)
    if not np.count_nonzero(a != ah):
        return a.copy()
    skew = a - ah
    # ||A - A^dag||_F <= TOL_HERM bounds every entry, below which the floor of 1
    # on the scale passes every matrix; all else takes the exact per-row test.
    if not np.vdot(skew, skew).real <= TOL_HERM ** 2:
        devs = np.abs(skew).max(axis=(-2, -1)).reshape(-1).tolist()
        for dev, scale in zip(devs, np.abs(a).max(axis=(-2, -1)).reshape(-1).tolist()):
            if dev > TOL_HERM * max(scale, 1.0):
                raise InvalidInput(
                    f"matrix is not Hermitian: max|A - A^dag| = {dev:.3e} exceeds "
                    f"{TOL_HERM:g} relative to the largest entry"
                )
    # Halved before the sum: (A + A^dag)/2 rounds the same but overflows near the float maximum.
    return a / 2.0 + ah / 2.0


def _density_spectra(h: np.ndarray) -> np.ndarray:
    """Ascending ``eigvalsh`` spectra of an (n, d, d) Hermitian stack; raises
    InvalidState where a trace misses 1 by more than ``TOL_TRACE`` or an
    eigenvalue lies below ``-TOL_PSD``."""
    for tr in h.trace(axis1=1, axis2=2).tolist():
        if abs(tr - 1.0) > TOL_TRACE:
            raise InvalidState(f"density matrix trace {tr:.12g} is not 1 within {TOL_TRACE:g}")
    eigs = np.linalg.eigvalsh(h)
    lam_min = min(eigs[:, 0].tolist())
    if lam_min < -TOL_PSD:
        raise InvalidState(f"density matrix has eigenvalue {lam_min:.3e} below -{TOL_PSD:g}")
    return eigs


def _check_unitary(u: np.ndarray) -> None:
    """Raises unless max|U^dag U - I| <= ``TOL_UNITARY`` for a matrix or a stack."""
    dev = float(np.abs(_dag(u) @ u - np.eye(u.shape[-1])).max())
    if dev > TOL_UNITARY:
        raise InvalidInput(f"matrix is not unitary: max|U^dag U - I| = {dev:.3e}")


class HermitianMatrix:
    """A validated self-adjoint complex matrix.

    Exactly self-adjoint input (A == A^dag) is stored as given, signed zeros
    included, in a copy; otherwise construction symmetrizes ``(A + A^dag)/2``
    when the deviation from self-adjointness is within ``TOL_HERM`` relative to
    the largest entry magnitude; larger deviations raise rather than being
    silently repaired.
    The stored array is read-only so instances can be shared freely.
    """

    # _gibbs: the GibbsSolver thermo._solver caches.
    __slots__ = ("mat", "_gibbs")

    def __init__(self, mat):
        what = type(self).__name__
        h = _hermitian_part(_as_square_complex(mat, what), what)
        h.setflags(write=False)
        self.mat = h
        self._check()

    def _check(self) -> None:
        pass

    @classmethod
    def _trusted(cls, mat: np.ndarray):
        # Internal fast path for matrices valid by construction (unitary conjugates,
        # Gibbs states, products of valid states, rows of validated stacks).
        obj = object.__new__(cls)
        h = _sym(np.asarray(mat, dtype=complex))
        h.setflags(write=False)
        obj.mat = h
        return obj

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianMatrix):
    """HermitianMatrix with unit trace and nonnegative spectrum.

    Trace must be 1 within ``TOL_TRACE`` and the smallest eigenvalue no
    lower than ``-TOL_PSD``.  The stored matrix is kept exactly as given
    (after Hermitian symmetrization); eigenvalues are never clipped here.
    Its ``eigvalsh`` spectrum, entropy and (solver, beta*) are cached once computed.
    """

    __slots__ = ("_eigs", "_s", "_beta")

    def _check(self) -> None:
        self._eigs = _density_spectra(self.mat[None])[0]
        self._eigs.setflags(write=False)

    def _spectrum(self) -> np.ndarray:
        """Ascending ``eigvalsh`` eigenvalues, read-only, computed on first use."""
        if not hasattr(self, "_eigs"):
            self._eigs = np.linalg.eigvalsh(self.mat)
            self._eigs.setflags(write=False)
        return self._eigs


class UnitaryMatrix:
    """A validated unitary: ``max|U^dag U - I|`` at most ``TOL_UNITARY``."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        a = _as_square_complex(mat, "UnitaryMatrix")
        if not np.isfinite(a).all():
            raise InvalidInput("UnitaryMatrix contains non-finite entries")
        _check_unitary(a)
        u = a.copy()
        u.setflags(write=False)
        self.mat = u

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


class BipartiteState:
    """Joint density operator on a system (dim d_s) and environment (dim d_e).

    Index convention is system-major: basis state ``i*d_e + k`` pairs system
    level ``i`` with environment level ``k``, matching ``np.kron(sys, env)``.
    Both marginals are computed at construction and validated as density
    matrices.
    """

    __slots__ = ("d_s", "d_e", "state", "rho_sys", "rho_env")

    def __init__(self, d_s: int, d_e: int, state):
        if not (isinstance(d_s, (int, np.integer)) and isinstance(d_e, (int, np.integer))):
            raise InvalidInput("subsystem dimensions must be integers")
        if d_s < 1 or d_e < 2:
            raise InvalidInput(f"need d_s >= 1 and d_e >= 2, got d_s={d_s}, d_e={d_e}")
        if not isinstance(state, DensityMatrix):
            state = DensityMatrix(state)
        if state.dim != d_s * d_e:
            raise InvalidInput(
                f"state dimension {state.dim} does not match d_s*d_e = {d_s * d_e}"
            )
        self.d_s = int(d_s)
        self.d_e = int(d_e)
        self.state = state
        self.rho_sys, self.rho_env = (DensityMatrix(_ptrace_stack(state.mat[None], d_s, d_e, k)[0])
                                      for k in "SE")

    @classmethod
    def _trusted(cls, d_s: int, d_e: int, mat: np.ndarray) -> "BipartiteState":
        # Internal fast path for evolution output; marginals skip eigen tests.
        obj = object.__new__(cls)
        obj.d_s = int(d_s)
        obj.d_e = int(d_e)
        obj.state = DensityMatrix._trusted(mat)
        obj.rho_sys, obj.rho_env = (
            DensityMatrix._trusted(_ptrace_stack(obj.state.mat[None], d_s, d_e, k)[0]) for k in "SE")
        return obj

    @classmethod
    def _product(cls, a: DensityMatrix, b: DensityMatrix) -> "BipartiteState":
        # a x b of validated factors, validated once: a marginal equal to its
        # factor bit for bit shares its spectrum; others decompose on first read.
        state = DensityMatrix(_kron(a.mat[None], b.mat[None])[0])
        obj = cls._trusted(a.dim, b.dim, state.mat)
        obj.state = state
        for marginal, factor in ((obj.rho_sys, a), (obj.rho_env, b)):
            if np.array_equal(marginal.mat, factor.mat):
                marginal._eigs = factor._spectrum()
        return obj

    @property
    def dim(self) -> int:
        return self.d_s * self.d_e

    @property
    def mat(self) -> np.ndarray:
        return self.state.mat

    def __repr__(self) -> str:
        return f"BipartiteState(d_s={self.d_s}, d_e={self.d_e})"


def _ptrace_stack(stack: np.ndarray, d_s: int, d_e: int, keep: str) -> np.ndarray:
    # Batched partial trace over a (n, d, d) stack.
    r = stack.reshape(stack.shape[0], d_s, d_e, d_s, d_e)
    if keep == "S":
        return np.einsum("tikjk->tij", r)
    return np.einsum("tikil->tkl", r)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each pair of rows of two square (n, p, p) and (n, q, q) stacks."""
    n, p, q = a.shape[0], a.shape[1], b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, p * q, p * q)


def tensor_product(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """Kronecker product with the first factor on the major index."""
    if not isinstance(a, HermitianMatrix):
        a = HermitianMatrix(a)
    if not isinstance(b, HermitianMatrix):
        b = HermitianMatrix(b)
    return HermitianMatrix(np.kron(a.mat, b.mat))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of the difference of two density matrices."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    if not isinstance(sigma, DensityMatrix):
        sigma = DensityMatrix(sigma)
    if rho.dim != sigma.dim:
        raise InvalidInput(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return float(_trace_distance(rho.mat, sigma.mat))


def _trace_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1), 0.0), 1.0)


def _expi(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) of a Hermitian matrix or of each matrix of an (n, d, d) stack.

    Scaling and squaring without an eigendecomposition (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488, 2011): with A = -i h dt, s is the least
    integer for which theta = ||A||_1 / 2^s <= 1/2, taking the largest row
    1-norm in the stack; the Taylor series of exp(A / 2^s) is summed in Horner
    form to the degree m whose first dropped term theta^(m+1) / (m+1)! is
    below unit roundoff, then squared s times.  A zero h gives the identity
    exactly.
    """
    theta, s = abs(dt) * float(np.abs(h).sum(axis=-1).max()), 0
    while theta > 0.5:
        theta, s = theta / 2.0, s + 1
    a = (-1j * dt / 2.0 ** s) * h
    m, term = 0, theta
    while term > 2.0 ** -53:  # unit roundoff
        m += 1
        term *= theta / (m + 1)
    eye = np.eye(a.shape[-1])
    p = eye + a / m if m else np.broadcast_to(eye, a.shape) + 0j
    tmp = np.empty_like(p)  # each step in place, rounding as p = a @ p / k + eye does
    for k in range(m - 1, 0, -1):
        np.matmul(a, p, out=tmp)
        tmp /= k
        tmp += eye
        p, tmp = tmp, p
    for _ in range(s):
        p, tmp = np.matmul(p, p, out=tmp), p
    return p
