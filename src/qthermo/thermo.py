"""Entropy functionals, Gibbs states, and the energy-matching inverse temperature.

Inverse temperatures are plain floats and may be ``math.inf`` or ``-math.inf``;
every consumer branches explicitly on ``math.isinf`` so the boundary cases
(environment energy at the edge of the spectrum) never turn into NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleEnergy, InvalidInput
from .linalg import BipartiteState, DensityMatrix, HermitianMatrix

# Density-matrix eigenvalues below this are treated as exact zeros when
# evaluating entropies; eigenvalues are clipped to [0, 1] for the entropy
# computation only, never in stored state.
EIG_ZERO_TOL = 1e-14

# Eigenvalues of the reference state at or below this count as outside its
# support in relative-entropy support tests.
SUPPORT_TOL = 1e-12

# Relative tolerance used to pick out the degenerate extremal eigenspace for
# beta = +-inf Gibbs states.
_DEGEN_TOL = 1e-12


def _entropy_from_eigs(w: np.ndarray) -> np.ndarray | float:
    """Shannon entropy of eigenvalue rows; works on (..., d) stacks."""
    lam = np.clip(w, 0.0, 1.0)
    safe = np.where(lam > EIG_ZERO_TOL, lam, 1.0)
    s = -(safe * np.log(safe)).sum(axis=-1)
    if np.ndim(s) == 0:
        return float(s)
    return s


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr[rho ln rho] in nats, nonnegative by construction."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    return float(_entropy_from_eigs(np.linalg.eigvalsh(rho.mat)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix,
                     support_tol: float | None = None) -> float:
    """Quantum relative entropy D(rho || sigma) = tr[rho(ln rho - ln sigma)].

    Returns ``math.inf`` when rho carries more than ``support_tol`` weight
    outside the support of sigma.  Finite results can undershoot zero by at
    most ~1e-10 from rounding; they are not clamped.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    if not isinstance(sigma, DensityMatrix):
        sigma = DensityMatrix(sigma)
    if rho.dim != sigma.dim:
        raise InvalidInput(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    tol = SUPPORT_TOL if support_tol is None else float(support_tol)

    lam = np.linalg.eigvalsh(rho.mat)
    t1 = -_entropy_from_eigs(lam)  # tr[rho ln rho]

    mu, w = np.linalg.eigh(sigma.mat)
    # Weight of rho along each eigenvector of sigma.
    diag = np.einsum("ji,jk,ki->i", w.conj(), rho.mat, w).real
    kernel = mu <= tol
    leak = float(np.clip(diag[kernel], 0.0, None).sum())
    if leak > tol:
        return math.inf
    support = ~kernel
    t2 = float(diag[support] @ np.log(mu[support]))
    return float(t1 - t2)


def mutual_information(rho: BipartiteState) -> float:
    """S(rho_S) + S(rho_E) - S(rho_SE); can undershoot 0 by ~1e-10 only."""
    if not isinstance(rho, BipartiteState):
        raise InvalidInput("mutual_information expects a BipartiteState")
    return (von_neumann_entropy(rho.rho_sys)
            + von_neumann_entropy(rho.rho_env)
            - von_neumann_entropy(rho.state))


@dataclass(frozen=True)
class BetaSolveConfig:
    """Tolerances for the effective inverse-temperature root solve.

    ``abs_tol`` bounds the residual |GibbsSolver.energy(beta*) - E| and also
    sets the band around the spectral edges inside which beta* is reported
    as +-inf.  ``beta_clamp`` is the magnitude beyond which the bracket
    search gives up and reports +-inf.
    """

    abs_tol: float = 1e-12
    max_iter: int = 200
    beta_clamp: float = 1e6

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise InvalidInput("abs_tol must be a positive finite number")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be at least 1")
        if not (self.beta_clamp > 0 and math.isfinite(self.beta_clamp)):
            raise InvalidInput("beta_clamp must be a positive finite number")


def _as_beta(beta) -> float:
    """An inverse temperature as a float; +-inf allowed, NaN and non-reals not."""
    try:
        b = float(beta)
    except (TypeError, ValueError):
        raise InvalidInput("beta must be a real number or +-inf") from None
    if math.isnan(b):
        raise InvalidInput("beta must be a real number or +-inf")
    return b


def _finite_betas(beta) -> np.ndarray:
    """An array of inverse temperatures as floats; NaN, +-inf and non-reals raise."""
    b = np.asarray(beta)
    if b.dtype.kind not in "biuf":
        raise InvalidInput("beta arrays must hold finite real numbers")
    b = b.astype(float, copy=False)
    if not np.isfinite(b).all():
        raise InvalidInput("beta arrays must hold finite real numbers")
    return b


class GibbsSolver:
    """Cached eigensystem of a fixed Hamiltonian answering thermal queries.

    All scalar maps (energy, variance, entropy, log-partition) accept either
    a float or an array of finite inverse temperatures; the energy inversion
    ``solve_beta`` additionally handles the spectral-edge cases by reporting
    +-inf inside an ``abs_tol`` band.
    """

    def __init__(self, h_env: HermitianMatrix):
        if not isinstance(h_env, HermitianMatrix):
            h_env = HermitianMatrix(h_env)
        if h_env.dim < 2:
            raise InvalidInput("environment Hamiltonian needs dimension >= 2")
        w, v = np.linalg.eigh(h_env.mat)
        scale = max(float(np.abs(w).max()), 1.0)
        if w[-1] - w[0] <= _DEGEN_TOL * scale:
            raise InvalidInput("Hamiltonian must have at least two distinct eigenvalues")
        self.h_env = h_env
        self.energies = w
        self.basis = v
        self._degen_atol = _DEGEN_TOL * scale

    @property
    def dim(self) -> int:
        return len(self.energies)

    # -- population vectors ------------------------------------------------

    def populations(self, beta: float) -> np.ndarray:
        beta = _as_beta(beta)
        if math.isinf(beta):
            w = self.energies
            edge = w[0] if beta > 0 else w[-1]
            p = (np.abs(w - edge) <= self._degen_atol).astype(float)
            return p / p.sum()
        return self._pops_many(np.array([beta]))[0]

    def _pops_many(self, beta: np.ndarray) -> np.ndarray:
        a = -np.outer(beta, self.energies)
        a -= a.max(axis=1, keepdims=True)
        p = np.exp(a)
        p /= p.sum(axis=1, keepdims=True)
        return p

    def _moments(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Thermal energy and variance at finite betas, from one population pass."""
        p = self._pops_many(beta)
        e = p @ self.energies
        return e, np.einsum("ni,ni->n", p, (self.energies[None, :] - e[:, None]) ** 2)

    # -- scalar thermal maps -------------------------------------------------

    def energy(self, beta):
        if np.ndim(beta) == 0:
            return float(self.populations(beta) @ self.energies)
        return self._moments(_finite_betas(beta))[0]

    def variance(self, beta):
        if np.ndim(beta) == 0:
            p = self.populations(beta)
            e = p @ self.energies
            return float(p @ (self.energies - e) ** 2)
        return self._moments(_finite_betas(beta))[1]

    def entropy(self, beta):
        if np.ndim(beta) == 0:
            return float(_entropy_from_eigs(self.populations(beta)))
        return _entropy_from_eigs(self._pops_many(_finite_betas(beta)))

    def log_partition(self, beta):
        """ln Z(beta) for finite beta; array-valued for array input."""
        b = np.asarray(_as_beta(beta)) if np.ndim(beta) == 0 else _finite_betas(beta)
        if not np.isfinite(b).all():
            raise InvalidInput("log_partition requires finite beta")
        a = -np.multiply.outer(b, self.energies)
        m = a.max(axis=-1)
        out = m + np.log(np.exp(a - m[..., None]).sum(axis=-1))
        return float(out) if np.ndim(beta) == 0 else out

    def state(self, beta: float) -> DensityMatrix:
        """Thermal state exp(-beta H)/Z; at beta = +-inf, the maximally mixed
        state on the extremal eigenspace."""
        p = self.populations(beta)
        return DensityMatrix((self.basis * p) @ self.basis.conj().T)

    # -- relative entropies in the thermal family -----------------------------

    def gibbs_relative_entropy(self, beta_a: float, beta_b: float) -> float:
        """D(gamma(beta_a) || gamma(beta_b)); may be inf at infinite beta_b."""
        p = self.populations(beta_a)
        q = self.populations(beta_b)
        return float(_rel_entr_sum(p, q))

    def relative_entropy_profile(self, rho_env: DensityMatrix, betas) -> np.ndarray:
        """D(rho_env || gamma(beta)) over an array of finite betas.

        Uses D = -S(rho) + beta*tr[rho H] + ln Z(beta), which matches the
        eigendecomposition route to rounding and is cheap to scan.
        """
        b = np.asarray(betas, dtype=float)
        s = von_neumann_entropy(rho_env)
        return -s + b * self.mean_energy(rho_env.mat) + self.log_partition(b)

    # -- energy inversion ----------------------------------------------------

    def mean_energy(self, rho):
        """tr[rho H] for one matrix, or per matrix of an (n, d, d) stack."""
        e = np.einsum("...kl,lk->...", rho, self.h_env.mat).real
        return float(e) if e.ndim == 0 else e

    def beta_star(self, rho_env: DensityMatrix,
                  cfg: BetaSolveConfig = BetaSolveConfig()) -> float:
        """The inverse temperature whose Gibbs state matches tr[rho_env H].

        Unique because the thermal energy is strictly decreasing in beta.
        Returns +inf (-inf) when the energy sits at the bottom (top) of the
        spectrum within ``cfg.abs_tol``; energies outside the spectral range
        by more than that raise InfeasibleEnergy.
        """
        if not isinstance(rho_env, DensityMatrix):
            rho_env = DensityMatrix(rho_env)
        if rho_env.dim != self.dim:
            raise InvalidInput(f"dimension mismatch: state {rho_env.dim} vs H {self.dim}")
        return self.solve_beta(self.mean_energy(rho_env.mat), cfg)

    def solve_beta(self, energy: float, cfg: BetaSolveConfig = BetaSolveConfig()) -> float:
        return float(self.solve_beta_many(np.array([energy]), cfg)[0])

    def solve_beta_many(self, energies, cfg: BetaSolveConfig = BetaSolveConfig()) -> np.ndarray:
        e_target = np.asarray(energies, dtype=float).copy()
        if not np.isfinite(e_target).all():
            raise InvalidInput("target energies must be finite")
        w = self.energies
        emin, emax = float(w[0]), float(w[-1])
        if (e_target < emin - cfg.abs_tol).any() or (e_target > emax + cfg.abs_tol).any():
            worst = float(np.max(np.maximum(emin - e_target, e_target - emax)))
            raise InfeasibleEnergy(
                f"target energy escapes [{emin:.12g}, {emax:.12g}] by {worst:.3e}"
            )
        out = np.empty_like(e_target)
        at_min = e_target <= emin + cfg.abs_tol
        at_max = e_target >= emax - cfg.abs_tol
        out[at_min] = math.inf
        out[at_max] = -math.inf
        active = ~(at_min | at_max)
        if active.any():
            out[active] = self._invert_energy(e_target[active], cfg)
        return out

    def _invert_energy(self, e_target: np.ndarray, cfg: BetaSolveConfig) -> np.ndarray:
        n = len(e_target)
        lo = np.full(n, -1.0)
        hi = np.full(n, 1.0)
        # Grow brackets geometrically until energy(lo) > E > energy(hi); energy
        # is strictly decreasing in beta.  Growing on equality too keeps a root
        # off the bracket ends, where every Newton step would look like an
        # escape and fall back to bisection.
        overflow = np.zeros(n, dtype=bool)
        underflow = np.zeros(n, dtype=bool)
        for end, sign, clamped in ((lo, -1.0, overflow), (hi, 1.0, underflow)):
            idx = np.arange(n)
            for _ in range(128):
                idx = idx[sign * (self._moments(end[idx])[0] - e_target[idx]) >= 0.0]
                if not idx.size:
                    break
                end[idx] *= 2.0
                hit = np.abs(end[idx]) >= cfg.beta_clamp
                clamped[idx[hit]] = True
                idx = idx[~hit]

        beta = 0.5 * (lo + hi)
        live = np.flatnonzero(~(overflow | underflow))
        for _ in range(cfg.max_iter):
            if not live.size:
                break
            b = beta[live]
            e, var = self._moments(b)
            g = e - e_target[live]
            with np.errstate(divide="ignore", invalid="ignore"):
                step = g / var
            # Newton converges quadratically once bracketed, so a raw step at
            # rounding scale means beta is at machine precision.  Test it before
            # the bracket fallback: the ends have just moved onto beta, so a
            # sub-ulp step would otherwise count as an escape.
            settled = np.abs(step) <= 1e-14 * (1.0 + np.abs(b))
            high = g > 0  # energy too high -> beta too small
            b_lo = np.where(high, b, lo[live])
            b_hi = np.where(high, hi[live], b)
            cand = b + step
            bad = ~settled & (~np.isfinite(cand) | (cand <= b_lo) | (cand >= b_hi))
            beta[live] = np.where(bad, 0.5 * (b_lo + b_hi), cand)
            lo[live] = b_lo
            hi[live] = b_hi
            live = live[~settled]

        residual = np.abs(self._moments(beta)[0] - e_target)
        # Points pushed past the clamp sit against a spectral edge.
        beta = np.where(overflow, -math.inf, beta)
        beta = np.where(underflow, math.inf, beta)
        residual = np.where(overflow | underflow, 0.0, residual)
        if (residual > cfg.abs_tol).any():
            raise ConvergenceError(
                f"energy inversion residual {float(residual.max()):.3e} exceeds "
                f"abs_tol {cfg.abs_tol:g} after {cfg.max_iter} iterations"
            )
        return beta


def _rel_entr_sum(p: np.ndarray, q: np.ndarray) -> float:
    """Classical relative entropy of two probability vectors, inf-aware."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    q = np.clip(np.asarray(q, dtype=float), 0.0, None)
    bad = (q <= 0.0) & (p > EIG_ZERO_TOL)
    if bad.any():
        return math.inf
    mask = p > EIG_ZERO_TOL
    ps = p[mask]
    qs = np.where(q[mask] > 0.0, q[mask], 1.0)
    return float((ps * (np.log(ps) - np.log(qs))).sum())


def effective_beta(rho_env: DensityMatrix, h_env: HermitianMatrix,
                   cfg: BetaSolveConfig = BetaSolveConfig()) -> float:
    """``GibbsSolver(h_env).beta_star(rho_env, cfg)`` for a one-off query."""
    return GibbsSolver(h_env).beta_star(rho_env, cfg)
