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
    return _entropy(rho)


def _entropy(rho: DensityMatrix) -> float:
    # S(rho) from the cached spectrum, computed once per state.
    if not hasattr(rho, "_s"):
        rho._s = float(_entropy_from_eigs(rho._spectrum()))
    return rho._s


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy D(rho || sigma) = tr[rho(ln rho - ln sigma)].

    Returns ``math.inf`` when rho carries more than ``SUPPORT_TOL`` weight
    outside the support of sigma.  Finite results can undershoot zero by at
    most ~1e-10 from rounding; they are not clamped.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    if not isinstance(sigma, DensityMatrix):
        sigma = DensityMatrix(sigma)
    if rho.dim != sigma.dim:
        raise InvalidInput(f"dimension mismatch: {rho.dim} vs {sigma.dim}")

    t1 = -_entropy(rho)  # tr[rho ln rho]

    mu, w = np.linalg.eigh(sigma.mat)
    # Weight of rho along each eigenvector of sigma.
    diag = np.einsum("ji,jk,ki->i", w.conj(), rho.mat, w).real
    kernel = mu <= SUPPORT_TOL
    leak = float(np.clip(diag[kernel], 0.0, None).sum())
    if leak > SUPPORT_TOL:
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

    ``abs_tol`` bounds the residual |GibbsSolver.energy(beta*) - E| and is
    the slack by which a target may pass a spectral edge before it raises
    InfeasibleEnergy; it sets no band in which beta* is reported as +-inf.
    ``beta_clamp`` is the magnitude beyond which beta* is reported as +-inf.
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
    a float or an array of finite inverse temperatures.  The energy inversion
    measures a target E from the near spectral edge: below the beta = 0
    energy (the level mean), beta >= 0 with gaps eps = w - w_0 and
    u = E - w_0; above it, beta < 0 with eps = w_top - w and u = w_top - E.
    x = |beta| then solves U(x) = sum eps e^{-x eps} / sum e^{-x eps} = u,
    where no exponent is positive: x = ln((D - u)/u)/D on a qubit of gap D,
    else safeguarded Newton on ln U(x) - ln u from x = 0.  beta* is +-inf
    only for u <= 0 or |beta*| beyond ``beta_clamp``.
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
        # On Python floats, which the one-target solve reads: the level mean,
        # the edges, and per side (0: from the ground level, 1: from the top
        # level) the count of zero gaps and the positive gaps, ascending.
        wl = w.tolist()
        self._mid, self._edges = sum(wl) / len(wl), (wl[0], wl[-1])
        self._gaps = tuple((float(g.count(0.0)), [x for x in g if x > 0.0])
                           for g in ([x - wl[0] for x in wl], [wl[-1] - x for x in wl[::-1]]))

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
        # Clipped: p @ w can round an ulp past an edge on degenerate levels.
        if np.ndim(beta) == 0:
            return min(max(float(self.populations(beta) @ self.energies), self._edges[0]),
                       self._edges[1])
        return np.clip(self._moments(_finite_betas(beta))[0], *self._edges)

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
        return DensityMatrix._trusted((self.basis * p) @ self.basis.conj().T)

    # -- relative entropies in the thermal family -----------------------------

    def gibbs_relative_entropy(self, beta_a: float, beta_b: float) -> float:
        """D(gamma(beta_a) || gamma(beta_b)); may be inf at infinite beta_b.

        Finite beta_b uses log-populations -beta_b eps - ln Z~ over the gaps eps
        from the level beta_b favours, so none underflows to ln 0.
        """
        p = self.populations(beta_a)
        beta_b = _as_beta(beta_b)
        if math.isinf(beta_b):
            return float(_rel_entr_sum(p, self.populations(beta_b)))
        a = -beta_b * (self.energies - self._edges[beta_b < 0.0])
        log_q = a - math.log(np.exp(a).sum())
        on = p > 0.0
        return float(p[on] @ (np.log(p[on]) - log_q[on]))

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
        Returns +inf (-inf) only when the energy sits at or below the bottom
        (at or above the top) of the spectrum; energies outside the spectral
        range by more than ``cfg.abs_tol`` raise InfeasibleEnergy.
        """
        if not isinstance(rho_env, DensityMatrix):
            rho_env = DensityMatrix(rho_env)
        if rho_env.dim != self.dim:
            raise InvalidInput(f"dimension mismatch: state {rho_env.dim} vs H {self.dim}")
        return self.solve_beta(self.mean_energy(rho_env.mat), cfg)

    def solve_beta(self, energy: float, cfg: BetaSolveConfig = BetaSolveConfig()) -> float:
        return float(self.solve_beta_many(np.array([energy]), cfg)[0])

    def solve_beta_many(self, energies, cfg: BetaSolveConfig = BetaSolveConfig()) -> np.ndarray:
        """beta* for each target energy; one target takes a float path."""
        e_target = np.asarray(energies, dtype=float)
        if not np.isfinite(e_target).all():
            raise InvalidInput("target energies must be finite")
        if e_target.size == 1:
            return np.full(e_target.shape, self._solve_one(e_target.item(), cfg))
        out = np.empty_like(e_target)
        top = e_target > self._mid
        for side, mask in ((False, ~top), (True, top)):
            if mask.any():
                out[mask] = self._invert_energy(e_target[mask], side, cfg)
        return out

    def _near_edge(self, e, top: bool, cfg: BetaSolveConfig):
        """Sign of beta, gaps and u for targets e (float or array) on one side."""
        u = self._edges[1] - e if top else e - self._edges[0]
        worst = -(u.min() if isinstance(u, np.ndarray) else u)
        if worst > cfg.abs_tol:
            raise InfeasibleEnergy(f"target energy escapes [{self._edges[0]:.12g}, "
                                   f"{self._edges[1]:.12g}] by {worst:.3e}")
        return (-1.0 if top else 1.0), self._gaps[top], u

    def _solve_one(self, e: float, cfg: BetaSolveConfig) -> float:
        """``_invert_energy`` for one target, on Python floats."""
        sign, (g0, eps), u = self._near_edge(e, e > self._mid, cfg)
        if u <= 0.0:
            return sign * math.inf
        x = float(_qubit_x(u, eps[0])) if self.dim == 2 else 0.0
        lo, hi = 0.0, math.inf
        for _ in range(cfg.max_iter if self.dim > 2 else 0):
            ln_big_u, u_over_var = _edge_moments(x, g0, eps)[1:]
            step = (ln_big_u - math.log(u)) * u_over_var
            if abs(step) <= 1e-14 * (1.0 + x):
                x += step
                break
            lo, hi = (x, hi) if step > 0.0 else (lo, x)
            if lo < x + step < hi:
                x += step
            else:
                x = 2.0 * x + 1.0 if hi == math.inf else 0.5 * (lo + hi)
        if x >= cfg.beta_clamp:
            return sign * math.inf
        _check_residual(abs(_edge_moments(x, g0, eps)[0] - u), cfg)
        return sign * x

    def _invert_energy(self, e_target: np.ndarray, top: bool, cfg: BetaSolveConfig) -> np.ndarray:
        """beta* for an array of targets on one side of the beta = 0 energy."""
        sign, (g0, eps), u = self._near_edge(e_target, top, cfg)
        gaps = (g0, np.array(eps), np.power.outer(eps, (0, 1, 2)))
        ok = u > 0.0
        x = np.full(u.shape, math.inf)
        if self.dim == 2:
            x[ok] = _qubit_x(u[ok], eps[0])
        elif ok.any():
            idx = np.flatnonzero(ok)
            b, lo, hi = np.zeros(idx.size), np.zeros(idx.size), np.full(idx.size, math.inf)
            ln_u = np.log(u[idx])
            for _ in range(cfg.max_iter):
                ln_big_u, u_over_var = _edge_moments_many(b, gaps)[1:]
                with np.errstate(invalid="ignore"):  # 0 * inf at an exact root
                    step = (ln_big_u - ln_u) * u_over_var
                # A step at rounding scale means x is at machine precision.
                settled = np.abs(step) <= 1e-14 * (1.0 + b)
                lo, hi = np.where(step > 0.0, b, lo), np.where(step > 0.0, hi, b)
                cand = b + step
                inside = settled | ((lo < cand) & (cand < hi))
                b = np.where(inside, cand,
                             np.where(hi == math.inf, 2.0 * b + 1.0, 0.5 * (lo + hi)))
                if settled.any():
                    x[idx[settled]] = b[settled]
                    idx, b, lo, hi, ln_u = (v[~settled] for v in (idx, b, lo, hi, ln_u))
                    if not idx.size:
                        break
            x[idx] = b
        solved = x < cfg.beta_clamp
        residual = np.abs(_edge_moments_many(x[solved], gaps)[0] - u[solved])
        _check_residual(float(residual.max(initial=0.0)), cfg)
        return sign * np.where(solved, x, math.inf)


def _qubit_x(u, gap):
    """The root of U(x) = u on a qubit, ln((gap - u)/u)/gap, for u in (0, gap/2]:
    by log1p near beta = 0, by a difference of logs where the ratio is large."""
    with np.errstate(over="ignore"):
        return np.where(4.0 * u < gap, np.log(gap - u) - np.log(u),
                        np.log1p((gap - 2.0 * u) / u)) / gap


def _edge_moments(x: float, g0: float, eps: list) -> tuple[float, float, float]:
    """U(x), ln U(x) and U/Var(x) at x >= 0 from ``g0`` zero gaps and the
    ascending positive gaps ``eps``.  The sums S, Q run over e^{-x (eps_k -
    eps_1)}, which cannot all underflow, so ln U never meets ln 0; U/Var is
    inf, sending Newton to its bracket, only where Var underflows."""
    c = math.exp(-x * eps[0])
    r_sum = s_sum = q_sum = 0.0
    for e in eps:
        r = math.exp(-x * (e - eps[0]))
        r_sum, s_sum, q_sum = r_sum + r, s_sum + e * r, q_sum + e * e * r
    z = g0 + c * r_sum
    var_z2 = q_sum * z - c * s_sum * s_sum  # Var z^2 / c; 0 only if Q underflows
    return (c * s_sum / z, math.log(s_sum / z) - x * eps[0],
            s_sum * z / var_z2 if var_z2 > 0.0 else math.inf)


def _edge_moments_many(x: np.ndarray, gaps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_edge_moments`` at each x of an array; ``gaps`` holds g0, the positive
    gaps and the columns of their powers 0, 1, 2."""
    g0, eps, powers = gaps
    c = np.exp(-x * eps[0])
    r_sum, s_sum, q_sum = np.dot(np.exp(np.multiply.outer(-x, eps - eps[0])), powers).T
    z = g0 + c * r_sum
    var_z2 = q_sum * z - c * s_sum * s_sum
    return (c * s_sum / z, np.log(s_sum / z) - x * eps[0],
            np.divide(s_sum * z, var_z2, out=np.full_like(z, math.inf), where=var_z2 > 0.0))


def _check_residual(residual: float, cfg: BetaSolveConfig) -> None:
    if residual > cfg.abs_tol:
        raise ConvergenceError(f"energy inversion residual {residual:.3e} exceeds "
                               f"abs_tol {cfg.abs_tol:g} after {cfg.max_iter} iterations")


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


def _solver(h_env) -> GibbsSolver:
    """The GibbsSolver of H_E, cached on a HermitianMatrix once construction
    succeeds; a raw array gets a fresh solver on every call."""
    if not isinstance(h_env, HermitianMatrix):
        return GibbsSolver(h_env)
    if not hasattr(h_env, "_gibbs"):
        h_env._gibbs = GibbsSolver(h_env)
    return h_env._gibbs


def effective_beta(rho_env: DensityMatrix, h_env: HermitianMatrix) -> float:
    """``GibbsSolver(h_env).beta_star(rho_env)``, sharing the solver cached on h_env."""
    return _solver(h_env).beta_star(rho_env)
