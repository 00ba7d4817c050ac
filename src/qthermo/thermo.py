"""Entropy functionals, Gibbs states, and the energy-matching inverse temperature.

Inverse temperatures are plain floats and may be ``math.inf`` or ``-math.inf``;
every consumer branches explicitly on ``math.isinf`` so the boundary cases
(environment energy at the edge of the spectrum) never turn into NaN.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InfeasibleEnergy, InvalidInput
from .linalg import (
    BipartiteState,
    DensityMatrix,
    HermitianMatrix,
    _dag,
    _density_spectra,
    _expect,
    _hermitian_part,
    _ptrace_stack,
    _sym,
)

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

# beta* is +-inf once |beta*| times the smallest positive gap at the near
# spectral edge reaches this: e^{-|beta*| gap} has long underflowed there.
_BETA_CLAMP = 1e6

# The beta* solve's bound on the residual |energy(beta*) - E|, which is also
# the slack by which a target may pass a spectral edge before it raises
# InfeasibleEnergy (it sets no band where beta* is +-inf), and its budget of
# Newton iterations.
_BETA_ABS_TOL = 1e-12
_BETA_MAX_ITER = 200


def _entropy_from_eigs(w: np.ndarray) -> np.ndarray | float:
    """Shannon entropy of eigenvalue rows; works on (..., d) stacks."""
    lam = np.minimum(np.maximum(w, 0.0), 1.0)
    safe = np.where(lam > EIG_ZERO_TOL, lam, 1.0)
    s = -(safe * np.log(safe)).sum(axis=-1)
    if np.ndim(s) == 0:
        return float(s)
    return s


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr[rho ln rho] in nats, nonnegative by construction."""
    return _entropy(DensityMatrix._of(rho))


def _entropy(rho: DensityMatrix) -> float:
    # S(rho) from the cached spectrum, computed once per state.
    if not hasattr(rho, "_s"):
        rho._s = float(_entropy_from_eigs(rho._spectrum()))
    return rho._s


class _States(NamedTuple):
    """A stack of density matrices, (n, d, d), with the entropy of each."""
    mat: np.ndarray
    s: np.ndarray


def _states(mat: np.ndarray) -> _States:
    """The rows of a stack as states, validated as by DensityMatrix."""
    h = _hermitian_part(mat, "DensityMatrix")
    return _States(h, _entropy_from_eigs(_density_spectra(h)))


def _one(rho: DensityMatrix) -> _States:
    return _States(rho.mat[None], np.array([_entropy(rho)]))


class _Bipartite(NamedTuple):
    """A stack of joint states with both marginals, as BipartiteState holds one."""
    state: _States
    rho_sys: _States
    rho_env: _States


def _bipartite(mat: np.ndarray, d_s: int, d_e: int) -> _Bipartite:
    """The rows of a stack as joint states, validated as by BipartiteState."""
    state = _states(mat)
    return _Bipartite(state, *(_states(_ptrace_stack(state.mat, d_s, d_e, k)) for k in "SE"))


def _bipartite_one(rho: BipartiteState) -> _Bipartite:
    return _Bipartite(*map(_one, (rho.state, rho.rho_sys, rho.rho_env)))


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, d) arrays, each rounded as ``a[i] @ b[i]``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy D(rho || sigma) = tr[rho(ln rho - ln sigma)].

    Returns ``math.inf`` when rho carries more than ``SUPPORT_TOL`` weight
    outside the support of sigma.  Finite results can undershoot zero by at
    most ~1e-10 from rounding; they are not clamped.
    """
    rho = DensityMatrix._of(rho)
    sigma = DensityMatrix._of(sigma, rho.dim)
    return float(_relative_entropy(_one(rho), sigma.mat[None])[0])


def _relative_entropy(rho: _States, sigma: np.ndarray) -> np.ndarray:
    """D(rho || sigma) per row of a state stack and an (n, d, d) stack."""
    mu, w = np.linalg.eigh(sigma)
    # Weight of rho along each eigenvector of sigma.
    diag = np.einsum("nji,njk,nki->ni", w.conj(), rho.mat, w).real
    kernel = mu <= SUPPORT_TOL
    leak = np.where(kernel, np.maximum(diag, 0.0), 0.0).sum(axis=1)
    t2 = _dot_rows(np.where(kernel, 0.0, diag), np.log(np.where(kernel, 1.0, mu)))
    return np.where(leak > SUPPORT_TOL, math.inf, -rho.s - t2)  # -rho.s = tr[rho ln rho]


def mutual_information(rho: BipartiteState) -> float:
    """S(rho_S) + S(rho_E) - S(rho_SE); can undershoot 0 by ~1e-10 only."""
    _expect(rho, BipartiteState, "rho")
    return float(_mutual_information(_bipartite_one(rho))[0])


def _mutual_information(rho: _Bipartite) -> np.ndarray:
    return rho.rho_sys.s + rho.rho_env.s - rho.state.s


def _as_beta(beta) -> float:
    """An inverse temperature as a float; +-inf allowed, NaN and non-reals not."""
    try:
        b = float(beta)
    except (TypeError, ValueError):
        raise InvalidInput("beta must be a real number or +-inf") from None
    if math.isnan(b):
        raise InvalidInput("beta must be a real number or +-inf")
    return b


def _as_real(value, name: str) -> float:
    """A finite real as a float; anything else raises InvalidInput."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise InvalidInput(f"{name} must be a finite real number, got {value!r}")
    return v


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

    The scalar maps (energy, variance, entropy, log-partition) take a float or
    an array of finite inverse temperatures and run one level-major kernel on
    either, so an array entry equals the float result bit for bit.  A solver is
    the ``_gibbs`` stack ``_g`` of its one row, and its one-target beta* is
    ``_solve_beta`` on its ``_spectrum_table``, as a stack row's is.  The energy inversion
    measures a target E from the near spectral edge: below the beta = 0
    energy (the level mean), beta >= 0 with gaps eps = w - w_0 and
    u = E - w_0; above it, beta < 0 with eps = w_top - w and u = w_top - E.
    x = |beta| then solves U(x) = sum eps e^{-x eps} / sum e^{-x eps} = u,
    where no exponent is positive: x = ln((D - u)/u)/D on a qubit of gap D,
    else safeguarded Newton on ln U(x) - ln u from x = 0.  beta* is +-inf
    only for u <= 0 or x eps_1 beyond ``_BETA_CLAMP``, eps_1 the smallest
    positive gap.
    """

    def __init__(self, h_env: HermitianMatrix):
        self.h_env = h_env = HermitianMatrix._of(h_env)
        self._g = _gibbs(h_env.mat[None])
        self.energies, self.basis = self._g.levels[0], self._g.basis[0]
        self._table = _spectrum_table(self.energies.tolist())

    @property
    def dim(self) -> int:
        return len(self.energies)

    # -- population vectors ------------------------------------------------

    def populations(self, beta: float) -> np.ndarray:
        return _populations(self._g.levels, np.array([_as_beta(beta)]))[0]

    # -- scalar thermal maps -------------------------------------------------

    def _map(self, kernel, beta):
        """``kernel(levels, betas)``, a row kernel over (n, d) levels at (n,) betas
        (here one row of levels, broadcast), at one beta (a float; +-inf allowed)
        or at each finite beta of an array."""
        if np.ndim(beta) == 0:
            return float(kernel(self._g.levels, np.array([_as_beta(beta)]))[0])
        b = _finite_betas(beta)
        return kernel(self._g.levels, b.ravel()).reshape(b.shape)

    def energy(self, beta):
        return self._map(lambda w, b: _energy(w, b)[0], beta)

    def variance(self, beta):
        return self._map(lambda w, b: _energy_variance(w, b)[1], beta)

    def entropy(self, beta):
        return self._map(lambda w, b: _gibbs_entropy(_populations(w, b).T), beta)

    def log_partition(self, beta):
        """ln Z(beta) for finite beta; array-valued for array input."""
        if np.ndim(beta) == 0 and math.isinf(_as_beta(beta)):
            raise InvalidInput("log_partition requires finite beta")
        return self._map(_log_partition, beta)

    def state(self, beta: float) -> DensityMatrix:
        """Thermal state exp(-beta H)/Z; at beta = +-inf, the maximally mixed
        state on the extremal eigenspace."""
        return DensityMatrix._trusted(_GibbsRows(self._g, np.array([_as_beta(beta)])).gamma[0])

    # -- relative entropies in the thermal family -----------------------------

    def gibbs_relative_entropy(self, beta_a: float, beta_b: float) -> float:
        """D(gamma(beta_a) || gamma(beta_b)); may be inf at infinite beta_b."""
        return float(_gibbs_relative_entropy(self._g, self.populations(beta_a)[None],
                                             np.array([_as_beta(beta_b)]))[0])

    def relative_entropy_profile(self, rho_env: DensityMatrix, betas) -> np.ndarray:
        """D(rho_env || gamma(beta)) over an array of finite betas.

        Uses D = -S(rho) + beta*tr[rho H] + ln Z(beta), which matches the
        eigendecomposition route to rounding and is cheap to scan.
        """
        rho_env = DensityMatrix._of(rho_env, self.dim)
        return _env_divergence(_one(rho_env), _finite_betas(betas)[None], self._g)[0]

    # -- energy inversion ----------------------------------------------------

    def mean_energy(self, rho):
        """tr[rho H] for one matrix, or per matrix of an (n, d, d) stack."""
        rho = np.asarray(rho)
        if rho.dtype.kind not in "biufc" or rho.shape[-2:] != (self.dim, self.dim):
            raise InvalidInput(f"mean_energy needs numeric {self.dim}x{self.dim} matrices, "
                               f"got shape {rho.shape}")
        e = _mean_energy(rho, self.h_env.mat)
        return float(e) if e.ndim == 0 else e

    def beta_star(self, rho_env: DensityMatrix) -> float:
        """The inverse temperature whose Gibbs state matches tr[rho_env H].

        Unique because the thermal energy is strictly decreasing in beta.
        Returns +inf (-inf) only when the energy sits at or below the bottom
        (at or above the top) of the spectrum; energies outside the spectral
        range by more than ``_BETA_ABS_TOL`` raise InfeasibleEnergy.  Cached
        on rho_env for this solver, as ``evolve`` leaves it at the endpoints.
        """
        rho_env = DensityMatrix._of(rho_env, self.dim)
        solver, beta = getattr(rho_env, "_beta", (None, 0.0))
        return beta if solver is self else self._endpoint(rho_env)[1]

    def _endpoint(self, rho_env: DensityMatrix) -> tuple[float, float]:
        """tr[rho_env H] and beta*, which is cached on rho_env for this solver."""
        energy = self.mean_energy(rho_env.mat)
        beta = self.solve_beta(energy)
        rho_env._beta = (self, beta)
        return energy, beta

    def solve_beta(self, energy: float) -> float:
        return float(self.solve_beta_many(np.array([energy]))[0])

    def solve_beta_many(self, energies) -> np.ndarray:
        """beta* for each target energy; one target takes a float path."""
        try:
            e_target = np.asarray(energies, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInput("target energies must be real numbers") from None
        if not np.isfinite(e_target).all():
            raise InvalidInput("target energies must be finite")
        if e_target.size == 1:
            return np.full(e_target.shape, _solve_beta(self._table, e_target.item()))
        out = np.empty_like(e_target)
        top = e_target > self._table[0]
        for side, mask in ((False, ~top), (True, top)):
            if mask.any():
                out[mask] = self._invert_energy(e_target[mask], side)
        return out

    def _invert_energy(self, e_target: np.ndarray, top: bool) -> np.ndarray:
        """beta* for an array of targets on one side of the beta = 0 energy."""
        sign, (g0, eps), u = _near_edge(self._table, e_target, top)
        gaps = (g0, np.array(eps), np.power.outer(eps, (0, 1, 2)))
        ok = u > 0.0
        x = np.full(u.shape, math.inf)
        if self.dim == 2:
            x[ok] = _qubit_x(u[ok], eps[0])
        elif ok.any():
            idx = np.flatnonzero(ok)
            b, lo, hi = np.zeros(idx.size), np.zeros(idx.size), np.full(idx.size, math.inf)
            ln_u = np.log(u[idx])
            for _ in range(_BETA_MAX_ITER):
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
        solved = x * eps[0] < _BETA_CLAMP
        residual = np.abs(_edge_moments_many(x[solved], gaps)[0] - u[solved])
        _check_residual(float(residual.max(initial=0.0)))
        return sign * np.where(solved, x, math.inf)


def _spectrum_table(wl: list) -> tuple:
    """The float beta* solve's view of ascending levels ``wl``: mean, edges, and per side
    (0: from the ground, 1: from the top level) zero-gap count and ascending positive gaps."""
    return (sum(wl) / len(wl), (wl[0], wl[-1]),
            tuple((float(g.count(0.0)), [x for x in g if x > 0.0])
                  for g in ([x - wl[0] for x in wl], [wl[-1] - x for x in wl[::-1]])))


def _near_edge(table: tuple, e, top: bool):
    """Sign of beta, gaps and u for targets e (float or array) on one side."""
    _, (bottom, ceiling), gaps = table
    u = ceiling - e if top else e - bottom
    worst = -(u.min() if isinstance(u, np.ndarray) else u)
    if worst > _BETA_ABS_TOL:
        raise InfeasibleEnergy(f"target energy escapes [{bottom:.12g}, "
                               f"{ceiling:.12g}] by {worst:.3e}")
    return (-1.0 if top else 1.0), gaps[top], u


def _solve_beta(table: tuple, e: float) -> float:
    """``GibbsSolver._invert_energy`` for one target, on Python floats."""
    sign, (g0, eps), u = _near_edge(table, e, e > table[0])
    if u <= 0.0:
        return sign * math.inf
    qubit = g0 + len(eps) == 2
    x = float(_qubit_x(u, eps[0])) if qubit else 0.0
    lo, hi = 0.0, math.inf
    for _ in range(0 if qubit else _BETA_MAX_ITER):
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
    if x * eps[0] >= _BETA_CLAMP:
        return sign * math.inf
    _check_residual(abs(_edge_moments(x, g0, eps)[0] - u))
    return sign * x


def _level_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading (level) axis in level order, so a column rounds alike at any
    trailing shape (NumPy sums a lone column pairwise)."""
    acc = x[0].copy()
    for row in x[1:]:
        acc += row
    return acc


def _populations(levels: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Thermal populations (n, d) at (n,) betas on (1, d) or (n, d) ascending levels, as the
    view of a level-major (d, n) array; at beta = +-inf, uniform on the degenerate edge level.
    -beta w is monotone in w, so the edge terms hold the row max that guards exp."""
    w, inf = levels.T, np.isinf(beta)
    any_inf = inf.any()
    a = w * -(np.where(inf, 0.0, beta) if any_inf else beta)
    a -= np.maximum(a[0], a[-1])
    p = np.exp(a, out=a)
    if any_inf:
        atol = _DEGEN_TOL * np.maximum(np.abs(w).max(axis=0), 1.0)
        p = np.where(inf, np.abs(w - np.where(beta > 0, w[0], w[-1])) <= atol, p)
    p /= _level_sum(p)
    return p.T


def _log_partition(levels: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """ln Z at finite betas, on levels broadcast against ``beta[..., None]``; level-major."""
    a = levels.transpose(-1, *range(levels.ndim - 1)) * -beta
    m = np.maximum(a[0], a[-1])
    a -= m
    return m + np.log(_level_sum(np.exp(a, out=a)))


def _energy(levels: np.ndarray, beta: np.ndarray) -> tuple:
    """Thermal energy per beta, clipped as p . w can round an ulp past an edge on degenerate
    levels; with the level-major populations and the unclipped energy."""
    p, w = _populations(levels, beta).T, levels.T
    e = _level_sum(p * w)
    return np.minimum(np.maximum(e, w[0]), w[-1]), p, e


def _energy_variance(levels: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thermal energy and variance per row of (n, d) levels at (n,) betas."""
    clipped, p, e = _energy(levels, beta)
    return clipped, _level_sum(p * (levels.T - e) ** 2)


def _gibbs_entropy(p: np.ndarray) -> np.ndarray:
    """``_entropy_from_eigs`` of level-major populations, which need no clip to [0, 1]."""
    safe = np.where(p > EIG_ZERO_TOL, p, 1.0)
    return -_level_sum(safe * np.log(safe))


def _thermal(basis: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_k p_k |k><k| in an eigenbasis, or per row of stacks."""
    return (basis * p[..., None, :]) @ _dag(basis)


def _mean_energy(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """tr[rho H], broadcast over leading stack axes."""
    return np.einsum("...kl,...lk->...", rho, h).real


class _Gibbs(NamedTuple):
    """The thermal families of a stack of Hamiltonians: levels (n, d), eigenbases
    and matrices (n, d, d).  A GibbsSolver holds the stack of its one row."""
    levels: np.ndarray
    basis: np.ndarray
    h: np.ndarray


def _gibbs(h: np.ndarray) -> _Gibbs:
    """A Hamiltonian stack by one batched eigh, rows validated as by HermitianMatrix; raises
    unless d >= 2 and each row has levels apart by over ``_DEGEN_TOL`` times its scale."""
    h = _hermitian_part(h, "HermitianMatrix")
    if h.shape[-1] < 2:
        raise InvalidInput("environment Hamiltonian needs dimension >= 2")
    w, v = np.linalg.eigh(h)
    for lo, hi in zip(w[:, 0].tolist(), w[:, -1].tolist()):
        if not hi - lo > _DEGEN_TOL * max(abs(lo), abs(hi), 1.0):
            raise InvalidInput("Hamiltonian must have at least two distinct eigenvalues")
    return _Gibbs(w, v, h)


def _beta_star(g: _Gibbs, rho_env: np.ndarray) -> np.ndarray:
    """beta* per row, each by the float path of ``GibbsSolver.beta_star``."""
    return np.array([_solve_beta(_spectrum_table(w), e) for w, e in
                     zip(g.levels.tolist(), _mean_energy(rho_env, g.h).tolist())])


def _env_divergence(rho: _States, beta: np.ndarray, g: _Gibbs) -> np.ndarray:
    """``GibbsSolver.relative_entropy_profile`` per row, at (n,) or (n, k) betas."""
    b = beta.reshape(len(beta), -1)
    d = (-rho.s[:, None] + b * _mean_energy(rho.mat, g.h)[:, None]
         + _log_partition(g.levels[:, None, :], b))
    return d.reshape(beta.shape)


def _gibbs_relative_entropy(g: _Gibbs, p: np.ndarray, beta_b: np.ndarray) -> np.ndarray:
    """D(gamma(beta_a) || gamma(beta_b)) per row, from the populations p of gamma(beta_a): ln q =
    -beta_b eps - ln Z~ over gaps eps from the level beta_b favours, never ln 0; at beta_b = +-inf,
    inf past EIG_ZERO_TOL off that level."""
    inf = np.isinf(beta_b)
    any_inf = any(inf.tolist())
    b = (np.where(inf, 0.0, beta_b) if any_inf else beta_b)[:, None]
    a = -b * (g.levels - np.where(b < 0.0, g.levels[:, -1:], g.levels[:, :1]))
    log_q = a - np.log(np.exp(a).sum(axis=1, keepdims=True))
    on = p > (EIG_ZERO_TOL * inf[:, None] if any_inf else 0.0)
    if any_inf:  # off ``on``, p and ln q drop out: ln q = ln 0 = -inf off the edge level
        with np.errstate(divide="ignore"):
            log_q = np.where(inf[:, None], np.log(_populations(g.levels, beta_b)), log_q)
        p, log_q = np.where(on, p, 0.0), np.where(on, log_q, 0.0)
    return _dot_rows(p, np.log(p, out=np.zeros_like(p), where=on) - log_q)


class _GibbsRows:
    """Gibbs rows of a thermal-family stack at (n,) betas: one populations pass ``p`` (n, d), in
    C order for the row dots, from which S_G (n,) and gamma (n, d, d) are built on first read."""

    def __init__(self, g: _Gibbs, beta: np.ndarray):
        self.g, self.beta, self.p = g, beta, _populations(g.levels, beta).copy()

    @cached_property
    def s(self) -> np.ndarray:
        return _gibbs_entropy(self.p.T)

    @cached_property
    def gamma(self) -> np.ndarray:
        return _sym(_thermal(self.g.basis, self.p))


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


def _check_residual(residual: float) -> None:
    if residual > _BETA_ABS_TOL:
        raise ConvergenceError(f"energy inversion residual {residual:.3e} exceeds "
                               f"{_BETA_ABS_TOL:g} after {_BETA_MAX_ITER} iterations")


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
