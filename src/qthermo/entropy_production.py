"""Entropy-production functionals: unified form, Clausius form, corrections.

The unified entropy production compares relative entropies to the reference
family rho_S x gamma_E(beta) at the two endpoints.  The Clausius form is the
system entropy change plus the beta-weighted heat integral; the difference
between the two is the temperature-drift correction, which vanishes for a
constant inverse-temperature assignment.  No sign is asserted for the
Clausius form on its own: only the unified form carries the nonnegativity
guarantees (for product-Gibbs initial states), so the Clausius value is a
diagnostic for general policies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .dynamics import Trajectory, _generator_rates
from .errors import InvalidInput
from .linalg import BipartiteState, HermitianMatrix
from .thermo import (
    EIG_ZERO_TOL,
    _as_real,
    _Bipartite,
    _bipartite_one,
    _env_divergence,
    _Gibbs,
    _GibbsRows,
    _gibbs_relative_entropy,
    _mutual_information,
    _solver,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class ConstantBeta:
    """Fixed inverse temperature over the whole trajectory."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_real(self.beta, "ConstantBeta beta"))


@dataclass(frozen=True)
class EnergyMatching:
    """Track the effective inverse temperature beta_star of the trajectory."""


@dataclass(frozen=True)
class TabulatedBeta:
    """Piecewise-linear interpolation through (time, beta) knots."""

    times: tuple
    betas: tuple

    def __post_init__(self):
        try:
            t = np.asarray(self.times, dtype=float)
            b = np.asarray(self.betas, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInput("tabulated knots must be real numbers") from None
        if t.ndim != 1 or t.shape != b.shape or len(t) < 2:
            raise InvalidInput("tabulated policy needs matching 1-d knots, at least two")
        if not (np.isfinite(t).all() and np.isfinite(b).all()):
            raise InvalidInput("tabulated knots must be finite")
        if not (np.diff(t) > 0).all():
            raise InvalidInput("tabulated times must be strictly increasing")
        object.__setattr__(self, "times", tuple(float(x) for x in t))
        object.__setattr__(self, "betas", tuple(float(x) for x in b))

    def values(self, t) -> np.ndarray:
        return np.interp(np.asarray(t, dtype=float), self.times, self.betas)


BetaPolicy = Union[ConstantBeta, EnergyMatching, TabulatedBeta]

# Tabulated knots must cover the trajectory span up to this slack.
_SPAN_TOL = 1e-9


def policy_grid_betas(policy: BetaPolicy, traj: Trajectory) -> np.ndarray:
    """Inverse temperature at every trajectory grid point."""
    if isinstance(policy, ConstantBeta):
        return np.full(len(traj), policy.beta)
    if isinstance(policy, EnergyMatching):
        return np.asarray(traj.beta_star)
    if isinstance(policy, TabulatedBeta):
        if policy.times[0] > traj.times[0] + _SPAN_TOL or \
                policy.times[-1] < traj.times[-1] - _SPAN_TOL:
            raise InvalidInput(
                f"tabulated policy spans [{policy.times[0]}, {policy.times[-1]}] "
                f"but the trajectory covers [{traj.times[0]}, {traj.times[-1]}]"
            )
        return policy.values(traj.times)
    raise InvalidInput(f"unknown beta policy {policy!r}")


def policy_endpoints(policy: BetaPolicy, traj: Trajectory) -> tuple[float, float]:
    """Inverse temperature at the two endpoints; EnergyMatching solves no grid."""
    return _policy_grid(policy, traj)[0]


def _policy_grid(policy: BetaPolicy, traj: Trajectory):
    """``policy_endpoints`` and the grid betas they come from (None under EnergyMatching)."""
    if isinstance(policy, EnergyMatching):
        return traj.beta_star_ends, None
    betas = policy_grid_betas(policy, traj)
    return (float(betas[0]), float(betas[-1])), betas


def entropy_production(initial: BipartiteState, final: BipartiteState,
                       beta0: float, beta_tau: float,
                       h_env: HermitianMatrix) -> float:
    """Change in relative entropy to the references rho_S x gamma(beta).

    Computed through the marginal decomposition: change in mutual
    information plus the change of the environment's divergence from the
    respective Gibbs state.  Infinite endpoint temperatures are rejected;
    resolve them to the spectral-edge Gibbs projectors upstream if needed.
    """
    if not (isinstance(initial, BipartiteState) and isinstance(final, BipartiteState)):
        raise InvalidInput("entropy_production expects BipartiteState endpoints")
    if (initial.d_s, initial.d_e) != (final.d_s, final.d_e):
        raise InvalidInput("endpoint states must share dimensions")
    solver = _solver(h_env)
    if solver.dim != initial.d_e:
        raise InvalidInput("environment Hamiltonian does not match the states")
    beta0, beta_tau = _as_real(beta0, "beta0"), _as_real(beta_tau, "beta_tau")
    return float(_entropy_production(_bipartite_one(initial), _bipartite_one(final),
                                     np.array([beta0]), np.array([beta_tau]),
                                     solver._g)[0])


def _entropy_production(initial: _Bipartite, final: _Bipartite, beta0: np.ndarray,
                        beta_tau: np.ndarray, g: _Gibbs) -> np.ndarray:
    """``entropy_production`` per row of stacked endpoints, betas and H_E.  The
    environment divergences go through the log-partition identity, so Gibbs
    levels that underflow on a wide spectrum cannot fake a support violation."""
    return (_mutual_information(final) - _mutual_information(initial)
            + (_env_divergence(final.rho_env, beta_tau, g)
               - _env_divergence(initial.rho_env, beta0, g)))


def clausius_entropy_production(traj: Trajectory, policy: BetaPolicy) -> float:
    """System entropy change plus the beta-weighted heat integral.

    Two policies take the integral in closed form from endpoint data: for
    ConstantBeta it telescopes to beta times the endpoint energy difference,
    and for EnergyMatching, since dS_G = beta dE_G along the thermal family,
    to the Gibbs-entropy change S_G(beta*_tau) - S_G(beta*_0).  Tabulated
    policies use per-segment trapezoidal quadrature of beta_t times the
    analytic environment-energy rate (segment-local rates keep boundary jumps
    of the generator out of the quadrature error).
    """
    d_s_entropy = (von_neumann_entropy(traj.final.rho_sys)
                   - von_neumann_entropy(traj.initial.rho_sys))
    s_gibbs = _GibbsRows(traj.schedule.gibbs._g, np.array(traj.beta_star_ends)).s.tolist()
    return d_s_entropy + _heat_term(traj, policy, _policy_grid(policy, traj)[1], s_gibbs)


def _heat_term(traj: Trajectory, policy: BetaPolicy, betas, s_gibbs: list) -> float:
    """The beta-weighted heat integral over the grid ``betas``: beta dE for
    ConstantBeta and dS_G for EnergyMatching integrate exactly, from endpoints
    (``s_gibbs``, S_G at the two beta*)."""
    if isinstance(policy, ConstantBeta):
        return policy.beta * (traj.env_energy_ends[1] - traj.env_energy_ends[0])
    if isinstance(policy, EnergyMatching):
        s0, s_tau = s_gibbs
        return s_tau - s0
    # Only tabulated policies reach here, and their knots are finite.
    heat_term = 0.0
    for sl, rates in zip(traj.segment_slices, traj.segment_rates):
        heat_term += float(np.trapezoid(betas[sl] * rates, traj.times[sl]))
    return heat_term


def temperature_drift_correction(traj: Trajectory, policy: BetaPolicy) -> float:
    """Integral of beta_dot times the thermal-energy mismatch E_t - E(beta_t).

    Exactly zero for ConstantBeta, and for EnergyMatching, whose betas are
    defined by E(beta*_t) = E_t; neither reads the beta* grid.  Otherwise
    E_t is the stored ``traj.env_energy``, so spectral-edge states need no
    beta*.  The quadrature uses exact per-interval beta increments, so
    piecewise-linear tabulated policies incur only the O(dt^2) error of the
    smooth factor.
    """
    return _drift(traj, policy, _policy_grid(policy, traj)[1])


def _drift(traj: Trajectory, policy: BetaPolicy, betas) -> float:
    if isinstance(policy, (ConstantBeta, EnergyMatching)):
        return 0.0
    mismatch = traj.env_energy - traj.schedule.gibbs.energy(betas)
    dbeta = np.diff(betas)
    return float((dbeta * 0.5 * (mismatch[:-1] + mismatch[1:])).sum())


def matched_entropy_production(traj: Trajectory) -> float:
    """Entropy production at the energy-matching temperatures (endpoint form).

    Equals the Clausius form along beta_star, whose heat integral is the
    Gibbs-entropy change; both read endpoint entropies alone.
    """
    s_gibbs = _GibbsRows(traj.schedule.gibbs._g, np.array(traj.beta_star_ends)).s
    return float(_matched_entropy_form(_bipartite_one(traj.initial), _bipartite_one(traj.final),
                                       s_gibbs[:1], s_gibbs[1:])[-1][0])


def _matched_entropy_form(initial: _Bipartite, final: _Bipartite, s_gibbs_0: np.ndarray,
                          s_gibbs_tau: np.ndarray) -> tuple:
    """The matched entropy production per row of stacked endpoints from S_G at both beta*:
    the system, environment and Gibbs-entropy changes, and their sum last."""
    d_s_entropy = final.rho_sys.s - initial.rho_sys.s
    d_e_entropy = final.rho_env.s - initial.rho_env.s
    d_gibbs = (s_gibbs_tau - final.rho_env.s) - (s_gibbs_0 - initial.rho_env.s)
    return d_s_entropy, d_e_entropy, d_gibbs, d_s_entropy + d_e_entropy + d_gibbs


def entropy_production_rate(rho: BipartiteState, h_total: HermitianMatrix,
                            h_env: HermitianMatrix, beta: float, beta_dot: float) -> float:
    """Instantaneous rate: dS_S/dt - beta dQ/dt + beta_dot * energy mismatch.

    All three terms are analytic, with no step constant.  The system-entropy
    derivative reads the generator: dS_S/dt = -tr[rho_S' ln rho_S] with
    rho_S' = tr_E(-i[H, rho]), taken in the eigenbasis of rho_S over its
    support.  It is exact for rank-deficient rho_S: with P0 the projector on
    the kernel of rho_S, rho (P0 x I) = 0, so P0 rho_S' P0 = 0.  The heat
    term reads the same commutator: dE_E/dt = tr[tr_S(-i[H, rho]) H_E], the
    value of ``env_energy_rate``.  The mismatch term is beta_dot (tr[rho_E
    H_E] - E(beta)), exactly zero when ``beta`` equals the state's effective
    inverse temperature or when ``beta_dot`` is zero; it stays finite where
    that temperature is +-inf.
    """
    if not isinstance(rho, BipartiteState):
        raise InvalidInput("entropy_production_rate expects a BipartiteState")
    beta, beta_dot = _as_real(beta, "beta"), _as_real(beta_dot, "beta_dot")
    solver = _solver(h_env)
    drho_sys, rate_env = _generator_rates(rho, h_total, solver.h_env)

    w, v = np.linalg.eigh(rho.rho_sys.mat)
    on = w > EIG_ZERO_TOL
    w_dot = np.einsum("ji,jk,ki->i", v.conj(), drho_sys, v).real
    ds_dt = -float(w_dot[on] @ np.log(w[on]))

    if beta_dot == 0.0 or solver.beta_star(rho.rho_env) == beta:
        mismatch_term = 0.0
    else:
        mismatch_term = beta_dot * (solver.mean_energy(rho.rho_env.mat) - solver.energy(beta))
    # -beta dQ/dt with dQ/dt = -rate_env.
    return ds_dt + beta * rate_env + mismatch_term


@dataclass(frozen=True)
class EPReport:
    """Full decomposition ledger for one trajectory and policy.

    ``residual_split`` is |entropy_production - clausius - drift|: limited by
    quadrature accuracy for tabulated policies, at rounding level otherwise.
    ``residual_matched_split`` checks the endpoint-only decomposition through
    the matched value and the two Gibbs-mismatch terms, at rounding level.
    """

    entropy_production: float
    clausius_entropy_production: float
    temperature_drift_correction: float
    matched_entropy_production: float
    gibbs_mismatch_initial: float
    gibbs_mismatch_final: float
    mutual_info_change: float
    system_entropy_change: float
    env_entropy_change: float
    gibbs_entropy_change: float
    residual_split: float
    residual_matched_split: float
    beta_0: float
    beta_tau: float
    beta_star_0: float
    beta_star_tau: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


EPReport.FIELDS = tuple(f.name for f in fields(EPReport))


def build_report(traj: Trajectory, policy: BetaPolicy) -> EPReport:
    """Evaluate every decomposition quantity for one trajectory and policy, in one pass over
    the endpoints: each entropy once, one populations pass at both beta* for S_G (read by the
    matched kernel ``verify`` checks and the EnergyMatching heat), and both mismatches."""
    g = traj.schedule.gibbs._g
    (beta0, beta_tau), betas = _policy_grid(policy, traj)
    beta_ends = np.array([_as_real(beta0, "beta0"), _as_real(beta_tau, "beta_tau")])
    stars = _GibbsRows(g, np.array(traj.beta_star_ends))
    initial, final = _bipartite_one(traj.initial), _bipartite_one(traj.final)

    s_sys, s_env, s_gibbs, matched = (float(x[0]) for x in _matched_entropy_form(
        initial, final, stars.s[:1], stars.s[1:]))
    ep = float(_entropy_production(initial, final, beta_ends[:1], beta_ends[1:], g)[0])
    cl = s_sys + _heat_term(traj, policy, betas, stars.s.tolist())
    drift = _drift(traj, policy, betas)
    mism0, mism_tau = _gibbs_relative_entropy(g, stars.p, beta_ends).tolist()

    return EPReport(
        entropy_production=ep,
        clausius_entropy_production=cl,
        temperature_drift_correction=drift,
        matched_entropy_production=matched,
        gibbs_mismatch_initial=mism0,
        gibbs_mismatch_final=mism_tau,
        mutual_info_change=float((_mutual_information(final) - _mutual_information(initial))[0]),
        system_entropy_change=s_sys,
        env_entropy_change=s_env,
        gibbs_entropy_change=s_gibbs,
        residual_split=abs(ep - cl - drift),
        residual_matched_split=abs(ep - matched - mism_tau + mism0),
        beta_0=beta0,
        beta_tau=beta_tau,
        beta_star_0=traj.beta_star_ends[0],
        beta_star_tau=traj.beta_star_ends[1],
    )
