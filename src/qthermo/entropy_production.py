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
from .linalg import BipartiteState, HermitianMatrix, _as_real, _as_reals, _expect
from .thermo import (
    EIG_ZERO_TOL,
    _Bipartite,
    _bipartite_one,
    _env_divergence,
    _Gibbs,
    _GibbsRows,
    _gibbs_relative_entropy,
    _mutual_information,
    _solver,
    _States,
)


@dataclass(frozen=True)
class ConstantBeta:
    """Fixed inverse temperature over the whole trajectory."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_real(self.beta, "beta"))


@dataclass(frozen=True)
class EnergyMatching:
    """Track the effective inverse temperature beta_star of the trajectory."""


@dataclass(frozen=True)
class TabulatedBeta:
    """Piecewise-linear interpolation through (time, beta) knots."""

    times: tuple
    betas: tuple

    def __post_init__(self):
        t, b = _as_reals(self.times, "times"), _as_reals(self.betas, "betas")
        if t.ndim != 1 or t.shape != b.shape or len(t) < 2:
            raise InvalidInput("tabulated policy needs matching 1-d knots, at least two")
        if not (np.diff(t) > 0).all():
            raise InvalidInput("tabulated times must be strictly increasing")
        object.__setattr__(self, "times", tuple(t.tolist()))
        object.__setattr__(self, "betas", tuple(b.tolist()))

    def values(self, t) -> np.ndarray:
        return np.interp(_as_reals(t, "t"), self.times, self.betas)


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
    ``build_report`` takes an energy-matched beta* = +-inf at its limit.
    """
    solver = _solver(h_env)
    _expect(initial, BipartiteState, "initial", d_e=solver.dim)
    _expect(final, BipartiteState, "final", d_s=initial.d_s, d_e=solver.dim)
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
            + (_matched_divergence(final.rho_env, beta_tau, g)
               - _matched_divergence(initial.rho_env, beta0, g)))


def _matched_divergence(rho: _States, beta: np.ndarray, g: _Gibbs) -> np.ndarray:
    """``_env_divergence``, except at beta = +-inf, which only an energy-matched beta*
    reaches: there D(rho_E || gamma(beta*)) = S_G(beta*) - S(rho_E), with S_G = ln g."""
    inf = np.isinf(beta)
    if not any(inf.tolist()):
        return _env_divergence(rho, beta, g)
    return np.where(inf, _GibbsRows(g, beta).s - rho.s,
                    _env_divergence(rho, np.where(inf, 0.0, beta), g))


def clausius_entropy_production(traj: Trajectory, policy: BetaPolicy) -> float:
    """System entropy change plus the beta-weighted heat integral: ``build_report``'s field."""
    return build_report(traj, policy).clausius_entropy_production


def temperature_drift_correction(traj: Trajectory, policy: BetaPolicy) -> float:
    """Integral of beta_dot (E_t - E(beta_t)): ``build_report``'s field."""
    return build_report(traj, policy).temperature_drift_correction


def matched_entropy_production(traj: Trajectory) -> float:
    """Entropy production at the energy-matching temperatures: ``build_report``'s field."""
    return build_report(traj, EnergyMatching()).matched_entropy_production


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
    The beta fields are +-inf where energy matching finds rho_E in an edge
    eigenspace of H_E; every other field keeps its finite limit there.
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
    the endpoints: each entropy once, one populations pass at both beta* for S_G, and both
    mismatches.  The heat integral is closed-form, with zero drift and no beta* grid read,
    for ConstantBeta (beta dE) and EnergyMatching (dS_G = beta dE_G along the thermal family
    gives S_G(beta*_tau) - S_G(beta*_0)).  TabulatedBeta takes per-segment trapezoids of beta_t
    times the analytic rate (segment-local, so generator jumps stay out of the error) and the
    drift from exact per-interval beta increments, O(dt^2) on piecewise-linear knots.  Where
    rho_E lies in an edge eigenspace of H_E (degeneracy g), beta* = +-inf is exact, and every
    field takes its finite limit through S_G(+-inf) = ln g."""
    g = traj.schedule.gibbs._g
    (beta0, beta_tau), betas = _policy_grid(policy, traj)
    beta_ends = np.array([beta0, beta_tau])
    stars = _GibbsRows(g, np.array(traj.beta_star_ends))
    initial, final = _bipartite_one(traj.initial), _bipartite_one(traj.final)

    s_sys, s_env, s_gibbs, matched = (float(x[0]) for x in _matched_entropy_form(
        initial, final, stars.s[:1], stars.s[1:]))
    ep = float(_entropy_production(initial, final, beta_ends[:1], beta_ends[1:], g)[0])
    drift = 0.0
    if isinstance(policy, ConstantBeta):
        heat = policy.beta * (traj.env_energy_ends[1] - traj.env_energy_ends[0])
    elif isinstance(policy, EnergyMatching):
        s_gibbs_0, s_gibbs_tau = stars.s.tolist()
        heat = s_gibbs_tau - s_gibbs_0
    else:
        heat = 0.0
        for sl, rates in zip(traj.segment_slices, traj.segment_rates):
            heat += float(np.trapezoid(betas[sl] * rates, traj.times[sl]))
        mismatch = traj.env_energy - traj.schedule.gibbs.energy(betas)
        drift = float((np.diff(betas) * 0.5 * (mismatch[:-1] + mismatch[1:])).sum())
    cl = s_sys + heat
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
