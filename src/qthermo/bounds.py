"""Lower bounds on entropy production and sufficient nonnegativity tests.

The central object is the reference product rho_S x gamma(beta_star built
from the environment marginal).  Three nested lower bounds on the matched
entropy production come out of it:

* entropy gap: S(rho_SE) minus the entropy of the reference product,
* trace-distance bound: a continuity estimate of the entropy gap in the
  full system-environment dimension,
* product trace-distance bound: the sharper variant available when the
  initial state factorizes, which only pays the environment dimension.

The sufficient conditions combine the trace-distance bound with a Pinsker
lower bound on the final divergence; when they report ``holds`` the
entropy production is certifiably nonnegative, while a failed check is
inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidInput, InvalidPerturbation
from .linalg import (
    BipartiteState,
    DensityMatrix,
    HermitianMatrix,
    _as_real,
    _expect,
    _kron,
    _ptrace_stack,
    _trace_distance,
)
from .thermo import (
    _Bipartite,
    _bipartite_one,
    _GibbsRows,
    _gibbs_relative_entropy,
    _solver,
)

# Absolute slack (relative to the matrix scale) allowed on the structural
# constraints of a perturbation: vanishing system marginal and vanishing
# environment-marginal diagonal in the energy eigenbasis.
PERTURBATION_TOL = 1e-11

# A bipartite state counts as a product when rho_SE and rho_S x rho_E agree
# entrywise to this relative tolerance.
_PRODUCT_TOL = 1e-12


def binary_entropy(p: float) -> float:
    """Shannon entropy -p ln p - (1-p) ln(1-p) of a bit, in nats."""
    p = _as_real(p, "p")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"binary_entropy needs p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log1p(-p))


# Stacked forms: one row per state of a stack; the public functions below
# evaluate them on a stack of one.

def _reference_distance(state: _Bipartite, gamma: np.ndarray) -> np.ndarray:
    """Trace distance from each state to the product rho_S x gamma of its row."""
    return _trace_distance(state.state.mat, _kron(state.rho_sys.mat, gamma))


def _entropy_gap(initial: _Bipartite, s_gibbs: np.ndarray) -> np.ndarray:
    # s_gibbs is S_G(beta*_0) per row.
    return initial.state.s - initial.rho_sys.s - s_gibbs


def _continuity_bound(delta: np.ndarray, dim: int) -> np.ndarray:
    # Entropy continuity in trace distance on a dim-level system, on Python
    # floats row by row; the log factor degenerates to 0 at dim = 2.
    return np.array([-x * math.log(dim - 1) - binary_entropy(x) if dim > 2
                     else -binary_entropy(x) for x in delta.tolist()])


def _product_bound(rho_env: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # The continuity bound paid in the environment dimension alone.
    return _continuity_bound(_trace_distance(rho_env, gamma), rho_env.shape[-1])


def _sufficiency_rhs(star0: _GibbsRows, beta0: np.ndarray, bound: np.ndarray) -> np.ndarray:
    # Both conditions' rhs: half of D(gamma(beta*_0) || gamma(beta0)) minus the bound.
    return 0.5 * (_gibbs_relative_entropy(star0.g, star0.p, beta0) - bound)


def _sufficient_general(final: _Bipartite, gamma_tau: np.ndarray, initial: _Bipartite,
                        beta0: np.ndarray, star0: _GibbsRows):
    """(lhs, rhs) of ``sufficient_nonneg_general`` per row from gamma(beta_tau), beta*_0 rows."""
    lhs = _reference_distance(final, gamma_tau) ** 2
    bound = _continuity_bound(_reference_distance(initial, star0.gamma),
                              initial.state.mat.shape[-1])
    return lhs, _sufficiency_rhs(star0, beta0, bound)


def _sufficient_product(final_env: np.ndarray, gamma_tau: np.ndarray, rho_env: np.ndarray,
                        beta0: np.ndarray, star0: _GibbsRows):
    """(lhs, rhs) of ``sufficient_nonneg_product`` per row, as ``_sufficient_general``."""
    lhs = _trace_distance(final_env, gamma_tau) ** 2
    return lhs, _sufficiency_rhs(star0, beta0, _product_bound(rho_env, star0.gamma))


def _row(value: float) -> np.ndarray:
    return np.array([value])


def entropy_gap_bound(initial: BipartiteState, h_env: HermitianMatrix) -> float:
    """Entropy of the state minus entropy of its reference product.

    Always nonpositive; equals minus the divergence from the reference
    product whenever the state's support is compatible with it.  The matched
    entropy production of any unitary evolution started here is bounded
    below by this number.
    """
    return build_bound_report(initial, h_env).entropy_gap_bound


def distance_to_reference(initial: BipartiteState, h_env: HermitianMatrix) -> float:
    """Trace distance between the state and its reference product."""
    return build_bound_report(initial, h_env).distance_to_reference


def trace_distance_bound(initial: BipartiteState, h_env: HermitianMatrix) -> float:
    """Continuity relaxation of the entropy gap in the joint dimension.

    Nonpositive, and never above ``entropy_gap_bound`` in magnitude terms:
    entropy_gap_bound >= trace_distance_bound always holds.
    """
    return build_bound_report(initial, h_env).trace_distance_bound


def product_trace_distance_bound(rho_sys: DensityMatrix, rho_env: DensityMatrix,
                                 h_env: HermitianMatrix) -> float:
    """Trace-distance bound for a product initial state rho_S x rho_E.

    Sharper than the general bound because the reference differs only on
    the environment factor, so the continuity estimate pays the environment
    dimension alone.  The system factor is validated as a state and not used.
    """
    DensityMatrix._of(rho_sys)
    solver = _solver(h_env)
    rho_env = DensityMatrix._of(rho_env, solver.dim)
    gamma = solver.state(solver.beta_star(rho_env))
    return float(_product_bound(rho_env.mat[None], gamma.mat[None])[0])


class SufficiencyCheck(NamedTuple):
    """Outcome of a sufficient condition: holds iff lhs >= rhs."""

    holds: bool
    lhs: float
    rhs: float


def sufficient_nonneg_general(final: BipartiteState, beta_tau: float,
                              initial: BipartiteState, beta0: float,
                              h_env: HermitianMatrix) -> SufficiencyCheck:
    """Pinsker test certifying nonnegative entropy production.

    lhs is the squared trace distance between the final state and its
    endpoint reference; rhs collects the initial-state terms, halved: the
    thermal mismatch divergence minus the trace-distance bound.  ``holds``
    guarantees nonnegativity; failure decides nothing.
    """
    solver = _solver(h_env)
    _expect(initial, BipartiteState, "initial", d_e=solver.dim)
    _expect(final, BipartiteState, "final", d_s=initial.d_s, d_e=solver.dim)
    beta0, beta_tau = _as_real(beta0, "beta0"), _as_real(beta_tau, "beta_tau")
    g = solver._g
    lhs, rhs = _sufficient_general(_bipartite_one(final), _GibbsRows(g, _row(beta_tau)).gamma,
                                   _bipartite_one(initial), _row(beta0),
                                   _GibbsRows(g, _row(solver.beta_star(initial.rho_env))))
    return SufficiencyCheck(holds=bool(lhs[0] >= rhs[0]), lhs=float(lhs[0]), rhs=float(rhs[0]))


def sufficient_nonneg_product(final_env: DensityMatrix, beta_tau: float,
                              rho_sys: DensityMatrix, rho_env: DensityMatrix,
                              beta0: float, h_env: HermitianMatrix) -> SufficiencyCheck:
    """Pinsker test for a product initial state, using marginals only.

    lhs is the squared trace distance of the final environment marginal to
    gamma(beta_tau); rhs uses the product trace-distance bound, so the whole
    check runs in the environment dimension.
    """
    DensityMatrix._of(rho_sys)  # validated, though the check never reads it
    solver = _solver(h_env)
    final_env = DensityMatrix._of(final_env, solver.dim)
    rho_env = DensityMatrix._of(rho_env, solver.dim)
    beta0, beta_tau = _as_real(beta0, "beta0"), _as_real(beta_tau, "beta_tau")
    g = solver._g
    lhs, rhs = _sufficient_product(final_env.mat[None], _GibbsRows(g, _row(beta_tau)).gamma,
                                   rho_env.mat[None], _row(beta0),
                                   _GibbsRows(g, _row(solver.beta_star(rho_env))))
    return SufficiencyCheck(holds=bool(lhs[0] >= rhs[0]), lhs=float(lhs[0]), rhs=float(rhs[0]))


@dataclass(frozen=True)
class PerturbedInitial:
    """A thermal product plus a structured perturbation.

    The perturbation leaves the system marginal and the environment energy
    untouched, so the reference product of ``state`` is exactly
    ``reference`` and the effective inverse temperature stays at ``beta``.
    ``distance_to_reference`` is half the trace norm of the perturbation.
    """

    state: BipartiteState
    reference: BipartiteState
    beta: float
    distance_to_reference: float


def make_perturbed_initial(rho_sys: DensityMatrix, beta: float,
                           chi: HermitianMatrix, h_env: HermitianMatrix) -> PerturbedInitial:
    """Build rho_S x gamma(beta) + chi with the structural constraints checked.

    ``chi`` must be Hermitian with a vanishing system marginal and an
    environment marginal whose diagonal vanishes in the energy eigenbasis;
    violations beyond ``PERTURBATION_TOL`` (relative to the perturbation
    scale) raise InvalidPerturbation, as does a sum that fails to be a
    state.  Under these constraints the effective inverse temperature of
    the result equals ``beta`` and its trace distance to the reference is
    half the trace norm of ``chi``.
    """
    rho_sys, chi = DensityMatrix._of(rho_sys), HermitianMatrix._of(chi)
    beta = _as_real(beta, "beta", inf=True)
    solver = _solver(h_env)
    d_s, d_e = rho_sys.dim, solver.dim
    if chi.dim != d_s * d_e:
        raise InvalidPerturbation(
            f"perturbation dimension {chi.dim} does not match {d_s}*{d_e}"
        )

    scale = max(float(np.abs(chi.mat).max()), 1.0)
    atol = PERTURBATION_TOL * scale
    sys_marginal = _ptrace_stack(chi.mat[None], d_s, d_e, "S")[0]
    if float(np.abs(sys_marginal).max()) > atol:
        raise InvalidPerturbation("perturbation must have a vanishing system marginal")
    env_marginal = _ptrace_stack(chi.mat[None], d_s, d_e, "E")[0]
    diag = np.einsum("ji,jk,ki->i", solver.basis.conj(), env_marginal, solver.basis)
    if float(np.abs(diag).max()) > atol:
        raise InvalidPerturbation(
            "perturbation's environment marginal must have a vanishing "
            "diagonal in the energy eigenbasis"
        )

    gamma = solver.state(beta)
    reference = BipartiteState._trusted(d_s, d_e, _kron(rho_sys.mat[None], gamma.mat[None])[0])
    try:
        state = BipartiteState(d_s, d_e, reference.state.mat + chi.mat)
    except InvalidInput as exc:
        raise InvalidPerturbation(
            f"perturbed matrix is not a valid state: {exc}"
        ) from exc
    half_norm = 0.5 * float(np.abs(np.linalg.eigvalsh(chi.mat)).sum())
    return PerturbedInitial(state=state, reference=reference, beta=beta,
                            distance_to_reference=half_norm)


@dataclass(frozen=True)
class BoundReport:
    """All lower-bound quantities evaluated on one initial state."""

    beta_star: float
    distance_to_reference: float
    entropy_gap_bound: float
    trace_distance_bound: float
    product_trace_distance_bound: float | None
    is_product: bool

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


BoundReport.FIELDS = tuple(f.name for f in fields(BoundReport))


def is_product_state(state: BipartiteState) -> bool:
    """True when the joint state equals the product of its marginals."""
    _expect(state, BipartiteState, "state")
    prod = _kron(state.rho_sys.mat[None], state.rho_env.mat[None])[0]
    scale = max(float(np.abs(state.state.mat).max()), 1.0)
    return float(np.abs(state.state.mat - prod).max()) <= _PRODUCT_TOL * scale


def build_bound_report(initial: BipartiteState, h_env: HermitianMatrix) -> BoundReport:
    """Evaluate every bound on one initial state.

    The product-only bound is included when the state factorizes to
    rounding accuracy and is None otherwise.  beta*_0 is read from the
    environment marginal's cache when ``evolve`` has solved it, and one
    populations pass at it gives both gamma(beta*_0) and S_G(beta*_0).  The
    one-bound functions above return these fields.
    """
    solver = _solver(h_env)
    _expect(initial, BipartiteState, "initial", d_e=solver.dim)
    star = _GibbsRows(solver._g, _row(solver.beta_star(initial.rho_env)))
    state = _bipartite_one(initial)
    delta = _reference_distance(state, star.gamma)
    product = (float(_product_bound(state.rho_env.mat, star.gamma)[0])
               if is_product_state(initial) else None)
    return BoundReport(
        beta_star=float(star.beta[0]),
        distance_to_reference=float(delta[0]),
        entropy_gap_bound=float(_entropy_gap(state, star.s)[0]),
        trace_distance_bound=float(_continuity_bound(delta, initial.d_s * initial.d_e)[0]),
        product_trace_distance_bound=product,
        is_product=product is not None,
    )
