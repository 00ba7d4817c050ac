"""The argument contract of the public entry points that take matrices or states.

Array-likes and validated objects are both accepted; a non-numeric matrix, a
matrix of the wrong dimension and an argument of the wrong type each raise
InvalidInput (or a subclass), never a bare NumPy or Python error.
"""

import numpy as np
import pytest

from qthermo import (
    BipartiteState,
    ConstantBeta,
    DensityMatrix,
    EnvPoint,
    GibbsSolver,
    HamiltonianSchedule,
    HermitianMatrix,
    InvalidInput,
    RegionGrid,
    Segment,
    UnitaryMatrix,
    build_bound_report,
    distance_to_reference,
    effective_beta,
    emit_region_map,
    entropy_gap_bound,
    entropy_production,
    entropy_production_rate,
    env_energy_rate,
    env_point_of,
    evolve,
    example_distances,
    is_product_state,
    make_perturbed_initial,
    mutual_information,
    product_trace_distance_bound,
    region_condition,
    region_lhs,
    region_rhs,
    relative_entropy,
    sufficient_nonneg_general,
    sufficient_nonneg_product,
    tensor_product,
    trace_distance,
    trace_distance_bound,
    von_neumann_entropy,
)
from qthermo.rand import rand_bipartite, rand_hermitian

_RNG = np.random.default_rng(27)
_H2, _H3 = np.diag([0.0, 1.0]), np.diag([0.0, 1.0, 2.0])
_RHO2, _RHO3 = DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3)
_JOINT, _JOINT23 = rand_bipartite(_RNG, 2, 2), rand_bipartite(_RNG, 2, 3)
_H4 = rand_hermitian(_RNG, 4)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_CHI = 0.05 * np.kron(_SX, _SX)
_SCHED = HamiltonianSchedule(_H2, [Segment(0.0, 1.0, _H2, _H4)])
_POINT = EnvPoint(0.2, 0.1)
_GRID = RegionGrid(gap=1.0, beta0=0.5, beta_tau_policy=ConstantBeta(0.5), coherence_abs=0.1,
                   s_min=-1, s_max=1, s_count=3, b_min=0, b_max=1, b_count=3)
_NOT_SQUARE = np.ones((2, 3))

# (entry point, valid arguments, {matrix or state argument: a value of the wrong
# dimension, or None where any dimension is allowed}).
_ENTRY_POINTS = [
    (HermitianMatrix, dict(mat=_H2), dict(mat=_NOT_SQUARE)),
    (DensityMatrix, dict(mat=_RHO2.mat), dict(mat=_NOT_SQUARE)),
    (UnitaryMatrix, dict(mat=_SX), dict(mat=_NOT_SQUARE)),
    (BipartiteState, dict(d_s=2, d_e=2, state=_JOINT.mat), dict(state=_RHO3)),
    (tensor_product, dict(a=_H2, b=_H3), dict(a=_NOT_SQUARE, b=_NOT_SQUARE)),
    (trace_distance, dict(rho=_RHO2, sigma=_RHO2.mat), dict(rho=_NOT_SQUARE, sigma=_RHO3)),
    (GibbsSolver, dict(h_env=_H3), dict(h_env=[[1.0]])),
    (GibbsSolver(_H3).relative_entropy_profile, dict(rho_env=_RHO3, betas=[0.5]),
     dict(rho_env=_RHO2)),
    (GibbsSolver(_H3).mean_energy, dict(rho=_RHO3.mat), dict(rho=_RHO2.mat)),
    (GibbsSolver(_H3).beta_star, dict(rho_env=_RHO3), dict(rho_env=_RHO2)),
    (effective_beta, dict(rho_env=_RHO2, h_env=_H2), dict(rho_env=_RHO3, h_env=_H3)),
    (von_neumann_entropy, dict(rho=_RHO2), dict(rho=_NOT_SQUARE)),
    (relative_entropy, dict(rho=_RHO2, sigma=_RHO2), dict(rho=_NOT_SQUARE, sigma=_RHO3)),
    (mutual_information, dict(rho=_JOINT), dict(rho=None)),
    (HamiltonianSchedule, dict(h_env=_H2, segments=[Segment(0.0, 1.0, _H2, _H4)]),
     dict(h_env=_H3)),
    (Segment, dict(t_start=0.0, t_end=1.0, h_sys=_H2, h_int=_H4),
     dict(h_sys=_NOT_SQUARE, h_int=_NOT_SQUARE)),
    (env_energy_rate, dict(rho=_JOINT, h_total=_H4, h_env=_H2),
     dict(rho=_JOINT23, h_total=_H3, h_env=_H3)),
    (evolve, dict(initial=_JOINT, sched=_SCHED, steps_per_segment=3),
     dict(initial=_JOINT23, sched=None)),
    (entropy_production, dict(initial=_JOINT, final=_JOINT, beta0=0.5, beta_tau=0.5, h_env=_H2),
     dict(initial=_JOINT23, final=_JOINT23, h_env=_H3)),
    (entropy_production_rate, dict(rho=_JOINT, h_total=_H4, h_env=_H2, beta=0.5, beta_dot=0.1),
     dict(rho=_JOINT23, h_total=_H3, h_env=_H3)),
    *((bound, dict(initial=_JOINT, h_env=_H2), dict(initial=_JOINT23, h_env=_H3))
      for bound in (build_bound_report, distance_to_reference, entropy_gap_bound,
                    trace_distance_bound)),
    (is_product_state, dict(state=_JOINT), dict(state=None)),
    (make_perturbed_initial, dict(rho_sys=_RHO2, beta=1.0, chi=_CHI, h_env=_H2),
     dict(rho_sys=_RHO3, chi=_H3, h_env=_H3)),
    (product_trace_distance_bound, dict(rho_sys=_RHO2, rho_env=_RHO2, h_env=_H2),
     dict(rho_sys=None, rho_env=_RHO3, h_env=_H3)),
    (sufficient_nonneg_general,
     dict(final=_JOINT, beta_tau=0.5, initial=_JOINT, beta0=0.5, h_env=_H2),
     dict(final=_JOINT23, initial=_JOINT23, h_env=_H3)),
    (sufficient_nonneg_product,
     dict(final_env=_RHO2, beta_tau=0.5, rho_sys=_RHO2, rho_env=_RHO2, beta0=0.5, h_env=_H2),
     dict(final_env=_RHO3, rho_sys=None, rho_env=_RHO3, h_env=_H3)),
    (env_point_of, dict(rho=_RHO2), dict(rho=_RHO3)),
    (example_distances, dict(initial=_POINT, final=_POINT, beta_tau=0.5, gap=1.0),
     dict(initial=None, final=None)),
    (region_rhs, dict(initial=_POINT, beta0=0.5, gap=1.0), dict(initial=None)),
    (region_lhs, dict(final=_POINT, beta_tau=0.5, gap=1.0), dict(final=None)),
    (region_condition, dict(initial=_POINT, final=_POINT, beta0=0.5, beta_tau=0.5, gap=1.0),
     dict(initial=None, final=None)),
    (emit_region_map, dict(grid=_GRID), dict(grid=None)),
]


def _cases():
    for call, valid, wrong_dims in _ENTRY_POINTS:
        name = getattr(call, "__qualname__", call.__name__)
        for arg, wrong_dim in wrong_dims.items():
            bad = {"non-numeric": "a", "non-numeric array": [["a", "b"], ["c", "d"]],
                   "wrong type": object()}
            if wrong_dim is not None:
                bad["wrong dimension"] = wrong_dim
            for kind, value in bad.items():
                yield pytest.param(call, valid, arg, value, id=f"{name}-{arg}-{kind}")


@pytest.mark.parametrize("call, valid, arg, value", _cases())
def test_bad_matrix_and_state_arguments_raise_invalid_input(call, valid, arg, value):
    call(**valid)
    with pytest.raises(InvalidInput):
        call(**{**valid, arg: value})


@pytest.mark.parametrize("call", [
    lambda: BipartiteState(True, 2, np.eye(2) / 2),
    lambda: GibbsSolver(_H3).mean_energy(np.stack([_RHO2.mat] * 4)),
    lambda: HamiltonianSchedule(_H2, [Segment(0.0, 1.0, lambda t: "a", _H4)]),
], ids=["bool-dimension", "mean-energy-stack", "callable-term"])
def test_bad_scalars_and_values_raise_invalid_input(call):
    # A bool subsystem dimension ended in "TypeError: an integer is required", a stack
    # of the wrong width in NumPy's broadcast ValueError, and a callable term's bad
    # value in a bare ValueError.
    with pytest.raises(InvalidInput):
        call()
