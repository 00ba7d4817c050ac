"""The argument contract of the public entry points.

Array-likes and validated objects are both accepted; a non-numeric matrix, a
matrix of the wrong dimension and an argument of the wrong type each raise
InvalidInput (or a subclass), never a bare NumPy or Python error.  So does a
scalar that is not a number of the argument's kind: a bool, a string, a
complex, None, a sequence, NaN or an integer past the float range where a real
is wanted, and +-inf where the real must be finite (an inverse temperature
may be +-inf).
"""

import math

import numpy as np
import pytest

from qthermo import (
    BipartiteState,
    ConstantBeta,
    DensityMatrix,
    EnergyMatching,
    EnvPoint,
    GibbsSolver,
    HamiltonianSchedule,
    HermitianMatrix,
    InvalidInput,
    InvalidSchedule,
    RegionGrid,
    Segment,
    TabulatedBeta,
    UnitaryMatrix,
    VerifySuiteConfig,
    beta_from_polarization,
    binary_entropy,
    build_bound_report,
    distance_to_reference,
    effective_beta,
    emit_region_map,
    entropy_gap_bound,
    entropy_production,
    entropy_production_rate,
    env_energy_rate,
    env_hamiltonian,
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
    thermal_polarization,
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
    lambda: HamiltonianSchedule(_H2, 5),
], ids=["bool-dimension", "mean-energy-stack", "callable-term", "segments-not-iterable"])
def test_bad_scalars_and_values_raise_invalid_input(call):
    # A bool subsystem dimension ended in "TypeError: an integer is required", a stack
    # of the wrong width in NumPy's broadcast ValueError, a callable term's bad value
    # in a bare ValueError, and segments that are no sequence in "TypeError: 'int'
    # object is not iterable".
    with pytest.raises(InvalidInput):
        call()


def test_segments_that_are_no_sequence_are_an_invalid_schedule():
    with pytest.raises(InvalidSchedule, match="segments must be a sequence of Segment"):
        HamiltonianSchedule(_H2, 5)


# The scalar half of the contract.  Each entry: (name, a call of one value, a valid
# value, the labels of the values below that the argument takes).  A real, a count and
# an index take none of them: an inverse temperature (BETA) takes +-inf, one that may
# also be an array of finite reals (BETAS) a list too; an index past the grid is an
# IndexError, as for a sequence; a coherence is complex; a None initial longitudinal
# is the default.
FINITE, BETA, BETAS = (), ("inf", "-inf"), ("inf", "-inf", "list")
COUNT = FINITE
_BAD = {"bool": True, "string": "0.5", "complex": 0.5 + 1j, "None": None, "list": [0.5],
        "huge": 10**400, "nan": math.nan}
_INF = {"inf": math.inf, "-inf": -math.inf}
_SOLVER2 = GibbsSolver(_H2)
_TABULATED = TabulatedBeta((0.0, 1.0), (0.5, 1.5))
_TRAJECTORY = evolve(_JOINT, _SCHED, 3)
_GRID_ARGS = dict(gap=1.0, beta0=0.5, beta_tau_policy=EnergyMatching(), coherence_abs=0.1,
                  s_min=-1.0, s_max=1.0, s_count=3, b_min=0.0, b_max=1.0, b_count=3)


def _grid(**kw):
    return RegionGrid(**{**_GRID_ARGS, **kw})


_SCALARS = [
    *((f"GibbsSolver.{m}", getattr(_SOLVER2, m), 0.5, BETAS)
      for m in ("energy", "variance", "entropy")),
    ("GibbsSolver.log_partition", _SOLVER2.log_partition, 0.5, ("list",)),
    ("GibbsSolver.populations", _SOLVER2.populations, 0.5, BETA),
    ("GibbsSolver.state", _SOLVER2.state, 0.5, BETA),
    ("GibbsSolver.gibbs_relative_entropy.beta_a",
     lambda v: _SOLVER2.gibbs_relative_entropy(v, 0.5), 0.5, BETA),
    ("GibbsSolver.gibbs_relative_entropy.beta_b",
     lambda v: _SOLVER2.gibbs_relative_entropy(0.5, v), 0.5, BETA),
    ("GibbsSolver.solve_beta", _SOLVER2.solve_beta, 0.5, FINITE),
    ("ConstantBeta.beta", ConstantBeta, 0.5, FINITE),
    ("Segment.t_start", lambda v: Segment(v, 2.0, _H2, _H4), 0.5, FINITE),
    ("Segment.t_end", lambda v: Segment(0.0, v, _H2, _H4), 0.5, FINITE),
    ("HamiltonianSchedule.total_hamiltonian", _SCHED.total_hamiltonian, 0.5, FINITE),
    ("entropy_production.beta0", lambda v: entropy_production(_JOINT, _JOINT, v, 0.5, _H2),
     0.5, FINITE),
    ("entropy_production.beta_tau", lambda v: entropy_production(_JOINT, _JOINT, 0.5, v, _H2),
     0.5, FINITE),
    ("entropy_production_rate.beta",
     lambda v: entropy_production_rate(_JOINT, _H4, _H2, v, 0.1), 0.5, FINITE),
    ("entropy_production_rate.beta_dot",
     lambda v: entropy_production_rate(_JOINT, _H4, _H2, 0.5, v), 0.1, FINITE),
    ("sufficient_nonneg_general.beta_tau",
     lambda v: sufficient_nonneg_general(_JOINT, v, _JOINT, 0.5, _H2), 0.5, FINITE),
    ("sufficient_nonneg_general.beta0",
     lambda v: sufficient_nonneg_general(_JOINT, 0.5, _JOINT, v, _H2), 0.5, FINITE),
    ("sufficient_nonneg_product.beta_tau",
     lambda v: sufficient_nonneg_product(_RHO2, v, _RHO2, _RHO2, 0.5, _H2), 0.5, FINITE),
    ("sufficient_nonneg_product.beta0",
     lambda v: sufficient_nonneg_product(_RHO2, 0.5, _RHO2, _RHO2, v, _H2), 0.5, FINITE),
    ("make_perturbed_initial.beta",
     lambda v: make_perturbed_initial(_RHO2, v, np.zeros((4, 4)), _H2), 0.5, BETA),
    ("binary_entropy.p", binary_entropy, 0.5, FINITE),
    ("env_hamiltonian.gap", env_hamiltonian, 1.0, FINITE),
    ("thermal_polarization.beta", lambda v: thermal_polarization(v, 1.0), 0.5, BETA),
    ("thermal_polarization.gap", lambda v: thermal_polarization(0.5, v), 1.0, FINITE),
    ("beta_from_polarization.r", lambda v: beta_from_polarization(v, 1.0), 0.5, FINITE),
    ("beta_from_polarization.gap", lambda v: beta_from_polarization(0.5, v), 1.0, FINITE),
    ("EnvPoint.longitudinal", lambda v: EnvPoint(v, 0.1), 0.2, FINITE),
    ("EnvPoint.coherence", lambda v: EnvPoint(0.2, v), 0.1 + 0.1j, ("complex",)),
    ("example_distances.beta_tau", lambda v: example_distances(_POINT, _POINT, v, 1.0),
     0.5, BETA),
    ("example_distances.gap", lambda v: example_distances(_POINT, _POINT, 0.5, v), 1.0, FINITE),
    ("region_rhs.beta0", lambda v: region_rhs(_POINT, v, 1.0), 0.5, BETA),
    ("region_rhs.gap", lambda v: region_rhs(_POINT, 0.5, v), 1.0, FINITE),
    ("region_lhs.beta_tau", lambda v: region_lhs(_POINT, v, 1.0), 0.5, BETA),
    ("region_lhs.gap", lambda v: region_lhs(_POINT, 0.5, v), 1.0, FINITE),
    ("region_condition.beta0", lambda v: region_condition(_POINT, _POINT, v, 0.5, 1.0),
     0.5, BETA),
    ("region_condition.beta_tau", lambda v: region_condition(_POINT, _POINT, 0.5, v, 1.0),
     0.5, BETA),
    ("region_condition.gap", lambda v: region_condition(_POINT, _POINT, 0.5, 0.5, v),
     1.0, FINITE),
    ("RegionGrid.beta0", lambda v: _grid(beta0=v), 0.5, BETA),
    *((f"RegionGrid.{k}", lambda v, k=k: _grid(**{k: v}), _GRID_ARGS[k], FINITE)
      for k in ("gap", "coherence_abs", "s_min", "s_max", "b_min", "b_max")),
    ("RegionGrid.initial_longitudinal", lambda v: _grid(initial_longitudinal=v), 0.2, ("None",)),
    *((f"RegionGrid.{k}", lambda v, k=k: _grid(**{k: v}), 3, COUNT)
      for k in ("s_count", "b_count")),
    ("BipartiteState.d_s", lambda v: BipartiteState(v, 2, _JOINT.mat), 2, COUNT),
    ("BipartiteState.d_e", lambda v: BipartiteState(2, v, _JOINT.mat), 2, COUNT),
    ("evolve.steps_per_segment", lambda v: evolve(_JOINT, _SCHED, v), 3, COUNT),
    ("Trajectory.state", _TRAJECTORY.state, 1, ("huge",)),
    ("VerifySuiteConfig.num_random_scenarios",
     lambda v: VerifySuiteConfig(num_random_scenarios=v), 5, COUNT),
    ("VerifySuiteConfig.dims", lambda v: VerifySuiteConfig(dims=((v, 2),)), 2, COUNT),
]

# Arguments that take an array: each is called with a list holding a valid entry and
# the value, which must then be a finite real.
_ARRAYS = [
    *((f"GibbsSolver.{m}[]", lambda v, m=m: getattr(_SOLVER2, m)([0.5, v]))
      for m in ("energy", "variance", "entropy", "log_partition")),
    ("GibbsSolver.relative_entropy_profile.betas[]",
     lambda v: _SOLVER2.relative_entropy_profile(_RHO2, [0.5, v])),
    ("GibbsSolver.solve_beta_many.energies[]", lambda v: _SOLVER2.solve_beta_many([0.5, v])),
    ("TabulatedBeta.times[]", lambda v: TabulatedBeta((-1.0, v), (0.5, 1.5))),
    ("TabulatedBeta.betas[]", lambda v: TabulatedBeta((0.0, 1.0), (0.5, v))),
    ("TabulatedBeta.values.t[]", lambda v: _TABULATED.values([0.5, v])),
]


def _scalar_cases():
    cases = [*_SCALARS, *((name, call, 0.5, ()) for name, call in _ARRAYS)]
    for name, call, valid, accepted in cases:
        for label, value in {**_BAD, **_INF}.items():
            if label not in accepted:
                yield pytest.param(call, valid, value, id=f"{name}-{label}")


@pytest.mark.parametrize("call, valid, value", _scalar_cases())
def test_bad_scalar_arguments_raise_invalid_input(call, valid, value):
    call(valid)
    with pytest.raises(InvalidInput):
        call(value)


_EDGES = [(name, call) for name, call, _, accepted in _SCALARS if "inf" in accepted]


@pytest.mark.parametrize("call", [call for _, call in _EDGES], ids=[name for name, _ in _EDGES])
@pytest.mark.parametrize("edge", [math.inf, -math.inf])
def test_inverse_temperatures_take_the_spectral_edges(call, edge):
    call(edge)
