"""Tests for the entropy production decomposition and its rate form."""

import dataclasses
import importlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from qthermo import (
    BipartiteState,
    ConstantBeta,
    DensityMatrix,
    EnergyMatching,
    GibbsSolver,
    HamiltonianSchedule,
    HermitianMatrix,
    InvalidInput,
    Segment,
    TabulatedBeta,
    build_report,
    clausius_entropy_production,
    distance_to_reference,
    effective_beta,
    env_energy_rate,
    entropy_gap_bound,
    entropy_production,
    entropy_production_rate,
    evolve,
    is_product_state,
    matched_entropy_production,
    mutual_information,
    parse_scenario,
    policy_endpoints,
    policy_grid_betas,
    product_trace_distance_bound,
    run_scenario,
    sufficient_nonneg_general,
    sufficient_nonneg_product,
    temperature_drift_correction,
    tensor_product,
    trace_distance_bound,
    von_neumann_entropy,
)
from qthermo.cli import main
from qthermo.dynamics import _Eigenframe
from qthermo.rand import rand_bipartite, rand_density, rand_env_hamiltonian, rand_hermitian

BUNDLED = Path(__file__).resolve().parents[1] / "src/qthermo/data/two_qubit_exchange.json"


def _ramp_setup(seed, d_s=2, d_e=2, tau=1.0):
    rng = np.random.default_rng(seed)
    h_sys = rand_hermitian(rng, d_s, scale=0.4)
    h_env = rand_env_hamiltonian(rng, d_e, spread=1.2)
    h_int = rand_hermitian(rng, d_s * d_e, scale=0.3)
    sched = HamiltonianSchedule(h_env, (Segment(0.0, tau, h_sys, h_int),))
    knots = np.linspace(0.0, tau, 9)
    betas = rng.uniform(-1.0, 1.0) + 0.8 * np.sin(np.pi * knots / tau + rng.uniform(0, 6))
    policy = TabulatedBeta(tuple(knots), tuple(betas))
    initial = tensor_product(rand_density(rng, d_s), GibbsSolver(h_env).state(float(betas[0])))
    return rng, sched, policy, BipartiteState(d_s, d_e, initial.mat)


def _joint_form_oracle(initial, final, beta0, beta_tau, h_env):
    # Independent form: change of D(rho_SE || rho_S (x) gibbs(beta)), via logm.
    def div(state, beta):
        ref = np.kron(state.rho_sys.mat, GibbsSolver(h_env).state(beta).mat)
        return float(np.real(np.trace(state.mat @ (sla.logm(state.mat) - sla.logm(ref)))))

    return div(final, beta_tau) - div(initial, beta0)


def test_policy_validation():
    with pytest.raises(InvalidInput):
        ConstantBeta(math.inf)
    with pytest.raises(InvalidInput):
        ConstantBeta(float("nan"))
    with pytest.raises(InvalidInput):
        TabulatedBeta((0.0,), (1.0,))  # single knot
    with pytest.raises(InvalidInput):
        TabulatedBeta((0.0, 1.0, 0.5), (1.0, 2.0, 3.0))  # not increasing
    with pytest.raises(InvalidInput):
        TabulatedBeta((0.0, 1.0), (1.0, math.nan))
    pol = TabulatedBeta((0.0, 1.0, 2.0), (0.5, 1.5, 1.0))
    vals = pol.values(np.array([0.0, 0.5, 1.0, 2.0]))
    assert np.max(np.abs(vals - [0.5, 1.0, 1.5, 1.0])) < 1e-15


def test_policy_endpoints_and_grid():
    rng, sched, policy, initial = _ramp_setup(0)
    traj = evolve(initial, sched, steps_per_segment=20)
    b0, btau = policy_endpoints(policy, traj)
    assert abs(b0 - policy.betas[0]) < 1e-15
    assert abs(btau - policy.betas[-1]) < 1e-15
    grid = policy_grid_betas(policy, traj)
    assert grid.shape == traj.times.shape
    const = ConstantBeta(0.7)
    assert policy_endpoints(const, traj) == (0.7, 0.7)
    assert np.all(policy_grid_betas(const, traj) == 0.7)
    em0, emtau = policy_endpoints(EnergyMatching(), traj)
    assert abs(em0 - traj.beta_star[0]) < 1e-15
    assert abs(emtau - traj.beta_star[-1]) < 1e-15


def test_policy_span_must_cover_trajectory():
    rng, sched, policy, initial = _ramp_setup(1)
    traj = evolve(initial, sched, steps_per_segment=10)
    short = TabulatedBeta((0.0, 0.5), (0.3, 0.4))  # ends before tau = 1
    with pytest.raises(InvalidInput):
        policy_grid_betas(short, traj)
    with pytest.raises(InvalidInput):
        clausius_entropy_production(traj, short)


def test_entropy_production_matches_joint_form():
    # Implementation uses mutual information plus environment divergences;
    # oracle is the joint relative-entropy difference computed with logm.
    rng = np.random.default_rng(2)
    from qthermo.rand import rand_unitary

    for _ in range(10):
        h_env = rand_env_hamiltonian(rng, 3)
        initial = rand_bipartite(rng, 2, 3)
        u = rand_unitary(rng, 6).mat
        final = BipartiteState(2, 3, u @ initial.mat @ u.conj().T)
        b0, btau = rng.uniform(-2.0, 2.0, size=2)
        ours = entropy_production(initial, final, b0, btau, h_env)
        oracle = _joint_form_oracle(initial, final, b0, btau, h_env)
        assert abs(ours - oracle) < 1e-9


def test_entropy_production_zero_for_identity_process():
    rng = np.random.default_rng(3)
    h_env = rand_env_hamiltonian(rng, 3)
    state = rand_bipartite(rng, 2, 3)
    for beta in (-1.3, 0.0, 2.4):
        assert abs(entropy_production(state, state, beta, beta, h_env)) < 1e-12


def test_entropy_production_finite_on_wide_env_gap():
    # The bundled scenario with H_E scaled by 1e3: the Gibbs state's excited
    # level underflows, which once tripped the support test and gave inf.
    doc = json.loads(BUNDLED.read_text())
    doc["h_env"]["re"] = (1e3 * np.array(doc["h_env"]["re"])).tolist()
    result = run_scenario(parse_scenario(doc))
    traj, beta = result.trajectory, result.scenario.policy.beta
    w = np.linalg.eigvalsh(doc["h_env"]["re"])
    ln_z = -beta * w[0] + math.log(np.exp(-beta * (w - w[0])).sum())

    def divergence(state):
        # D(rho_E || gamma_beta) = -S(rho_E) + beta tr[rho_E H_E] + ln Z(beta)
        energy = np.trace(state.rho_env.mat @ np.diag(w)).real
        return -von_neumann_entropy(state.rho_env) + beta * energy + ln_z

    oracle = (mutual_information(traj.final) - mutual_information(traj.initial)
              + divergence(traj.final) - divergence(traj.initial))
    ep = result.report.entropy_production
    assert math.isfinite(ep) and ep > 0.0
    assert abs(ep - oracle) < 1e-12


def test_entropy_production_input_checks():
    rng = np.random.default_rng(4)
    h_env = rand_env_hamiltonian(rng, 3)
    a = rand_bipartite(rng, 2, 3)
    b = rand_bipartite(rng, 2, 2)
    with pytest.raises(InvalidInput):
        entropy_production(a, b, 1.0, 1.0, h_env)
    with pytest.raises(InvalidInput):
        entropy_production(a, a, math.inf, 1.0, h_env)
    with pytest.raises(InvalidInput):
        entropy_production(a, a, 1.0, 1.0, rand_env_hamiltonian(rng, 2))


def _json_matrix(rows):
    return {"dim": len(rows), "re": rows}


def _edge_doc(**fields):
    """The bundled scenario under energy matching, with ``fields`` replaced."""
    doc = json.loads(BUNDLED.read_text())
    doc.update(policy={"kind": "energy_matching"}, **fields)
    return doc


_MIXED_SYS = _json_matrix([[0.7, 0.2], [0.2, 0.3]])
_EXCHANGE_2X3 = np.zeros((6, 6))
_EXCHANGE_2X3[[2, 2], [3, 4]] = _EXCHANGE_2X3[[3, 4], [2, 2]] = 0.3  # |0,2> <-> |1,0>, |1,1>
_EDGE_DOCS = {
    # rho_S = |1><1| with the excited environment would be stationary.
    "ground": _edge_doc(initial={"kind": "product", "rho_sys": _MIXED_SYS,
                                 "rho_env": _json_matrix([[1.0, 0.0], [0.0, 0.0]])}),
    "excited": _edge_doc(initial={"kind": "product",
                                  "rho_sys": _json_matrix([[1.0, 0.0], [0.0, 0.0]]),
                                  "rho_env": _json_matrix([[0.0, 0.0], [0.0, 1.0]])}),
    # gamma(1) stores e^-1000 as 0, so the environment is the ground projector.
    "wide": _edge_doc(h_env=_json_matrix([[0.0, 0.0], [0.0, 1e3]])),
    # rho_E mixed inside a doubly degenerate ground level: S_G(+inf) = ln 2.
    "degenerate": _edge_doc(
        dims={"system": 2, "environment": 3},
        h_env=_json_matrix(np.diag([0.0, 0.0, 1.0]).tolist()),
        segments=[{"t_start": 0.0, "t_end": 6.0, "h_sys": _json_matrix([[0.0, 0.0], [0.0, 1.0]]),
                   "h_int": _json_matrix(_EXCHANGE_2X3.tolist())}],
        initial={"kind": "product", "rho_sys": _MIXED_SYS,
                 "rho_env": _json_matrix([[0.6, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.0]])}),
    # An offset spectrum: E rounds to the ground level, so beta* = +inf is
    # inexact.  The support rule gives D(rho_E || gamma(+inf)) = +inf at both
    # ends, so inf - inf; the energy-matched identity gives the matched values.
    "offset": _edge_doc(h_env=_json_matrix([[1e5, 0.0], [0.0, 1e5 + 1.0]]),
                        initial={"kind": "product",
                                 "rho_sys": _json_matrix([[1.0, 0.0], [0.0, 0.0]]),
                                 "rho_env": _json_matrix([[1.0 - 5e-12, 0.0], [0.0, 5e-12]])}),
}


@pytest.mark.parametrize("name, beta_star_0", [
    ("ground", math.inf), ("excited", -math.inf), ("wide", math.inf),
    ("degenerate", math.inf), ("offset", math.inf)])
def test_energy_matching_at_a_spectral_edge(name, beta_star_0, tmp_path):
    # beta*_0 = +-inf, and every entropy-production field takes its finite limit.
    doc = _EDGE_DOCS[name]
    source = tmp_path / "edge.json"
    source.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--scenario", str(source), "--out", str(tmp_path)]) == 0
        result = run_scenario(parse_scenario(doc))
    report = json.loads((tmp_path / f"{doc['name']}_report.json").read_text())["report"]
    assert report["beta_star_0"] == report["beta_0"] == beta_star_0
    assert all(math.isfinite(v) for k, v in report.items() if not k.startswith("beta"))
    assert abs(report["entropy_production"] - report["matched_entropy_production"]) <= 1e-12
    assert report["residual_split"] <= 1e-12
    assert report["residual_matched_split"] <= 1e-12
    traj, policy = result.trajectory, result.scenario.policy
    assert result.report.to_dict() == report
    assert clausius_entropy_production(traj, policy) == report["clausius_entropy_production"]
    assert temperature_drift_correction(traj, policy) == report["temperature_drift_correction"]
    assert matched_entropy_production(traj) == report["matched_entropy_production"]


def test_degenerate_edge_divergence_is_ln_g_minus_the_entropy():
    # D(rho_E || gamma(+inf)) = ln 2 - S(rho_E) at t = 0; the final term at a
    # finite beta* is the log-partition form of the public solver.
    result = run_scenario(parse_scenario(_EDGE_DOCS["degenerate"]))
    traj, report = result.trajectory, result.report
    solver = GibbsSolver(result.scenario.schedule.h_env)
    d_tau = solver.relative_entropy_profile(traj.final.rho_env,
                                            np.array([report.beta_star_tau]))[0]
    d_0 = math.log(2.0) - von_neumann_entropy(traj.initial.rho_env)
    oracle = mutual_information(traj.final) - mutual_information(traj.initial) + d_tau - d_0
    assert abs(report.entropy_production - oracle) <= 1e-12


def test_constant_policy_closed_form():
    # With a fixed beta the integral collapses to beta * (energy change).
    rng, sched, _, initial = _ramp_setup(5)
    traj = evolve(initial, sched, steps_per_segment=40)
    policy = ConstantBeta(0.9)
    cl = clausius_entropy_production(traj, policy)
    ds = (von_neumann_entropy(traj.final.rho_sys)
          - von_neumann_entropy(traj.initial.rho_sys))
    oracle = ds + 0.9 * (traj.env_energy[-1] - traj.env_energy[0])
    assert abs(cl - oracle) < 1e-13
    assert temperature_drift_correction(traj, policy) == 0.0
    # endpoint identity: the full value equals the closed form exactly
    ep = entropy_production(traj.initial, traj.final, 0.9, 0.9, sched.h_env)
    assert abs(ep - oracle) < 1e-10


def test_split_residual_shrinks_with_steps():
    rng, sched, policy, initial = _ramp_setup(6)
    residuals = []
    for steps in (250, 500, 1000):
        traj = evolve(initial, sched, steps_per_segment=steps)
        ep = entropy_production(traj.initial, traj.final,
                                *policy_endpoints(policy, traj), sched.h_env)
        cl = clausius_entropy_production(traj, policy)
        drift = temperature_drift_correction(traj, policy)
        residuals.append(abs(ep - cl - drift))
    assert residuals[-1] < 1e-6
    # trapezoid quadrature converges at second order
    assert residuals[0] > residuals[-1]
    assert residuals[0] / residuals[-1] > 8


def test_tabulated_report_evaluates_the_beta_grid_once(monkeypatch):
    rng, sched, policy, initial = _ramp_setup(8)
    traj = evolve(initial, sched, steps_per_segment=40)
    expected = (policy_endpoints(policy, traj), clausius_entropy_production(traj, policy),
                temperature_drift_correction(traj, policy))
    calls = []
    module = importlib.import_module("qthermo.entropy_production")

    def counting(policy, traj):
        calls.append(policy)
        return policy_grid_betas(policy, traj)

    monkeypatch.setattr(module, "policy_grid_betas", counting)
    rep = build_report(traj, policy)
    assert calls == [policy]
    assert ((rep.beta_0, rep.beta_tau), rep.clausius_entropy_production,
            rep.temperature_drift_correction) == expected


def test_energy_matching_drift_is_exactly_zero(monkeypatch):
    rng, sched, _, initial = _ramp_setup(7)
    traj = evolve(initial, sched, steps_per_segment=30)

    def no_energy(self, beta):
        raise AssertionError("the drift read a thermal energy")

    monkeypatch.setattr(GibbsSolver, "energy", no_energy)
    assert temperature_drift_correction(traj, EnergyMatching()) == 0.0
    assert "beta_star" not in vars(traj)  # nor the beta* grid


@pytest.mark.parametrize("kind", ["constant", "tabulated", "energy_matching"])
def test_run_scenario_solves_the_beta_star_grid_only_when_read(monkeypatch, kind):
    policy = {"constant": {"kind": "constant", "beta": 1.0},
              "tabulated": {"kind": "tabulated", "times": [0.0, 6.0], "betas": [1.0, 0.5]},
              "energy_matching": {"kind": "energy_matching"}}[kind]
    sc = parse_scenario(dict(json.loads(BUNDLED.read_text()), policy=policy))
    sizes = []
    solve = GibbsSolver.solve_beta_many

    def counting(self, energies, *args, **kwargs):
        sizes.append(np.size(energies))
        return solve(self, energies, *args, **kwargs)

    monkeypatch.setattr(GibbsSolver, "solve_beta_many", counting)
    result = run_scenario(sc)
    grid = len(result.trajectory) - 2
    # One-target float-path solves remain: the endpoint pair, whose beta*_0 the
    # bounds read back from the initial marginal's cache.
    # No report reads the grid: energy matching takes its heat in closed form.
    assert sizes.count(1) == 2
    assert sizes.count(grid) == 0
    assert len(sizes) == 2


@pytest.mark.parametrize("initial", ["product", "correlated"])
@pytest.mark.parametrize("kind", ["constant", "tabulated", "energy_matching"])
def test_report_and_bounds_equal_the_one_quantity_functions(kind, initial):
    # The report and the bounds read one endpoint pass (stacked thermal rows,
    # beta*_0 cached by evolve); each field equals, bit for bit, a form that
    # does not go through build_report.  The public calls get fresh copies of
    # the endpoint states, so their beta* is solved again, not read from
    # evolve's cache.
    policy = {"constant": {"kind": "constant", "beta": 1.0},
              "tabulated": {"kind": "tabulated", "times": [0.0, 6.0], "betas": [1.0, 0.5]},
              "energy_matching": {"kind": "energy_matching"}}[kind]
    sc = parse_scenario(dict(json.loads(BUNDLED.read_text()), policy=policy))
    if initial == "correlated":
        sc = dataclasses.replace(sc, initial=rand_bipartite(np.random.default_rng(4), 2, 2))
    result = run_scenario(sc)
    traj, h_env, solver, s = result.trajectory, sc.schedule.h_env, sc.schedule.gibbs, \
        von_neumann_entropy
    ini, fin = (BipartiteState(x.d_s, x.d_e, x.state) for x in (traj.initial, traj.final))
    beta0, beta_tau = policy_endpoints(sc.policy, traj)
    bs0, bs_tau = (effective_beta(x.rho_env, h_env) for x in (ini, fin))
    heat, drift = 0.0, 0.0
    if kind == "constant":
        heat = sc.policy.beta * (traj.env_energy_ends[1] - traj.env_energy_ends[0])
    elif kind == "energy_matching":
        heat = solver.entropy(bs_tau) - solver.entropy(bs0)
    else:
        betas = policy_grid_betas(sc.policy, traj)
        for sl, rates in zip(traj.segment_slices, traj.segment_rates):
            heat += float(np.trapezoid(betas[sl] * rates, traj.times[sl]))
        mismatch = traj.env_energy - solver.energy(betas)
        drift = float((np.diff(betas) * 0.5 * (mismatch[:-1] + mismatch[1:])).sum())
    want = {
        "entropy_production": entropy_production(ini, fin, beta0, beta_tau, h_env),
        "clausius_entropy_production": s(fin.rho_sys) - s(ini.rho_sys) + heat,
        "temperature_drift_correction": drift,
        "gibbs_mismatch_initial": solver.gibbs_relative_entropy(bs0, beta0),
        "gibbs_mismatch_final": solver.gibbs_relative_entropy(bs_tau, beta_tau),
        "mutual_info_change": mutual_information(fin) - mutual_information(ini),
        "system_entropy_change": s(fin.rho_sys) - s(ini.rho_sys),
        "env_entropy_change": s(fin.rho_env) - s(ini.rho_env),
        "gibbs_entropy_change": ((solver.entropy(bs_tau) - s(fin.rho_env))
                                 - (solver.entropy(bs0) - s(ini.rho_env))),
        "beta_0": beta0, "beta_tau": beta_tau, "beta_star_0": bs0, "beta_star_tau": bs_tau,
    }
    want["matched_entropy_production"] = (want["system_entropy_change"]
                                          + want["env_entropy_change"]
                                          + want["gibbs_entropy_change"])
    ep, cl, matched = (want[k] for k in ("entropy_production", "clausius_entropy_production",
                                         "matched_entropy_production"))
    want["residual_split"] = abs(ep - cl - want["temperature_drift_correction"])
    want["residual_matched_split"] = abs(ep - matched - want["gibbs_mismatch_final"]
                                         + want["gibbs_mismatch_initial"])
    assert result.report.to_dict() == want
    assert (clausius_entropy_production(traj, sc.policy),
            temperature_drift_correction(traj, sc.policy),
            matched_entropy_production(traj)) == (want["clausius_entropy_production"],
                                                  want["temperature_drift_correction"],
                                                  want["matched_entropy_production"])
    product = is_product_state(ini)
    assert product == (initial == "product")
    assert result.bounds.to_dict() == {
        "beta_star": bs0,
        "distance_to_reference": distance_to_reference(ini, h_env),
        "entropy_gap_bound": entropy_gap_bound(ini, h_env),
        "trace_distance_bound": trace_distance_bound(ini, h_env),
        "product_trace_distance_bound":
            product_trace_distance_bound(ini.rho_sys, ini.rho_env, h_env) if product else None,
        "is_product": product,
    }


@pytest.mark.parametrize("kind", ["constant", "energy_matching"])
def test_endpoint_policies_read_no_grid_observable(monkeypatch, kind):
    policy = {"constant": {"kind": "constant", "beta": 1.0},
              "energy_matching": {"kind": "energy_matching"}}[kind]
    sc = parse_scenario(dict(json.loads(BUNDLED.read_text()), policy=policy))
    solve = GibbsSolver.solve_beta_many

    def endpoint_only(self, energies):
        if np.size(energies) > 1:
            raise AssertionError("a report solved the beta* grid")
        return solve(self, energies)

    def no_expectations(self, ops):
        raise AssertionError("a report read a grid observable")

    monkeypatch.setattr(GibbsSolver, "solve_beta_many", endpoint_only)
    monkeypatch.setattr(_Eigenframe, "expectations", no_expectations)
    traj = run_scenario(sc).trajectory
    assert "_observables" not in vars(traj) and "beta_star" not in vars(traj)


@pytest.mark.parametrize("driven", [False, True])
def test_energy_matching_heat_is_the_gibbs_entropy_change(driven):
    # dS_G = beta dE_G along the thermal family, so at beta* the heat integral
    # is S_G(beta*_tau) - S_G(beta*_0) and the Clausius form is the matched one.
    rng, sched, _, initial = _ramp_setup(12, d_e=3)
    if driven:
        seg = sched.segments[0]
        drive = rand_hermitian(rng, seg.h_int.dim, scale=0.3).mat

        def h_int(t):
            return HermitianMatrix(seg.h_int.mat + np.sin(2.1 * t) * drive)

        sched = HamiltonianSchedule(sched.h_env, (Segment(0.0, 1.0, seg.h_sys, h_int),
                                                  Segment(1.0, 1.5, seg.h_sys, seg.h_int)))
    traj = evolve(initial, sched, steps_per_segment=40)
    report = build_report(traj, EnergyMatching())
    assert abs(report.clausius_entropy_production
               - report.matched_entropy_production) <= 1e-12
    assert report.residual_split <= 1e-12
    assert clausius_entropy_production(traj, EnergyMatching()) \
        == report.clausius_entropy_production


def test_beta_star_grid_is_lazy_and_equals_the_eager_solve():
    rng, sched, _, initial = _ramp_setup(11, d_e=3)
    traj = evolve(initial, sched, steps_per_segment=30)
    assert "beta_star" not in vars(traj)
    gibbs = sched.gibbs
    eager = np.concatenate([traj.beta_star_ends[:1],
                            gibbs.solve_beta_many(traj.env_energy[1:-1]),
                            traj.beta_star_ends[1:]])
    grid = traj.beta_star
    assert grid.tolist() == eager.tolist()
    assert traj.beta_star is grid
    assert not grid.flags.writeable
    with pytest.raises(AttributeError):
        traj.beta_star = eager


def test_matched_value_equals_endpoint_form():
    rng, sched, _, initial = _ramp_setup(8)
    traj = evolve(initial, sched, steps_per_segment=30)
    matched = matched_entropy_production(traj)
    ep = entropy_production(traj.initial, traj.final,
                            traj.beta_star[0], traj.beta_star[-1], sched.h_env)
    assert abs(matched - ep) < 1e-10


def test_matched_value_is_grid_minimum():
    # Scanning the final reference temperature shows the matched choice wins.
    rng, sched, _, initial = _ramp_setup(9)
    traj = evolve(initial, sched, steps_per_segment=30)
    solver = GibbsSolver(sched.h_env)
    matched = matched_entropy_production(traj)
    b0 = traj.beta_star[0]
    grid = traj.beta_star[-1] + np.linspace(-2.0, 2.0, 201)
    values = (mutual_information(traj.final) - mutual_information(traj.initial)
              + solver.relative_entropy_profile(traj.final.rho_env, grid)
              - solver.relative_entropy_profile(traj.initial.rho_env, np.array([b0]))[0])
    assert np.min(values) >= matched - 1e-10
    assert abs(np.argmin(values) - 100) <= 1


def test_build_report_consistency():
    rng, sched, policy, initial = _ramp_setup(10)
    traj = evolve(initial, sched, steps_per_segment=1000)
    report = build_report(traj, policy)
    assert report.residual_split < 1e-6
    assert report.residual_matched_split < 1e-9
    assert abs(report.beta_0 - policy.betas[0]) < 1e-15
    assert abs(report.beta_star_0 - traj.beta_star[0]) < 1e-15
    mi = mutual_information(traj.final) - mutual_information(traj.initial)
    assert abs(report.mutual_info_change - mi) < 1e-12
    ds = (von_neumann_entropy(traj.final.rho_sys)
          - von_neumann_entropy(traj.initial.rho_sys))
    assert abs(report.system_entropy_change - ds) < 1e-12
    d = report.to_dict()
    assert tuple(d.keys()) == report.FIELDS
    assert d["entropy_production"] == report.entropy_production


def test_report_matched_split_identity():
    # entropy_production = matched + final Gibbs mismatch - initial mismatch
    rng, sched, policy, initial = _ramp_setup(11)
    traj = evolve(initial, sched, steps_per_segment=50)
    report = build_report(traj, policy)
    lhs = report.entropy_production
    rhs = (report.matched_entropy_production + report.gibbs_mismatch_final
           - report.gibbs_mismatch_initial)
    assert abs(lhs - rhs) < 1e-10
    assert report.gibbs_mismatch_initial >= -1e-12
    assert report.gibbs_mismatch_final >= -1e-12


def test_rate_mismatch_term_zero_cases():
    rng, sched, policy, initial = _ramp_setup(12)
    traj = evolve(initial, sched, steps_per_segment=20)
    k = 10
    state = traj.state(k)
    h_tot = HermitianMatrix(sched.total_hamiltonian(traj.times[k]))
    base = entropy_production_rate(state, h_tot, sched.h_env,
                                   beta=0.4, beta_dot=0.0)
    ds_plus_heat = entropy_production_rate(state, h_tot, sched.h_env,
                                           beta=0.4, beta_dot=7.0,
                                           ) - 7.0 * 0.0
    # beta at the effective value: mismatch term drops regardless of beta_dot
    from qthermo import effective_beta

    bstar = effective_beta(state.rho_env, sched.h_env)
    at_star = entropy_production_rate(state, h_tot, sched.h_env,
                                      beta=bstar, beta_dot=7.0)
    ref = entropy_production_rate(state, h_tot, sched.h_env,
                                  beta=bstar, beta_dot=0.0)
    assert at_star == ref
    assert math.isfinite(base) and math.isfinite(ds_plus_heat)


def test_rate_matches_divergence_derivative():
    # d/dt D(rho(t) || rho_S(t) (x) gibbs(beta_t)) by outer finite difference.
    rng, sched, policy, initial = _ramp_setup(13)
    traj = evolve(initial, sched, steps_per_segment=1000)
    k = int(np.argmin(np.abs(traj.times - 0.546)))
    t = float(traj.times[k])
    state = traj.state(k)
    h_tot = HermitianMatrix(sched.total_hamiltonian(t))
    hb = 1e-6
    beta_t = float(policy.values(np.array([t]))[0])
    beta_dot = float((policy.values(np.array([t + hb]))[0]
                      - policy.values(np.array([t - hb]))[0]) / (2 * hb))
    rate = entropy_production_rate(state, h_tot, sched.h_env, beta_t, beta_dot)

    def div_at(dt):
        u = sla.expm(-1j * h_tot.mat * dt)
        moved = BipartiteState(2, 2, u @ state.mat @ u.conj().T)
        beta = float(policy.values(np.array([t + dt]))[0])
        ref = np.kron(moved.rho_sys.mat,
                      GibbsSolver(sched.h_env).state(beta).mat)
        return float(np.real(np.trace(
            moved.mat @ (sla.logm(moved.mat) - sla.logm(ref)))))

    h = 1e-4
    fd = (div_at(h) - div_at(-h)) / (2 * h)
    assert abs(rate - fd) < 1e-5


def test_rate_input_checks():
    rng, sched, policy, initial = _ramp_setup(14)
    traj = evolve(initial, sched, steps_per_segment=10)
    state = traj.state(5)
    h_tot = HermitianMatrix(sched.total_hamiltonian(traj.times[5]))
    with pytest.raises(InvalidInput):
        entropy_production_rate(state, h_tot, sched.h_env, math.inf, 0.0)


def test_rate_is_finite_at_a_spectral_edge():
    # rho_E = |0><0| has beta* = +inf; the mismatch term is
    # beta_dot (E_t - E(beta)) there, where it used to raise.
    sched = parse_scenario(json.loads(BUNDLED.read_text())).schedule
    h_tot = HermitianMatrix(sched.total_hamiltonian(0.0))
    state = BipartiteState(2, 2, np.diag([0.0, 0.0, 1.0, 0.0]))  # |1><1| x |0><0|
    frozen = entropy_production_rate(state, h_tot, sched.h_env, 1.0, 0.0)
    moving = entropy_production_rate(state, h_tot, sched.h_env, 1.0, -0.1)
    assert moving == frozen - 0.1 * (0.0 - GibbsSolver(sched.h_env).energy(1.0))
    assert moving == 0.026894142136999512


def _rho_sys_dot(state, h):
    """tr_E(-i[H, rho]) by an explicit loop over the environment index."""
    c = (-1j * (h @ state.mat - state.mat @ h)).reshape(state.d_s, state.d_e,
                                                        state.d_s, state.d_e)
    return sum(c[:, e, :, e] for e in range(state.d_e))


def test_rate_is_the_generator_closed_form_on_full_rank_states():
    # At beta_dot = 0: -tr[rho_S' logm(rho_S)] + beta d/dt tr[rho_E H_E].
    rng = np.random.default_rng(41)
    for d_s, d_e in [(2, 2), (2, 3), (3, 4)] * 4:
        state = rand_bipartite(rng, d_s, d_e)
        h_tot = rand_hermitian(rng, d_s * d_e)
        h_env = rand_env_hamiltonian(rng, d_e)
        beta = float(rng.uniform(-2.0, 2.0))
        ds_dt = -np.trace(_rho_sys_dot(state, h_tot.mat) @ sla.logm(state.rho_sys.mat)).real
        oracle = ds_dt + beta * env_energy_rate(state, h_tot, h_env)
        rate = entropy_production_rate(state, h_tot, h_env, beta, 0.0)
        assert abs(rate - oracle) < 1e-13, (d_s, d_e)


def test_rate_vanishes_for_a_pure_system_in_a_product():
    # S_S stays 0 to first order from a pure rho_S, so at beta = 0 the
    # rate, which is then dS_S/dt, is zero.
    rng = np.random.default_rng(42)
    for d_s, d_e in [(2, 2), (2, 3), (3, 4)] * 4:
        state = BipartiteState._product(rand_density(rng, d_s, rank=1), rand_density(rng, d_e))
        h_tot = rand_hermitian(rng, d_s * d_e)
        rate = entropy_production_rate(state, h_tot, rand_env_hamiltonian(rng, d_e), 0.0, 0.0)
        assert abs(rate) < 1e-14, (d_s, d_e)


def test_rate_is_exact_for_a_rank_deficient_correlated_system():
    # rho on span{|0>, |1>} x C^d_e with d_s = 3: rho_S has a kernel, whose
    # block of rho_S' vanishes, so dS_S/dt is the closed form on the support.
    rng = np.random.default_rng(43)
    for d_e in (2, 3, 4):
        mat = np.zeros((3 * d_e, 3 * d_e), dtype=complex)
        mat[:2 * d_e, :2 * d_e] = rand_density(rng, 2 * d_e).mat
        state = BipartiteState(3, d_e, mat)
        h_tot = rand_hermitian(rng, 3 * d_e)
        h_env = rand_env_hamiltonian(rng, d_e)
        beta = float(rng.uniform(-2.0, 2.0))
        rho_dot = _rho_sys_dot(state, h_tot.mat)
        assert abs(rho_dot[2, 2]) <= 1e-15
        ds_dt = -np.trace(rho_dot[:2, :2] @ sla.logm(state.rho_sys.mat[:2, :2])).real
        rate = entropy_production_rate(state, h_tot, h_env, beta, 0.0)
        assert math.isfinite(rate)
        assert abs(rate - (ds_dt + beta * env_energy_rate(state, h_tot, h_env))) < 1e-13, d_e


def test_rate_heat_term_equals_env_energy_rate():
    # At beta_dot = 0 the rate is dS_S/dt + beta dE_E/dt, so the rates at
    # beta = 1 and beta = 0 differ by the heat term alone.
    rng = np.random.default_rng(44)
    for d_s, d_e in [(2, 3), (3, 4)] * 6:
        state = rand_bipartite(rng, d_s, d_e)
        h_tot = rand_hermitian(rng, d_s * d_e)
        h_env = rand_env_hamiltonian(rng, d_e)
        heat = (entropy_production_rate(state, h_tot, h_env, 1.0, 0.0)
                - entropy_production_rate(state, h_tot, h_env, 0.0, 0.0))
        assert abs(heat - env_energy_rate(state, h_tot, h_env)) < 1e-14, (d_s, d_e)


@pytest.mark.parametrize("h_total, h_env", [
    (np.eye(6), HermitianMatrix(np.diag([0.0, 1.0]))),
    (np.eye(4), HermitianMatrix(np.diag([0.0, 1.0, 2.0]))),
], ids=["h_total", "h_env"])
def test_rate_rejects_mismatched_hamiltonians(h_total, h_env):
    with pytest.raises(InvalidInput):
        entropy_production_rate(BipartiteState(2, 2, np.eye(4) / 4), h_total, h_env, 1.0, 0.0)


_QUBIT = HermitianMatrix(np.diag([0.0, 1.0]))
_COUPLING = HermitianMatrix(np.eye(4))
_MIXED = BipartiteState(2, 2, np.eye(4) / 4)
_HALF = DensityMatrix(np.eye(2) / 2)


@pytest.mark.parametrize("call", [
    lambda: ConstantBeta("x"),
    lambda: ConstantBeta(None),
    lambda: Segment("x", 1.0, _QUBIT, _COUPLING),
    lambda: Segment(None, 1.0, _QUBIT, _COUPLING),
    lambda: entropy_production(_MIXED, _MIXED, "x", 1.0, _QUBIT),
    lambda: sufficient_nonneg_general(_MIXED, "x", _MIXED, 1.0, _QUBIT),
    lambda: sufficient_nonneg_product(_HALF, 1.0, _HALF, _HALF, "x", _QUBIT),
    lambda: entropy_production_rate(_MIXED, _COUPLING, _QUBIT, "x", 0.0),
    lambda: entropy_production_rate(_MIXED, _COUPLING, _QUBIT, 1.0, "x"),
    lambda: GibbsSolver(_QUBIT).solve_beta("x"),
    lambda: GibbsSolver(_QUBIT).solve_beta_many(["x"]),
], ids=["constant-str", "constant-none", "segment-str", "segment-none", "production",
        "general", "product", "rate-beta", "rate-beta-dot", "solve-beta", "solve-beta-many"])
def test_non_numeric_scalars_raise_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()
