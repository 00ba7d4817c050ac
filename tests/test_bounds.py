"""Tests for the lower bounds, sufficiency checks, and perturbed initials."""

import math

import numpy as np
import pytest

from qthermo import (
    BipartiteState,
    DensityMatrix,
    DomainError,
    GibbsSolver,
    HamiltonianSchedule,
    HermitianMatrix,
    InvalidPerturbation,
    Segment,
    binary_entropy,
    build_bound_report,
    distance_to_reference,
    effective_beta,
    entropy_gap_bound,
    entropy_production,
    evolve,
    is_product_state,
    make_perturbed_initial,
    matched_entropy_production,
    mutual_information,
    product_trace_distance_bound,
    relative_entropy,
    sufficient_nonneg_general,
    sufficient_nonneg_product,
    tensor_product,
    trace_distance,
    trace_distance_bound,
    von_neumann_entropy,
)
from qthermo.rand import (
    rand_bipartite,
    rand_density,
    rand_env_hamiltonian,
    rand_hermitian,
    rand_product,
    rand_unitary,
)
from qthermo.bounds import (
    _continuity_bound,
    _entropy_gap,
    _product_bound,
    _reference_distance,
    _sufficient_general,
    _sufficient_product,
)
from qthermo.entropy_production import _entropy_production, _matched_entropy_form
from qthermo.thermo import _beta_star, _bipartite, _gibbs, _gibbs_entropy, _gibbs_states


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - math.log(2)) < 1e-15
    assert abs(binary_entropy(0.15) - 0.42270908780599087) < 1e-15
    assert abs(binary_entropy(0.3) - binary_entropy(0.7)) < 1e-15
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_entropy_gap_identity():
    # gap = -(mutual information + divergence of the env marginal from its
    # energy-matched thermal state), checked term by term.
    rng = np.random.default_rng(0)
    for _ in range(20):
        h_env = rand_env_hamiltonian(rng, 3)
        state = rand_bipartite(rng, 2, 3)
        gap = entropy_gap_bound(state, h_env)
        bstar = effective_beta(state.rho_env, h_env)
        div = relative_entropy(state.rho_env, GibbsSolver(h_env).state(bstar))
        assert abs(gap + mutual_information(state) + div) < 1e-9
        assert gap < 1e-12  # never positive


def test_entropy_gap_zero_on_thermal_product():
    rng = np.random.default_rng(1)
    h_env = rand_env_hamiltonian(rng, 4)
    state = tensor_product(rand_density(rng, 2), GibbsSolver(h_env).state(0.7))
    gap = entropy_gap_bound(BipartiteState(2, 4, state.mat), h_env)
    assert abs(gap) < 1e-10


def test_distance_to_reference_manual():
    rng = np.random.default_rng(2)
    for _ in range(10):
        h_env = rand_env_hamiltonian(rng, 3)
        state = rand_bipartite(rng, 2, 3)
        d = distance_to_reference(state, h_env)
        bstar = effective_beta(state.rho_env, h_env)
        ref = tensor_product(state.rho_sys, GibbsSolver(h_env).state(bstar))
        oracle = trace_distance(state.state, DensityMatrix(ref.mat))
        assert abs(d - oracle) < 1e-12


def test_bound_chain_ordering():
    # entropy gap >= trace-distance bound on any state; the product form
    # sits between them on product states.
    rng = np.random.default_rng(3)
    for i in range(40):
        h_env = rand_env_hamiltonian(rng, 3)
        if i % 2 == 0:
            state = rand_bipartite(rng, 2, 3)
        else:
            state = rand_product(rng, 2, 3)
        gap = entropy_gap_bound(state, h_env)
        tdb = trace_distance_bound(state, h_env)
        assert gap >= tdb - 1e-9
        if i % 2 == 1:
            prod = product_trace_distance_bound(state.rho_sys, state.rho_env, h_env)
            assert gap >= prod - 1e-9
            assert prod >= tdb - 1e-9


def test_matched_production_dominates_entropy_gap():
    # The endpoint-matched production of any unitary process is bounded
    # below by the initial state's entropy gap.
    rng = np.random.default_rng(4)
    for seed in range(8):
        srng = np.random.default_rng(seed)
        h_sys = rand_hermitian(srng, 2, scale=0.4)
        h_env = rand_env_hamiltonian(srng, 2, spread=1.2)
        h_int = rand_hermitian(srng, 4, scale=0.5)
        sched = HamiltonianSchedule(h_env, (Segment(0.0, 1.0, h_sys, h_int),))
        initial = rand_bipartite(srng, 2, 2)
        traj = evolve(initial, sched, steps_per_segment=40)
        matched = matched_entropy_production(traj)
        gap = entropy_gap_bound(initial, h_env)
        assert matched >= gap - 1e-9


def test_fannes_audenaert_on_reference_pair():
    # |S(rho) - S(ref)| <= t ln(d-1) + H2(t) with t the trace distance.
    rng = np.random.default_rng(5)
    for _ in range(30):
        h_env = rand_env_hamiltonian(rng, 3)
        state = rand_bipartite(rng, 2, 3)
        bstar = effective_beta(state.rho_env, h_env)
        ref = tensor_product(state.rho_sys, GibbsSolver(h_env).state(bstar))
        t = trace_distance(state.state, DensityMatrix(ref.mat))
        lhs = abs(von_neumann_entropy(state.state) - von_neumann_entropy(DensityMatrix(ref.mat)))
        rhs = t * math.log(state.dim - 1) + binary_entropy(t)
        assert lhs <= rhs + 1e-12


def test_pinsker_on_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = rand_density(rng, 4)
        b = rand_density(rng, 4)
        assert relative_entropy(a, b) >= 2.0 * trace_distance(a, b) ** 2 - 1e-12


def test_sufficiency_check_is_sound():
    # holds=True must never accompany negative entropy production.
    rng = np.random.default_rng(7)
    n_holds = 0
    for i in range(120):
        h_env = rand_env_hamiltonian(rng, 2)
        beta0, beta_tau = rng.uniform(-1.5, 1.5, size=2)
        if i % 2 == 0:
            initial = BipartiteState(2, 2, tensor_product(
                rand_density(rng, 2), GibbsSolver(h_env).state(beta0)).mat)
        else:
            initial = rand_bipartite(rng, 2, 2)
        u = rand_unitary(rng, 4).mat
        final = BipartiteState(2, 2, u @ initial.mat @ u.conj().T)
        check = sufficient_nonneg_general(final, beta_tau, initial, beta0, h_env)
        assert check.lhs >= -1e-15 and math.isfinite(check.rhs)
        if check.holds:
            n_holds += 1
            ep = entropy_production(initial, final, beta0, beta_tau, h_env)
            assert ep >= -1e-9
    assert n_holds > 10  # the certificate fires on a healthy fraction


def test_sufficiency_product_variant_sound():
    rng = np.random.default_rng(8)
    n_holds = 0
    for _ in range(120):
        h_env = rand_env_hamiltonian(rng, 3)
        beta0, beta_tau = rng.uniform(-1.5, 1.5, size=2)
        rho_s = rand_density(rng, 2)
        thermal = GibbsSolver(h_env).state(beta0)
        rho_e = DensityMatrix(0.97 * thermal.mat + 0.03 * rand_density(rng, 3).mat)
        initial = BipartiteState(2, 3, tensor_product(rho_s, rho_e).mat)
        u = rand_unitary(rng, 6).mat
        final = BipartiteState(2, 3, u @ initial.mat @ u.conj().T)
        check = sufficient_nonneg_product(final.rho_env, beta_tau, rho_s, rho_e,
                                          beta0, h_env)
        if check.holds:
            n_holds += 1
            ep = entropy_production(initial, final, beta0, beta_tau, h_env)
            assert ep >= -1e-9
    assert n_holds > 5


def test_make_perturbed_initial_valid():
    # chi = A (x) B with both factors traceless keeps the marginals intact.
    rng = np.random.default_rng(9)
    h_env = rand_env_hamiltonian(rng, 3)
    rho_s = rand_density(rng, 2)
    beta = 0.8
    a = rand_hermitian(rng, 2).mat
    a = a - np.trace(a) * np.eye(2) / 2
    b = rand_hermitian(rng, 3).mat
    b = b - np.trace(b) * np.eye(3) / 3
    chi = 0.01 * np.kron(a, b)
    perturbed = make_perturbed_initial(rho_s, beta, chi, h_env)
    assert abs(perturbed.beta - beta) < 1e-15
    # the env marginal keeps its thermal energy, so the effective value stays
    bstar = effective_beta(perturbed.state.rho_env, h_env)
    assert abs(bstar - beta) < 1e-9
    delta = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(chi)))
    assert abs(perturbed.distance_to_reference - delta) < 1e-14
    d = trace_distance(perturbed.state.state, perturbed.reference.state)
    assert abs(d - delta) < 1e-12


def test_make_perturbed_initial_rejects_bad_chi():
    rng = np.random.default_rng(10)
    h_env = rand_env_hamiltonian(rng, 3)
    rho_s = rand_density(rng, 2)
    # nonzero system marginal: tr_E chi = tr(B) A != 0
    a = np.diag([1.0, -1.0])
    b = np.eye(3)
    with pytest.raises(InvalidPerturbation):
        make_perturbed_initial(rho_s, 0.5, 0.01 * np.kron(a, b), h_env)
    # env marginal with diagonal weight in the energy eigenbasis
    evecs = np.linalg.eigh(h_env.mat)[1]
    proj = np.outer(evecs[:, 0], evecs[:, 0].conj())
    bad_env = proj - np.eye(3) / 3
    with pytest.raises(InvalidPerturbation):
        make_perturbed_initial(rho_s, 0.5, 0.01 * np.kron(np.eye(2), bad_env), h_env)
    # perturbation so large the state leaves the positive cone
    a2 = rand_hermitian(rng, 2).mat
    a2 = a2 - np.trace(a2) * np.eye(2) / 2
    b2 = rand_hermitian(rng, 3).mat
    b2 = b2 - np.trace(b2) * np.eye(3) / 3
    with pytest.raises(InvalidPerturbation):
        make_perturbed_initial(rho_s, 0.5, 50.0 * np.kron(a2, b2), h_env)


def test_is_product_state():
    rng = np.random.default_rng(11)
    prod = rand_product(rng, 2, 3)
    assert is_product_state(prod)
    corr = rand_bipartite(rng, 2, 3)
    assert not is_product_state(corr)


def test_build_bound_report():
    rng = np.random.default_rng(12)
    h_env = rand_env_hamiltonian(rng, 3)
    prod = rand_product(rng, 2, 3)
    rep = build_bound_report(prod, h_env)
    assert rep.is_product
    assert rep.product_trace_distance_bound is not None
    assert rep.entropy_gap_bound >= rep.trace_distance_bound - 1e-9
    assert abs(rep.beta_star - effective_beta(prod.rho_env, h_env)) < 1e-12
    d = rep.to_dict()
    assert d["is_product"] is True

    corr = rand_bipartite(rng, 2, 3)
    rep2 = build_bound_report(corr, h_env)
    assert not rep2.is_product
    assert rep2.product_trace_distance_bound is None
    assert rep2.distance_to_reference >= 0.0

    # One beta* per report, yet every field equals its standalone function.
    for state, report in ((prod, rep), (corr, rep2)):
        assert report.beta_star == effective_beta(state.rho_env, h_env)
        assert report.distance_to_reference == distance_to_reference(state, h_env)
        assert report.entropy_gap_bound == entropy_gap_bound(state, h_env)
        assert report.trace_distance_bound == trace_distance_bound(state, h_env)
    assert rep.product_trace_distance_bound == product_trace_distance_bound(
        prod.rho_sys, prod.rho_env, h_env)


def test_build_bound_report_solves_beta_star_once(monkeypatch):
    rng = np.random.default_rng(13)
    h_env = rand_env_hamiltonian(rng, 3)
    prod = rand_product(rng, 2, 3)
    calls = []
    solve = GibbsSolver.solve_beta_many

    def counting(self, energies, *args, **kwargs):
        calls.append(np.size(energies))
        return solve(self, energies, *args, **kwargs)

    monkeypatch.setattr(GibbsSolver, "solve_beta_many", counting)
    rep = build_bound_report(prod, h_env)
    assert rep.is_product
    assert calls == [1]


def test_stacked_bounds_match_one_state_calls():
    # Every row of a stacked form equals the public call on that row alone.
    rng = np.random.default_rng(31)
    d_s, d_e, n = 2, 3, 6
    h = [rand_env_hamiltonian(rng, d_e) for _ in range(n)]
    g = _gibbs(np.stack([m.mat for m in h]))
    initial = [rand_bipartite(rng, d_s, d_e) for _ in range(n)]
    final = [rand_bipartite(rng, d_s, d_e) for _ in range(n)]
    ini, fin = (_bipartite(np.stack([s.mat for s in x]), d_s, d_e) for x in (initial, final))
    beta0, beta_tau = rng.uniform(-2.0, 2.0, size=(2, n))
    bs0, bs1 = _beta_star(g, ini.rho_env.mat), _beta_star(g, fin.rho_env.mat)
    gamma = _gibbs_states(g, bs0)
    ep = _entropy_production(ini, fin, beta0, beta_tau, g)
    gap = _entropy_gap(ini, _gibbs_entropy(g, bs0))
    dist = _reference_distance(ini, gamma)
    bound = _continuity_bound(dist, d_s * d_e)
    prod = _product_bound(ini.rho_env.mat, gamma)
    general = _sufficient_general(fin, beta_tau, ini, beta0, g, bs0)
    product = _sufficient_product(fin.rho_env.mat, beta_tau, ini.rho_env.mat, beta0, g, bs0)
    matched = _matched_entropy_form(ini, fin, g, bs0, bs1)
    for k in range(n):
        a, b, hk = initial[k], final[k], h[k]
        assert ep[k] == entropy_production(a, b, beta0[k], beta_tau[k], hk)
        s = von_neumann_entropy
        gibbs = GibbsSolver(HermitianMatrix(g.h[k])).entropy
        assert matched[k] == ((s(b.rho_sys) - s(a.rho_sys)) + (s(b.rho_env) - s(a.rho_env))
                              + ((gibbs(bs1[k]) - s(b.rho_env)) - (gibbs(bs0[k]) - s(a.rho_env))))
        assert gap[k] == entropy_gap_bound(a, hk)
        assert dist[k] == distance_to_reference(a, hk)
        assert bound[k] == trace_distance_bound(a, hk)
        assert prod[k] == product_trace_distance_bound(a.rho_sys, a.rho_env, hk)
        check = sufficient_nonneg_general(b, beta_tau[k], a, beta0[k], hk)
        assert (check.lhs, check.rhs) == (general[0][k], general[1][k])
        check = sufficient_nonneg_product(b.rho_env, beta_tau[k], a.rho_sys, a.rho_env,
                                          beta0[k], hk)
        assert (check.lhs, check.rhs) == (product[0][k], product[1][k])
