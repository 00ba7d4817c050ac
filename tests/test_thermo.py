"""Tests for entropies, divergences, and the thermal-state solver."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from qthermo import (
    DensityMatrix,
    GibbsSolver,
    HermitianMatrix,
    InfeasibleEnergy,
    InvalidInput,
    build_bound_report,
    effective_beta,
    entropy_production,
    load_scenario,
    mutual_information,
    relative_entropy,
    run_scenario,
    tensor_product,
    von_neumann_entropy,
)
from qthermo.rand import (
    rand_bipartite,
    rand_density,
    rand_env_hamiltonian,
    rand_product,
    rand_unitary,
)
from qthermo.thermo import (
    _BETA_ABS_TOL,
    _BETA_CLAMP,
    EIG_ZERO_TOL,
    _beta_star,
    _bipartite,
    _edge_moments_many,
    _energy_variance,
    _entropy_from_eigs,
    _env_divergence,
    _gibbs,
    _gibbs_entropy,
    _gibbs_relative_entropy,
    _gibbs_states,
    _log_partition,
    _mutual_information,
    _populations,
    _relative_entropy,
    _solver,
    _states,
)


def test_entropy_special_values():
    pure = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
    assert von_neumann_entropy(pure) == 0.0
    mixed = DensityMatrix(np.eye(4) / 4)
    assert abs(von_neumann_entropy(mixed) - math.log(4)) < 1e-14


def test_entropy_fixed_oracle():
    # Eigenvalues 0.2 and 0.8 by construction; entropy computed by hand.
    rho = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    assert abs(von_neumann_entropy(rho) - 0.50040242353818787) < 1e-14


def test_entropy_clamps_eigenvalues_as_np_clip_does():
    # Eigenvalues are clamped to [0, 1] by min/max, which is cheaper than np.clip
    # and gives the same entropies bit for bit: on rounding negatives, exact 0
    # and 1, values above 1 and NaN, per row and as a stack.
    rng = np.random.default_rng(44)
    w = np.concatenate([
        [[-1e-17, 0.3, 0.7 + 1e-16], [0.0, 0.0, 1.0], [-0.0, 0.5, 0.5],
         [1.0 + 1e-15, -2e-16, 1e-15], [np.nan, 0.25, 0.75], [1e-14, 1e-13, 1.0 - 1e-13]],
        rng.dirichlet(np.ones(3), size=20) + rng.normal(scale=1e-16, size=(20, 3)),
    ])
    lam = np.clip(w, 0.0, 1.0)
    safe = np.where(lam > EIG_ZERO_TOL, lam, 1.0)
    want = -(safe * np.log(safe)).sum(axis=-1)
    assert np.array_equal(_entropy_from_eigs(w), want)
    assert [_entropy_from_eigs(row) for row in w] == want.tolist()


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(0)
    from qthermo.rand import rand_unitary

    for _ in range(10):
        rho = rand_density(rng, 4)
        u = rand_unitary(rng, 4).mat
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) < 1e-12


def test_relative_entropy_fixed_oracle():
    # Oracle computed with scipy.linalg.logm on the same pair.
    rho = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    sig = DensityMatrix(np.array([[0.5, 0.05j], [-0.05j, 0.5]]))
    assert abs(relative_entropy(rho, sig) - 0.21783699449472305) < 1e-13


def test_relative_entropy_against_logm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = rand_density(rng, 4)
        sig = rand_density(rng, 4)
        ours = relative_entropy(rho, sig)
        oracle = np.real(np.trace(rho.mat @ (sla.logm(rho.mat) - sla.logm(sig.mat))))
        assert abs(ours - oracle) < 1e-10
        assert ours > -1e-12
        assert relative_entropy(rho, rho) < 1e-12


def test_relative_entropy_support_mismatch_is_infinite():
    rho = DensityMatrix(np.eye(2) / 2)
    sig = DensityMatrix(np.diag([1.0, 0.0]))
    assert relative_entropy(rho, sig) == math.inf
    # reversed order is finite because rho has full support
    assert relative_entropy(sig, rho) < math.inf


def test_mutual_information_properties():
    rng = np.random.default_rng(2)
    for _ in range(10):
        prod = rand_product(rng, 2, 3)
        assert abs(mutual_information(prod)) < 1e-12
        corr = rand_bipartite(rng, 2, 3)
        mi = mutual_information(corr)
        ref = tensor_product(corr.rho_sys, corr.rho_env)
        oracle = relative_entropy(DensityMatrix(corr.mat), DensityMatrix(ref.mat))
        assert abs(mi - oracle) < 1e-10
        assert mi > -1e-12


def test_gibbs_solver_fixed_oracle():
    # H = diag(0, 1, 2.5) at beta = 0.7; oracle values from direct scalar math.
    h = HermitianMatrix(np.diag([0.0, 1.0, 2.5]))
    solver = GibbsSolver(h)
    beta = 0.7
    pops = solver.populations(beta)
    assert np.max(np.abs(pops - [0.5986736096748223, 0.29729251633227138, 0.10403387399290644])) < 1e-15
    assert abs(solver.energy(beta) - 0.5573772013145375) < 1e-15
    assert abs(solver.entropy(beta) - 0.90320276232315222) < 1e-14
    assert abs(solver.variance(beta) - 0.63683488424271029) < 1e-14
    assert abs(solver.log_partition(beta) - 0.51303872140297602) < 1e-15


def test_gibbs_solver_against_logsumexp():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = rand_env_hamiltonian(rng, 5)
        solver = GibbsSolver(h)
        beta = rng.uniform(-8.0, 8.0)
        w = np.linalg.eigvalsh(h.mat)
        assert abs(solver.log_partition(beta) - logsumexp(-beta * w)) < 1e-12
        p = np.exp(-beta * w - logsumexp(-beta * w))
        assert abs(solver.energy(beta) - p @ w) < 1e-12
        assert abs(solver.variance(beta) - p @ (w - p @ w) ** 2) < 1e-12


def test_gibbs_state_matches_expm():
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = rand_env_hamiltonian(rng, 4)
        beta = rng.uniform(-3.0, 3.0)
        ours = GibbsSolver(h).state(beta)
        raw = sla.expm(-beta * h.mat)
        oracle = raw / np.trace(raw)
        assert np.max(np.abs(ours.mat - oracle)) < 1e-12


def test_gibbs_infinite_beta_limits():
    h = HermitianMatrix(np.diag([0.0, 1.0, 1.0, 3.0]))
    solver = GibbsSolver(h)
    cold = solver.populations(math.inf)
    assert np.max(np.abs(cold - [1.0, 0.0, 0.0, 0.0])) < 1e-15
    hot = solver.populations(-math.inf)
    assert np.max(np.abs(hot - [0.0, 0.0, 0.0, 1.0])) < 1e-15
    assert solver.energy(math.inf) == 0.0
    assert solver.energy(-math.inf) == 3.0
    assert solver.entropy(math.inf) == 0.0
    # degenerate middle band: -inf picks only the top level here, entropy 0
    assert solver.entropy(-math.inf) == 0.0


def test_gibbs_energy_is_decreasing_in_beta():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = rand_env_hamiltonian(rng, 6)
        solver = GibbsSolver(h)
        betas = np.sort(rng.uniform(-6.0, 6.0, size=8))
        energies = solver.energy(betas)
        assert np.all(np.diff(energies) < 0)


def test_solve_beta_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(30):
        h = rand_env_hamiltonian(rng, 5)
        solver = GibbsSolver(h)
        beta = rng.uniform(-10.0, 10.0)
        found = solver.solve_beta(solver.energy(beta))
        assert abs(found - beta) < 1e-9


def test_solve_beta_edges_and_failures():
    h = HermitianMatrix(np.diag([0.0, 1.0]))
    solver = GibbsSolver(h)
    assert solver.solve_beta(0.0) == math.inf
    assert solver.solve_beta(1.0) == -math.inf
    with pytest.raises(InfeasibleEnergy):
        solver.solve_beta(1.5)
    with pytest.raises(InfeasibleEnergy):
        solver.solve_beta(-0.1)


def test_solve_beta_settles_in_few_newton_steps(monkeypatch):
    # A converged Newton step must not be taken for a bracket escape, and a
    # root on a first bracket end (beta* = -1 below) must not be bisected away.
    qubit = GibbsSolver(HermitianMatrix(np.diag([0.0, 1.0])))
    assert abs(qubit.solve_beta(qubit.energy(-1.3)) + 1.3) < 1e-12
    # Each side of the array path takes one _edge_moments_many pass per
    # Newton step and one for the residual.
    passes, moments, invert = [], _edge_moments_many, GibbsSolver._invert_energy

    def count_moments(*args):
        passes[-1] += 1
        return moments(*args)

    def count_side(self, *args):
        passes.append(0)
        return invert(self, *args)

    monkeypatch.setattr("qthermo.thermo._edge_moments_many", count_moments)
    monkeypatch.setattr(GibbsSolver, "_invert_energy", count_side)
    solver = GibbsSolver(HermitianMatrix(np.diag([0.0, 0.3, 1.1, 2.0])))
    betas = np.linspace(-3.0, 3.0, 3001)
    found = solver.solve_beta_many(solver.energy(betas))
    assert np.abs(found - betas).max() < 1e-12
    assert len(passes) == 2 and max(passes) <= 8 + 1


def test_solve_beta_is_finite_next_to_the_edges():
    # Energies within _BETA_ABS_TOL of an edge used to come back as +-inf.
    qubit = GibbsSolver(HermitianMatrix(np.diag([0.0, 1.0])))
    assert abs(qubit.solve_beta(qubit.energy(28.0)) - 28.0) < 1e-12
    solver = GibbsSolver(HermitianMatrix(np.diag([0.0, 0.3, 1.1, 2.0])))
    betas = np.array([100.0, 28.0])
    for s in (qubit, solver):
        targets = s.energy(betas)
        assert np.abs(s.solve_beta_many(targets) - betas).max() < 1e-12
        assert abs(s.solve_beta(targets[0]) - 100.0) < 1e-12



def test_energy_stays_inside_the_spectrum_at_large_beta():
    # p @ w over three degenerate edge levels at p = 1/3 rounded an ulp below w_0.
    solver = GibbsSolver(HermitianMatrix(np.diag([222.5] * 3 + [223.125] + [232.5] * 3)))
    assert solver.energy(1e6) == 222.5
    assert solver.energy(-1e6) == 232.5
    assert solver.energy(np.array([1e6, -1e6, 1e6])).tolist() == [222.5, 232.5, 222.5]


def test_thermal_maps_round_alike_on_floats_and_arrays():
    # energy and variance once took a gemv on arrays and a row dot on floats,
    # which differed in the last bit for about a quarter of the draws.
    rng = np.random.default_rng(26)
    for _ in range(500):
        d = int(rng.integers(2, 9))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        solver = GibbsSolver(HermitianMatrix(0.5 * (g + g.conj().T)))
        betas = rng.normal(scale=3.0, size=8)
        for query in (solver.energy, solver.variance, solver.entropy, solver.log_partition):
            assert query(betas).tolist() == [query(b) for b in betas.tolist()]


# Spectra offset + width * (0, sorted interior levels, 1) on the diagonal.
_SPECTRA = dict(
    d_env=st.integers(2, 8),
    log_width=st.floats(-3.0, 3.0),
    offset=st.floats(-1e3, 1e3),
    beta=st.floats(-200.0, 200.0),
    levels=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
)


def _spectrum_solver(d_env, log_width, offset, levels):
    width = 10.0 ** log_width
    inner = np.sort(levels[: d_env - 2])
    w = offset + width * np.concatenate([[0.0], inner, [1.0]])
    return width, GibbsSolver(HermitianMatrix(np.diag(w)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**_SPECTRA)
def test_solve_beta_properties(d_env, log_width, offset, beta, levels):
    width, solver = _spectrum_solver(d_env, log_width, offset, levels)
    w = solver.energies
    target = solver.energy(beta)
    bottom = target <= w.mean()
    u, gaps = (target - w[0], w - w[0]) if bottom else (w[-1] - target, w[-1] - w)
    found = solver.solve_beta(target)
    # beta* beyond _BETA_CLAMP is reported as +-inf, and a gap at the near edge
    # too small for e^(-_BETA_CLAMP gap) to underflow can put the root there.
    if u > 0.0 and _BETA_CLAMP * gaps[gaps > 0.0].min() > 800.0:
        assert math.isfinite(found)
    if math.isfinite(found):
        assert abs(solver.energy(found) - target) <= _BETA_ABS_TOL
    # Round trip wherever the target carries the digits: one rounding of the
    # energy, eps * sum_k p_k |w_k|, moves beta by that over the variance.
    if abs(beta) * width <= 30.0:
        p = solver.populations(beta)
        carried = np.finfo(float).eps * (p @ np.abs(w)) / solver.variance(beta)
        if carried <= 1e-11 * (1.0 + abs(beta)):
            assert abs(found - beta) <= 1e-9 * (1.0 + abs(beta))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**_SPECTRA)
def test_solve_beta_float_path_matches_array_path(d_env, log_width, offset, beta, levels):
    # The paths differ only in libm against NumPy exp/log rounding: ~1e-16
    # (1 + |ln u|) in ln U - ln u, which moves x = |beta| by that times
    # dx/d(ln u) = u/Var at the root.  Without close levels u/Var ~ 1/width.
    _, solver = _spectrum_solver(d_env, log_width, offset, levels)
    w = solver.energies
    for b in (beta, -beta):
        target = solver.energy(b)
        u = target - w[0] if target <= w.mean() else w[-1] - target
        one = solver.solve_beta(target)
        many = solver.solve_beta_many(np.array([target, target]))
        finite = [v for v in (one, many[0]) if math.isfinite(v)]
        if not finite:
            assert (many == one).all()
            continue
        var = solver.variance(finite[0])
        slack = 1e-14 * (1.0 + abs(math.log(u))) * u / var if var > 0.0 else math.inf
        # Where the root is not pinned to 1e-6 (levels closer than rounding
        # resolves), the two paths may settle on different sides of a flat U.
        if slack <= 1e-6 * (1.0 + abs(b)):
            assert np.abs(many - one).max() <= 1e-13 * (1.0 + abs(b)) + slack


def test_effective_beta_on_thermal_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = rand_env_hamiltonian(rng, 4)
        beta = rng.uniform(-5.0, 5.0)
        rho = GibbsSolver(h).state(beta)
        found = effective_beta(rho, h)
        assert abs(found - beta) < 1e-10


def test_effective_beta_matches_energy_only():
    # Any state with the same mean energy maps to the same beta.
    rng = np.random.default_rng(8)
    h = rand_env_hamiltonian(rng, 4)
    solver = GibbsSolver(h)
    for _ in range(10):
        rho = rand_density(rng, 4)
        energy = float(np.real(np.trace(rho.mat @ h.mat)))
        beta = effective_beta(rho, h)
        assert abs(solver.energy(beta) - energy) < 1e-11


def test_gibbs_relative_entropy_matches_generic():
    rng = np.random.default_rng(9)
    for _ in range(15):
        h = rand_env_hamiltonian(rng, 4)
        solver = GibbsSolver(h)
        ba, bb = rng.uniform(-4.0, 4.0, size=2)
        ours = solver.gibbs_relative_entropy(ba, bb)
        oracle = relative_entropy(solver.state(ba), solver.state(bb))
        assert abs(ours - oracle) < 1e-11
        assert ours > -1e-13


def test_gibbs_relative_entropy_far_from_the_reference():
    # gamma(800) on a unit-gap qubit has an excited population e^-800, which
    # underflows; the divergence from gamma(0.5) is still finite.
    qubit = GibbsSolver(HermitianMatrix(np.diag([0.0, 1.0])))
    for sign in (1.0, -1.0):
        d = qubit.gibbs_relative_entropy(0.5 * sign, 800.0 * sign)
        assert abs(d - 301.3696877199372) <= 1e-12 * 301.3696877199372


def test_relative_entropy_profile_matches_pointwise():
    rng = np.random.default_rng(10)
    h = rand_env_hamiltonian(rng, 4)
    solver = GibbsSolver(h)
    rho = rand_density(rng, 4)
    betas = np.linspace(-3.0, 3.0, 21)
    profile = solver.relative_entropy_profile(rho, betas)
    for k, beta in enumerate(betas):
        oracle = relative_entropy(rho, solver.state(beta))
        assert abs(profile[k] - oracle) < 1e-11


def test_gibbs_spec_rejects_bad_beta():
    # Every scalar thermal query on the solver validates beta the same way.
    solver = GibbsSolver(HermitianMatrix(np.diag([0.0, 1.0])))
    with pytest.raises(InvalidInput):
        solver.state(float("nan"))
    with pytest.raises(InvalidInput):
        solver.state("warm")
    with pytest.raises(InvalidInput):
        solver.state(1.0 + 2.0j)
    # Their array forms take finite real betas only.
    for query in (solver.energy, solver.variance, solver.entropy, solver.log_partition):
        for bad in (float("nan"), "warm", 1.0 + 2.0j,
                    np.array([0.5, np.nan]), np.array([np.inf]), [-np.inf, 1.0],
                    np.array([1.0 + 2.0j]), np.array([1.0 + 0.0j]), np.array(["warm"])):
            with pytest.raises(InvalidInput):
                query(bad)


def test_entropy_additivity_on_products():
    rng = np.random.default_rng(11)
    for _ in range(10):
        state = rand_product(rng, 2, 3)
        joint = von_neumann_entropy(DensityMatrix(state.mat))
        split = von_neumann_entropy(state.rho_sys) + von_neumann_entropy(state.rho_env)
        assert abs(joint - split) < 1e-12


def test_bipartite_entropy_triangle():
    # |S_S - S_E| <= S_SE <= S_S + S_E on random correlated states.
    rng = np.random.default_rng(12)
    for _ in range(20):
        state = rand_bipartite(rng, 2, 3)
        s_s = von_neumann_entropy(state.rho_sys)
        s_e = von_neumann_entropy(state.rho_env)
        s_se = von_neumann_entropy(DensityMatrix(state.mat))
        assert s_se <= s_s + s_e + 1e-12
        assert s_se >= abs(s_s - s_e) - 1e-12


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    return calls


@pytest.fixture
def solver_constructions(monkeypatch):
    calls = []
    init = GibbsSolver.__init__
    monkeypatch.setattr(GibbsSolver, "__init__",
                        lambda self, h: calls.append(1) or init(self, h))
    return calls


def test_validated_states_are_not_decomposed_again(eigvalsh_calls):
    rng = np.random.default_rng(40)
    rho = rand_bipartite(rng, 2, 3)
    sigma = DensityMatrix(np.kron(rho.rho_sys.mat, rho.rho_env.mat))
    expected = [float(-(w * np.log(w)).sum()) for w in
                (np.linalg.eigvalsh(m.mat) for m in (rho.state, rho.rho_sys, rho.rho_env))]
    del eigvalsh_calls[:]
    info = mutual_information(rho)
    entropies = [von_neumann_entropy(m) for m in (rho.state, rho.rho_sys, rho.rho_env)]
    div = relative_entropy(rho.state, sigma)
    assert eigvalsh_calls == []
    assert entropies == pytest.approx(expected, abs=1e-14)
    assert info == entropies[1] + entropies[2] - entropies[0]
    assert div == pytest.approx(info, abs=1e-12)


def test_run_scenario_builds_one_gibbs_solver(solver_constructions):
    # Parsing (the product-Gibbs initial state), evolution, the report and
    # the bounds all share the schedule's solver.
    run_scenario(load_scenario("src/qthermo/data/two_qubit_exchange.json"))
    assert len(solver_constructions) == 1


def test_one_gibbs_solver_per_hamiltonian_object(solver_constructions):
    rng = np.random.default_rng(41)
    h_env = rand_env_hamiltonian(rng, 3)
    initial = rand_bipartite(rng, 2, 3)
    final = rand_bipartite(rng, 2, 3)
    entropy_production(initial, final, 0.3, -0.2, h_env)
    build_bound_report(initial, h_env)
    effective_beta(final.rho_env, h_env)
    assert len(solver_constructions) == 1
    assert _solver(h_env) is _solver(h_env)
    # Another object with the same matrix gets its own solver.
    assert _solver(HermitianMatrix(h_env.mat)) is not _solver(h_env)


def test_degenerate_hamiltonian_fails_on_every_call():
    # A failed construction is not cached, so the error repeats.
    h = HermitianMatrix(np.eye(3))
    rho = DensityMatrix(np.eye(3) / 3)
    for _ in range(2):
        with pytest.raises(InvalidInput):
            _solver(h)
        with pytest.raises(InvalidInput):
            effective_beta(rho, h)


def test_beta_star_is_cached_on_the_state_per_solver(monkeypatch):
    # One rho_E read with two H_E objects gets each solver's own beta*; a
    # repeated read with the same solver solves nothing.
    rng = np.random.default_rng(45)
    rho = rand_density(rng, 3)
    h1, h2 = rand_env_hamiltonian(rng, 3), rand_env_hamiltonian(rng, 3, spread=2.0)
    own = [effective_beta(DensityMatrix(rho.mat), h) for h in (h1, h2)]
    assert own[0] != own[1]
    for _ in range(2):
        assert [effective_beta(rho, h) for h in (h1, h2)] == own
    solve = GibbsSolver.solve_beta_many
    calls = []
    monkeypatch.setattr(GibbsSolver, "solve_beta_many",
                        lambda self, e: calls.append(e) or solve(self, e))
    assert (effective_beta(rho, h2), effective_beta(rho, h1), effective_beta(rho, h1)) == \
        (own[1], own[0], own[0])
    assert len(calls) == 1


def test_raw_array_hamiltonian_gets_a_fresh_solver():
    rng = np.random.default_rng(42)
    h = rand_env_hamiltonian(rng, 4)
    rho = rand_density(rng, 4)
    assert _solver(h.mat) is not _solver(h.mat)
    assert effective_beta(rho, h.mat) == effective_beta(rho, h)
    assert np.array_equal(_solver(h.mat).state(0.7).mat, _solver(h).state(0.7).mat)


def test_stacked_thermal_kernels_match_one_row_calls():
    # Every row of a stacked kernel equals the public call on that row alone.
    rng = np.random.default_rng(43)
    for d_s, d_e in ((1, 2), (2, 3), (3, 4)):
        n = 6
        g = _gibbs(np.stack([rand_env_hamiltonian(rng, d_e).mat for _ in range(n)]))
        solvers = [GibbsSolver(HermitianMatrix(row)) for row in g.h]
        states = [rand_bipartite(rng, d_s, d_e) for _ in range(n)]
        stack = _bipartite(np.stack([s.mat for s in states]), d_s, d_e)
        env = [s.rho_env for s in states]
        beta = rng.uniform(-3.0, 3.0, size=n)
        beta[0], beta[1] = math.inf, -math.inf
        finite = rng.uniform(-3.0, 3.0, size=(n, 4))
        gammas = _gibbs_states(g, beta)
        energy, variance = _energy_variance(g.levels, beta)
        assert _mutual_information(stack).tolist() == [mutual_information(s) for s in states]
        assert _beta_star(g, stack.rho_env.mat).tolist() == [
            s.beta_star(r) for s, r in zip(solvers, env)]
        assert _gibbs_entropy(g, beta).tolist() == [s.entropy(b) for s, b in zip(solvers, beta)]
        assert energy.tolist() == [s.energy(b) for s, b in zip(solvers, beta)]
        assert variance.tolist() == [s.variance(b) for s, b in zip(solvers, beta)]
        assert _relative_entropy(stack.rho_env, gammas).tolist() == [
            relative_entropy(r, s.state(b)) for r, s, b in zip(env, solvers, beta)]
        for k, s in enumerate(solvers):
            assert np.array_equal(gammas[k], s.state(beta[k]).mat)
            assert np.array_equal(_populations(g.levels, beta)[k], s.populations(beta[k]))
            assert np.array_equal(_env_divergence(stack.rho_env, finite, g)[k],
                                  s.relative_entropy_profile(env[k], finite[k]))
            assert np.array_equal(_log_partition(g.levels[:, None, :], finite)[k],
                                  s.log_partition(finite[k]))


def test_stack_validation_raises_the_solver_messages():
    # One bad row fails the whole stack with the message GibbsSolver gives it.
    rng = np.random.default_rng(45)
    good = rand_env_hamiltonian(rng, 3).mat
    skew = good.copy()
    skew[0, 1] += 1e-3
    for bad in (0.7 * np.eye(3), skew, np.full((1, 1), 0.3)):
        with pytest.raises(InvalidInput) as one:
            GibbsSolver(bad)
        rows = [bad, bad] if len(bad) == 1 else [good, bad, good]
        with pytest.raises(InvalidInput) as stack:
            _gibbs(np.stack(rows).astype(complex))
        assert str(stack.value) == str(one.value)
    assert str(one.value) == "environment Hamiltonian needs dimension >= 2"


def test_signed_zeros_kept_from_exactly_self_adjoint_input_move_no_thermal_value():
    # -M for a real M has -0.0 imaginary parts: HermitianMatrix keeps them, and
    # (A + A^dag)/2, which _trusted stores, turns them into +0.0.  eigh may sign a
    # zero of an eigenvector differently; every thermal value is the same bit for bit.
    rng = np.random.default_rng(37)
    for d in (2, 3, 4, 6, 12):
        for _ in range(8):
            m = rng.normal(size=(d, d))
            a = -(m + m.T).astype(complex)
            kept, summed = HermitianMatrix(a), HermitianMatrix._trusted(a)
            assert np.signbit(kept.mat.imag).any() and not np.signbit(summed.mat.imag).any()
            s, t = GibbsSolver(kept), GibbsSolver(summed)
            assert s._g.levels.tobytes() == t._g.levels.tobytes()
            assert (s._g.basis == t._g.basis).all()
            for beta in (-1.3, 0.0, 0.7, math.inf):
                assert s.populations(beta).tobytes() == t.populations(beta).tobytes()
                assert s.state(beta).mat.tobytes() == t.state(beta).mat.tobytes()
                assert [s.energy(beta), s.entropy(beta)] == [t.energy(beta), t.entropy(beta)]


def test_stacked_gibbs_relative_entropy_at_infinite_beta_b():
    # At beta_b = +-inf the reference is the edge projector: a row supported
    # on the edge level (to EIG_ZERO_TOL) is finite, any other is inf.  The
    # last two rows keep a finite beta_b in the same stack.
    rng = np.random.default_rng(46)
    levels = np.array([0.0, 1.0, 2.5])
    h = np.stack([(u.mat * levels) @ u.mat.conj().T for u in
                  (rand_unitary(rng, 3) for _ in range(7))])
    g = _gibbs(h)
    solvers = [GibbsSolver(HermitianMatrix(row)) for row in h]
    beta_a = np.array([math.inf, 60.0, 1.0, -math.inf, -0.5, 0.3, math.inf])
    beta_b = np.array([math.inf, math.inf, math.inf, -math.inf, -math.inf, 1.1, -2.0])
    found = _gibbs_relative_entropy(g, _populations(g.levels, beta_a), beta_b)
    assert found.tolist() == [s.gibbs_relative_entropy(a, b)
                              for s, a, b in zip(solvers, beta_a, beta_b)]
    assert np.isfinite(found[[0, 1, 3, 5, 6]]).all() and np.isinf(found[[2, 4]]).all()
    assert found[0] == found[3] == 0.0


def test_stacked_relative_entropy_is_infinite_in_the_deficient_row_only():
    rng = np.random.default_rng(44)
    rho = [rand_density(rng, 3) for _ in range(4)]
    sigma = [rand_density(rng, 3) for _ in range(3)] + [rand_density(rng, 3, rank=1)]
    stack = _states(np.stack([r.mat for r in rho]))
    found = _relative_entropy(stack, np.stack([s.mat for s in sigma]))
    expected = [relative_entropy(r, s) for r, s in zip(rho, sigma)]
    assert found.tolist() == expected
    assert math.isinf(found[3]) and np.isfinite(found[:3]).all()


@pytest.mark.parametrize("levels, beta", [((0.0, 1e-9), -1e9), ((0.0, 1e-9, 2e-9), 1e9)])
def test_narrow_spectra_keep_a_finite_beta_star(levels, beta):
    # beta * gap = 1: the clamp counts in units of the near-edge gap, so a
    # large |beta| on a narrow spectrum is not reported as an infinite one.
    solver = GibbsSolver(HermitianMatrix(np.diag(levels)))
    target = solver.energy(beta)
    for found in (solver.solve_beta(target), solver.solve_beta_many([target, target])[0]):
        assert abs(found - beta) <= 1e-9 * abs(beta)


def test_near_degenerate_edge_levels_keep_both_paths_finite():
    # Edge levels 1.8e-11 apart leave energy(beta) flat to rounding from
    # beta = 21 far out, so the root is any point of that plateau: both paths
    # must land on it, finite, rather than at +inf (8.9e-12 off the target).
    w = 1.0 + 10.0 ** 0.25 * np.array([0.0, 1e-11, 1.0])
    solver = GibbsSolver(HermitianMatrix(np.diag(w)))
    target = solver.energy(21.0)
    for found in (solver.solve_beta(target), *solver.solve_beta_many([target, target])):
        assert math.isfinite(found)
        assert abs(solver.energy(found) - target) <= _BETA_ABS_TOL
