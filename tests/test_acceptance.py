"""Acceptance suite: one test per shipped guarantee, one line per verdict.

Every test prints ``acceptance NN <name>: PASS (<worst margin>)`` on success;
the pytest -v listing carries the same one-line-per-criterion record.
Tolerances are part of the contract and are pinned at the top.
"""

import math

import numpy as np
import scipy.linalg as sla

from qthermo import (
    BipartiteState,
    ConstantBeta,
    DensityMatrix,
    EnergyMatching,
    EnvPoint,
    GibbsSolver,
    HamiltonianSchedule,
    HermitianMatrix,
    RegionGrid,
    Segment,
    TabulatedBeta,
    beta_from_polarization,
    clausius_entropy_production,
    effective_beta,
    emit_region_map,
    entropy_gap_bound,
    entropy_production,
    entropy_production_rate,
    env_hamiltonian,
    evolve,
    example_distances,
    load_scenario,
    mutual_information,
    policy_endpoints,
    product_trace_distance_bound,
    relative_entropy,
    sufficient_nonneg_general,
    sufficient_nonneg_product,
    temperature_drift_correction,
    tensor_product,
    thermal_polarization,
    trace_distance,
    trace_distance_bound,
    von_neumann_entropy,
)
from qthermo.rand import (
    rand_density,
    rand_env_hamiltonian,
    rand_hermitian,
    rand_unitary,
)

TOL_SPLIT = 1e-6
TOL_ENDPOINT = 1e-8
TOL_SPECIAL = 1e-9
TOL_SECOND_LAW = 1e-9
TOL_IDENTITY = 1e-10
TOL_MONOTONE_REL = 1e-6
TOL_ROUNDTRIP = 1e-9
TOL_QUBIT = 1e-10
TOL_UNITARITY = 1e-9
TOL_ENTROPY_DRIFT = 1e-8
TOL_CROSSCHECK = 1e-8
TOL_RATE = 1e-5

DIMS = ((2, 2), (2, 3), (3, 4))


def _line(num, name, detail):
    print(f"acceptance {num:02d} {name}: PASS ({detail})")


def _ramp_case(seed, d_s=2, d_e=2, tau=1.0):
    rng = np.random.default_rng(seed)
    h_sys = rand_hermitian(rng, d_s, scale=0.4)
    h_env = rand_env_hamiltonian(rng, d_e, spread=1.2, offset=rng.uniform(-0.5, 0.5))
    h_int = rand_hermitian(rng, d_s * d_e, scale=rng.uniform(0.2, 0.4))
    sched = HamiltonianSchedule(h_env, (Segment(0.0, tau, h_sys, h_int),))
    knots = np.linspace(0.0, tau, 9)
    betas = (rng.uniform(-1.5, 1.5)
             + rng.uniform(-1.0, 1.0) * np.sin(np.pi * knots / tau + rng.uniform(0, 6)))
    policy = TabulatedBeta(tuple(knots), tuple(betas))
    initial = tensor_product(rand_density(rng, d_s),
                             GibbsSolver(h_env).state(float(betas[0])))
    return sched, policy, BipartiteState(d_s, d_e, initial.mat)


def _endpoint_case(rng, d_s, d_e):
    h_env = rand_env_hamiltonian(rng, d_e)
    initial = _random_correlated(rng, d_s, d_e)
    u = rand_unitary(rng, d_s * d_e).mat
    final = BipartiteState(d_s, d_e, u @ initial.mat @ u.conj().T)
    return h_env, initial, final


def _random_correlated(rng, d_s, d_e):
    dim = d_s * d_e
    g = rng.standard_normal((dim, dim + 1)) + 1j * rng.standard_normal((dim, dim + 1))
    w = g @ g.conj().T
    return BipartiteState(d_s, d_e, w / np.trace(w).real)


def _phase_correlated(rng, d_s, solver, beta):
    # conditional phases commute with the thermal factor, so the environment
    # marginal stays exactly Gibbs while correlations build up
    d_e = solver.dim
    rho_s = rand_density(rng, d_s)
    gamma = solver.state(beta)
    blocks = []
    for _ in range(d_s):
        theta = rng.uniform(0.0, 4.0)
        blocks.append(sla.expm(-1j * theta * solver.h_env.mat))
    u = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
    for j, blk in enumerate(blocks):
        u[j * d_e:(j + 1) * d_e, j * d_e:(j + 1) * d_e] = blk
    joint = u @ np.kron(rho_s.mat, gamma.mat) @ u.conj().T
    return BipartiteState(d_s, d_e, joint)


def _matched_star_value(initial, final, h_env):
    solver = GibbsSolver(h_env)
    b0 = effective_beta(initial.rho_env, h_env)
    bt = effective_beta(final.rho_env, h_env)
    ds = von_neumann_entropy(final.rho_sys) - von_neumann_entropy(initial.rho_sys)
    de = von_neumann_entropy(final.rho_env) - von_neumann_entropy(initial.rho_env)
    dg = ((solver.entropy(bt) - von_neumann_entropy(final.rho_env))
          - (solver.entropy(b0) - von_neumann_entropy(initial.rho_env)))
    return ds + de + dg, b0, bt


def test_acceptance_01_clausius_split_convergence():
    worst = 0.0
    ratios = []
    for seed in range(1000):
        sched, policy, initial = _ramp_case(seed)
        residuals = []
        for steps in (1000, 2000):
            traj = evolve(initial, sched, steps_per_segment=steps)
            b0, btau = policy_endpoints(policy, traj)
            ep = entropy_production(traj.initial, traj.final, b0, btau, sched.h_env)
            cl = clausius_entropy_production(traj, policy)
            drift = temperature_drift_correction(traj, policy)
            residuals.append(abs(ep - cl - drift))
        worst = max(worst, residuals[0])
        if residuals[0] > 1e-10:
            ratios.append(residuals[0] / residuals[1])
    assert worst <= TOL_SPLIT, f"worst split residual {worst}"
    med = float(np.median(ratios))
    assert 3.5 <= med <= 4.5, f"median halving ratio {med}"
    _line(1, "clausius split convergence",
          f"worst residual {worst:.3e}, median step-doubling ratio {med:.2f}")


def test_acceptance_02_matched_reduction():
    worst = 0.0
    rng = np.random.default_rng(20)
    for i in range(1000):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env, initial, final = _endpoint_case(rng, d_s, d_e)
        star, b0, bt = _matched_star_value(initial, final, h_env)
        ep = entropy_production(initial, final, b0, bt, h_env)
        worst = max(worst, abs(ep - star))
    assert worst <= TOL_ENDPOINT, f"worst reduction residual {worst}"
    _line(2, "matched endpoint reduction", f"worst residual {worst:.3e}")


def test_acceptance_03_pythagorean_identities():
    worst = 0.0
    rng = np.random.default_rng(30)
    for i in range(1000):
        d_e = 2 + i % 4
        h_env = rand_env_hamiltonian(rng, d_e)
        solver = GibbsSolver(h_env)
        rho = rand_density(rng, d_e)
        beta = rng.uniform(-2.0, 2.0)
        bstar = effective_beta(rho, h_env)
        full = relative_entropy(rho, solver.state(beta))
        to_star = relative_entropy(rho, solver.state(bstar))
        between = solver.gibbs_relative_entropy(bstar, beta)
        r1 = abs(full - to_star - between)
        r2 = abs(to_star - (solver.entropy(bstar) - von_neumann_entropy(rho)))
        worst = max(worst, r1, r2)
    assert worst <= TOL_ENDPOINT, f"worst identity residual {worst}"
    _line(3, "pythagorean identities", f"worst residual {worst:.3e}")


def test_acceptance_04_general_split():
    worst = 0.0
    rng = np.random.default_rng(40)
    for i in range(1000):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env, initial, final = _endpoint_case(rng, d_s, d_e)
        solver = GibbsSolver(h_env)
        b0, bt = rng.uniform(-2.0, 2.0, size=2)
        star, bs0, bst = _matched_star_value(initial, final, h_env)
        ep = entropy_production(initial, final, b0, bt, h_env)
        rhs = (star + solver.gibbs_relative_entropy(bst, bt)
               - solver.gibbs_relative_entropy(bs0, b0))
        worst = max(worst, abs(ep - rhs))
    assert worst <= TOL_ENDPOINT, f"worst split residual {worst}"
    _line(4, "general reference split", f"worst residual {worst:.3e}")


def test_acceptance_05_matched_minimality():
    worst_val = 0.0
    worst_pos = 0
    rng = np.random.default_rng(50)
    for i in range(20):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env, initial, final = _endpoint_case(rng, d_s, d_e)
        solver = GibbsSolver(h_env)
        star, b0, bt = _matched_star_value(initial, final, h_env)
        grid = bt + np.linspace(-2.0, 2.0, 201)
        values = (mutual_information(final) - mutual_information(initial)
                  + solver.relative_entropy_profile(final.rho_env, grid)
                  - relative_entropy(initial.rho_env, solver.state(b0)))
        k = int(np.argmin(values))
        worst_pos = max(worst_pos, abs(k - 100))
        worst_val = max(worst_val, abs(float(np.min(values)) - star))
    assert worst_pos <= 1, f"minimum {worst_pos} grid steps from the matched value"
    assert worst_val <= TOL_ENDPOINT, f"worst value gap {worst_val}"
    _line(5, "matched value minimality",
          f"minimum within {worst_pos} grid steps, value gap {worst_val:.3e}")


def test_acceptance_06_second_law_product_gibbs():
    worst = 0.0
    rng = np.random.default_rng(60)
    for i in range(2000):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env = rand_env_hamiltonian(rng, d_e)
        beta0 = rng.uniform(-2.0, 2.0)
        initial = BipartiteState(d_s, d_e, tensor_product(
            rand_density(rng, d_s), GibbsSolver(h_env).state(beta0)).mat)
        u = rand_unitary(rng, d_s * d_e).mat
        final = BipartiteState(d_s, d_e, u @ initial.mat @ u.conj().T)
        constant = entropy_production(initial, final, beta0, beta0, h_env)
        b0 = effective_beta(initial.rho_env, h_env)
        bt = effective_beta(final.rho_env, h_env)
        matched = entropy_production(initial, final, b0, bt, h_env)
        worst = min(worst, constant, matched) if i else min(constant, matched)
    assert worst >= -TOL_SECOND_LAW, f"most negative production {worst}"
    _line(6, "second law from product gibbs", f"most negative value {worst:.3e}")


def test_acceptance_07_identity_process():
    worst = 0.0
    rng = np.random.default_rng(70)
    for i in range(200):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env = rand_env_hamiltonian(rng, d_e)
        state = _random_correlated(rng, d_s, d_e)
        beta = rng.uniform(-2.0, 2.0)
        worst = max(worst, abs(entropy_production(state, state, beta, beta, h_env)))
    # uncoupled evolution is local, so the production also vanishes
    for seed in range(20):
        srng = np.random.default_rng(seed)
        h_env = rand_env_hamiltonian(srng, 2)
        h_sys = rand_hermitian(srng, 2)
        sched = HamiltonianSchedule(
            h_env, (Segment(0.0, 1.0, h_sys, HermitianMatrix(np.zeros((4, 4)))),))
        initial = BipartiteState(2, 2, tensor_product(
            rand_density(srng, 2), rand_density(srng, 2)).mat)
        traj = evolve(initial, sched, steps_per_segment=64)
        beta = float(srng.uniform(-2.0, 2.0))
        ep = entropy_production(traj.initial, traj.final, beta, beta, h_env)
        worst = max(worst, abs(ep))
    assert worst <= TOL_IDENTITY, f"worst identity-process value {worst}"
    _line(7, "identity process", f"worst |production| {worst:.3e}")


def test_acceptance_08_lower_bound_chain():
    worst_slack = 0.0
    negatives = 0
    rng = np.random.default_rng(80)
    total_adversarial = 500
    for i in range(1000):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env = rand_env_hamiltonian(rng, d_e)
        adversarial = i < total_adversarial
        if adversarial:
            # correlate a product-Gibbs state, then mostly undo it: the
            # reversal makes the matched production negative
            beta = rng.uniform(-1.5, 1.5)
            prod = tensor_product(rand_density(rng, d_s),
                                  GibbsSolver(h_env).state(beta))
            u0 = rand_unitary(rng, d_s * d_e).mat
            initial = BipartiteState(d_s, d_e, u0 @ prod.mat @ u0.conj().T)
            eps = rng.uniform(0.0, 0.5)
            extra = sla.expm(-1j * eps * rand_hermitian(rng, d_s * d_e).mat)
            u = extra @ u0.conj().T
        elif i % 2 == 0:
            initial = _random_correlated(rng, d_s, d_e)
            u = rand_unitary(rng, d_s * d_e).mat
        else:
            initial = BipartiteState(d_s, d_e, tensor_product(
                rand_density(rng, d_s), rand_density(rng, d_e)).mat)
            u = rand_unitary(rng, d_s * d_e).mat
        final = BipartiteState(d_s, d_e, u @ initial.mat @ u.conj().T)
        star, _, _ = _matched_star_value(initial, final, h_env)
        gap = entropy_gap_bound(initial, h_env)
        tdist = trace_distance_bound(initial, h_env)
        worst_slack = max(worst_slack, gap - star, tdist - gap)
        if i % 2 == 1 and not adversarial:
            prod_bound = product_trace_distance_bound(
                initial.rho_sys, initial.rho_env, h_env)
            worst_slack = max(worst_slack, prod_bound - gap, tdist - prod_bound)
        if adversarial and star < 0:
            negatives += 1
    share = negatives / total_adversarial
    assert worst_slack <= TOL_ENDPOINT, f"worst chain slack {worst_slack}"
    assert share >= 0.05, f"negative share {share}"
    _line(8, "lower bound chain",
          f"worst slack {worst_slack:.3e}, negative share {share:.0%}")


def test_acceptance_09_bound_special_cases():
    worst = 0.0
    rng = np.random.default_rng(90)
    for i in range(1000):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env = rand_env_hamiltonian(rng, d_e)
        solver = GibbsSolver(h_env)
        beta = rng.uniform(-2.0, 2.0)
        if i % 2 == 0:
            state = _phase_correlated(rng, d_s, solver, beta)
            gap = entropy_gap_bound(state, h_env)
            worst = max(worst, abs(gap + mutual_information(state)))
        else:
            state = BipartiteState(d_s, d_e, tensor_product(
                rand_density(rng, d_s), rand_density(rng, d_e)).mat)
            gap = entropy_gap_bound(state, h_env)
            bstar = effective_beta(state.rho_env, h_env)
            expected = von_neumann_entropy(state.rho_env) - solver.entropy(bstar)
            worst = max(worst, abs(gap - expected))
    assert worst <= TOL_SPECIAL, f"worst special-case residual {worst}"
    _line(9, "entropy gap special cases", f"worst residual {worst:.3e}")


def test_acceptance_10_sufficiency_no_false_positives():
    rng = np.random.default_rng(100)
    false_positives = 0
    fired = 0
    for i in range(2000):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env = rand_env_hamiltonian(rng, d_e)
        beta0, beta_tau = rng.uniform(-1.5, 1.5, size=2)
        if i % 2 == 0:
            thermal = GibbsSolver(h_env).state(beta0)
            mix = rng.uniform(0.0, 0.15)
            rho_e = DensityMatrix((1 - mix) * thermal.mat + mix * rand_density(rng, d_e).mat)
            rho_s = rand_density(rng, d_s)
            initial = BipartiteState(d_s, d_e, tensor_product(rho_s, rho_e).mat)
        else:
            initial = _random_correlated(rng, d_s, d_e)
        u = rand_unitary(rng, d_s * d_e).mat
        final = BipartiteState(d_s, d_e, u @ initial.mat @ u.conj().T)
        checks = [sufficient_nonneg_general(final, beta_tau, initial, beta0, h_env)]
        if i % 2 == 0:
            checks.append(sufficient_nonneg_product(
                final.rho_env, beta_tau, rho_s, rho_e, beta0, h_env))
        if any(c.holds for c in checks):
            fired += 1
            ep = entropy_production(initial, final, beta0, beta_tau, h_env)
            if ep < -TOL_SECOND_LAW:
                false_positives += 1
    assert false_positives == 0, f"{false_positives} false positives"
    assert fired > 100, f"certificates fired only {fired} times"
    _line(10, "sufficiency certificates",
          f"0 false positives, fired {fired}/2000 times")


def test_acceptance_11_energy_monotonicity_roundtrip():
    worst_rel = 0.0
    rng = np.random.default_rng(110)
    for i in range(100):
        d_e = 2 + i % 7  # up to dimension 8
        h_env = rand_env_hamiltonian(rng, d_e)
        solver = GibbsSolver(h_env)
        beta = rng.uniform(-6.0, 6.0)
        h = 1e-5
        fd = (solver.energy(beta + h) - solver.energy(beta - h)) / (2 * h)
        var = solver.variance(beta)
        worst_rel = max(worst_rel, abs(fd + var) / max(abs(var), 1e-30))
    assert worst_rel <= TOL_MONOTONE_REL, f"worst relative derivative error {worst_rel}"

    worst_rt = 0.0
    for i in range(100):
        d_e = 2 + i % 7
        # spread kept at 0.5 so the beta = +-20 tails stay resolvable
        h_env = rand_env_hamiltonian(rng, d_e, spread=0.5, offset=rng.uniform(-1.0, 1.0))
        beta = rng.uniform(-20.0, 20.0)
        rho = GibbsSolver(h_env).state(beta)
        worst_rt = max(worst_rt, abs(effective_beta(rho, h_env) - beta))
    assert worst_rt <= TOL_ROUNDTRIP, f"worst roundtrip error {worst_rt}"
    _line(11, "thermal energy monotonicity",
          f"derivative rel err {worst_rel:.3e}, roundtrip err {worst_rt:.3e}")


def test_acceptance_12_qubit_closed_forms():
    rng = np.random.default_rng(120)
    worst_dist = 0.0
    worst_pol = 0.0
    gap_values = (0.6, 1.0, 1.7)
    h_by_gap = {g: env_hamiltonian(g) for g in gap_values}
    for i in range(10000):
        gap = gap_values[i % 3]
        h_env = h_by_gap[gap]
        beta_tau = rng.uniform(-2.0, 2.0)
        p = rng.uniform(-0.95, 0.95)
        amp = rng.uniform(0.0, 1.0) * math.sqrt(1 - p * p) * 0.98
        phase = rng.uniform(0.0, 2 * np.pi)
        initial = EnvPoint(p, complex(amp * math.cos(phase), amp * math.sin(phase)))
        s = rng.uniform(-0.95, 0.95)
        bmag = rng.uniform(0.0, 1.0) * math.sqrt(1 - s * s) * 0.98
        final = EnvPoint(s, complex(bmag))
        dists = example_distances(initial, final, beta_tau, gap)
        ref0 = GibbsSolver(h_env).state(beta_from_polarization(p, gap))
        generic0 = trace_distance(initial.density_matrix(), ref0)
        generic1 = trace_distance(final.density_matrix(),
                                  GibbsSolver(h_env).state(beta_tau))
        worst_dist = max(worst_dist, abs(dists.initial_distance - generic0),
                         abs(dists.final_distance - generic1))
        if i % 10 == 0:
            b0 = effective_beta(initial.density_matrix(), h_env)
            bt = effective_beta(final.density_matrix(), h_env)
            worst_pol = max(worst_pol,
                            abs(thermal_polarization(b0, gap) - p),
                            abs(thermal_polarization(bt, gap) - s))
    assert worst_dist <= TOL_QUBIT, f"worst closed-form distance error {worst_dist}"
    assert worst_pol <= TOL_ROUNDTRIP, f"worst polarization mismatch {worst_pol}"

    # region map boundary sits within one grid cell of the analytic circle
    grid = RegionGrid(gap=1.0, beta0=0.8, beta_tau_policy=ConstantBeta(0.5),
                      coherence_abs=0.3, s_min=-1.0, s_max=1.0, s_count=81,
                      b_min=0.0, b_max=1.0, b_count=41)
    rmap = emit_region_map(grid)
    center = rmap.metadata["ball_center_s"]
    radius = rmap.metadata["ball_radius"]
    cell = math.hypot(2.0 / 80, 1.0 / 40)
    for c in rmap.cells:
        dist = math.hypot(c.s - center, c.b_abs)
        if c.holds:
            assert dist >= radius - cell
        else:
            assert dist <= radius + cell

    # the energy-matching verdict never depends on the longitudinal axis
    em = emit_region_map(RegionGrid(
        gap=1.0, beta0=0.8, beta_tau_policy=EnergyMatching(), coherence_abs=0.3,
        s_min=-1.0, s_max=1.0, s_count=41, b_min=0.0, b_max=1.0, b_count=41))
    by_b = {}
    for c in em.cells:
        by_b.setdefault(c.b_abs, set()).add(c.holds)
    assert all(len(v) == 1 for v in by_b.values())
    _line(12, "qubit closed forms",
          f"distance err {worst_dist:.3e}, polarization err {worst_pol:.3e}, "
          f"boundary within one cell")


def test_acceptance_13_dynamics_correctness():
    worst_spec = 0.0
    worst_drift = 0.0
    rng = np.random.default_rng(130)
    for i in range(20):
        d_s, d_e = DIMS[i % len(DIMS)]
        h_env = rand_env_hamiltonian(rng, d_e)
        segs = []
        t = 0.0
        for _ in range(1 + i % 3):
            segs.append(Segment(t, t + 0.7, rand_hermitian(rng, d_s, scale=0.5),
                                rand_hermitian(rng, d_s * d_e, scale=0.4)))
            t += 0.7
        sched = HamiltonianSchedule(h_env, tuple(segs))
        initial = _random_correlated(rng, d_s, d_e)
        traj = evolve(initial, sched, steps_per_segment=200)
        ref_spec = np.sort(np.linalg.eigvalsh(initial.mat))
        joint0 = traj.joint_entropies()[0]
        for k in (0, len(traj) // 2, len(traj) - 1):
            spec = np.sort(np.linalg.eigvalsh(traj.state(k).mat))
            worst_spec = max(worst_spec, float(np.max(np.abs(spec - ref_spec))))
        worst_drift = max(worst_drift, float(np.max(np.abs(
            traj.joint_entropies() - joint0))))
    assert worst_spec <= TOL_UNITARITY, f"worst spectrum drift {worst_spec}"
    assert worst_drift <= TOL_ENTROPY_DRIFT, f"worst entropy drift {worst_drift}"

    # bundled scenario against a one-shot exact propagator
    sc = load_scenario("src/qthermo/data/two_qubit_exchange.json")
    traj = evolve(sc.initial, sc.schedule, steps_per_segment=sc.steps_per_segment)
    h = sc.schedule.total_hamiltonian(0.0)
    u = sla.expm(-1j * h * sc.schedule.tau)
    oracle = u @ sc.initial.mat @ u.conj().T
    cross = float(np.max(np.abs(traj.final.mat - oracle)))
    assert cross <= TOL_CROSSCHECK, f"bundled cross-check {cross}"
    _line(13, "dynamics correctness",
          f"spectrum drift {worst_spec:.3e}, entropy drift {worst_drift:.3e}, "
          f"bundled cross-check {cross:.3e}")


def test_acceptance_14_rate_formula():
    worst = 0.0
    for seed in (140, 141, 142):
        sched, policy, initial = _ramp_case(seed)
        traj = evolve(initial, sched, steps_per_segment=1000)
        for frac in (0.196, 0.446, 0.821):
            # evaluation points snapped to the grid, away from ramp knots
            k = int(np.argmin(np.abs(traj.times - frac * sched.tau)))
            t = float(traj.times[k])
            state = traj.state(k)
            h_tot = HermitianMatrix(sched.total_hamiltonian(t))
            hb = 1e-6
            beta_t = float(policy.values(np.array([t]))[0])
            beta_dot = float((policy.values(np.array([t + hb]))[0]
                              - policy.values(np.array([t - hb]))[0]) / (2 * hb))
            rate = entropy_production_rate(state, h_tot, sched.h_env, beta_t, beta_dot)

            def div_at(dt, state=state, h_tot=h_tot, t=t):
                u = sla.expm(-1j * h_tot.mat * dt)
                moved = BipartiteState(2, 2, u @ state.mat @ u.conj().T)
                beta = float(policy.values(np.array([t + dt]))[0])
                ref = np.kron(moved.rho_sys.mat,
                              GibbsSolver(sched.h_env).state(beta).mat)
                return float(np.real(np.trace(
                    moved.mat @ (sla.logm(moved.mat) - sla.logm(ref)))))

            h = 1e-4
            fd = (div_at(h) - div_at(-h)) / (2 * h)
            worst = max(worst, abs(rate - fd))
    assert worst <= TOL_RATE, f"worst rate mismatch {worst}"

    # the mismatch term is exactly absent for frozen or matched temperatures
    sched, policy, initial = _ramp_case(143)
    traj = evolve(initial, sched, steps_per_segment=100)
    state = traj.state(50)
    h_tot = HermitianMatrix(sched.total_hamiltonian(float(traj.times[50])))
    bstar = effective_beta(state.rho_env, sched.h_env)
    frozen = entropy_production_rate(state, h_tot, sched.h_env, bstar, 0.0)
    moving = entropy_production_rate(state, h_tot, sched.h_env, bstar, 9.0)
    assert moving == frozen
    base = entropy_production_rate(state, h_tot, sched.h_env, 0.3, 0.0)
    assert math.isfinite(base)
    _line(14, "rate formula", f"worst finite-difference mismatch {worst:.3e}")
