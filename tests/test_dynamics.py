"""Tests for schedules, unitary propagation, and trajectory bookkeeping."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from qthermo import (
    BipartiteState,
    GibbsSolver,
    HamiltonianSchedule,
    HermitianMatrix,
    InvalidInput,
    InvalidSchedule,
    NumericalError,
    Segment,
    Trajectory,
    effective_beta,
    env_energy_rate,
    evolve,
    load_scenario,
    mutual_information,
    run_scenario,
    tensor_product,
    von_neumann_entropy,
)
from qthermo.dynamics import _prefix_products
from qthermo.linalg import _expi
from qthermo.rand import rand_bipartite, rand_density, rand_env_hamiltonian, rand_hermitian

BUNDLED = Path(__file__).resolve().parents[1] / "src/qthermo/data/two_qubit_exchange.json"


def _exchange_schedule(d_s=2, d_e=2, tau=1.0, coupling=0.35, seed=0):
    rng = np.random.default_rng(seed)
    h_sys = rand_hermitian(rng, d_s, scale=0.5)
    h_env = rand_env_hamiltonian(rng, d_e)
    h_int = rand_hermitian(rng, d_s * d_e, scale=coupling)
    seg = Segment(0.0, tau, h_sys, h_int)
    return HamiltonianSchedule(h_env, (seg,)), rng


def test_segment_validation():
    h = HermitianMatrix(np.diag([0.0, 1.0]))
    hi = HermitianMatrix(np.zeros((4, 4)))
    with pytest.raises(InvalidSchedule):
        Segment(1.0, 1.0, h, hi)  # empty interval
    with pytest.raises(InvalidSchedule):
        Segment(0.0, float("nan"), h, hi)
    seg = Segment(0.0, 2.0, h, hi)
    assert seg.is_constant


def test_schedule_requires_contiguous_segments():
    h = HermitianMatrix(np.diag([0.0, 1.0]))
    hi = HermitianMatrix(np.zeros((4, 4)))
    a = Segment(0.0, 1.0, h, hi)
    b = Segment(1.5, 2.0, h, hi)  # gap after a
    with pytest.raises(InvalidSchedule):
        HamiltonianSchedule(h, (a, b))
    c = Segment(1.0, 2.0, h, hi)
    sched = HamiltonianSchedule(h, (a, c))
    assert abs(sched.tau - 2.0) < 1e-15
    assert sched.d_s == 2 and sched.d_e == 2


def test_total_hamiltonian_assembly():
    # H(t) = h_sys (x) 1 + 1 (x) h_env + h_int, equal to the Kronecker form
    # bit for bit, including on unequal factors.
    for d_s, d_e, seed in ((2, 2, 1), (3, 4, 15)):
        sched, _ = _exchange_schedule(d_s=d_s, d_e=d_e, seed=seed)
        seg = sched.segments[0]
        h = sched.total_hamiltonian(0.3)
        oracle = (
            np.kron(seg.h_sys.mat, np.eye(d_e))
            + np.kron(np.eye(d_s), sched.h_env.mat)
            + seg.h_int.mat
        )
        assert np.array_equal(h, oracle)


def test_evolve_preserves_state_validity():
    sched, rng = _exchange_schedule(seed=2)
    initial = rand_bipartite(rng, 2, 2)
    traj = evolve(initial, sched, steps_per_segment=50)
    assert len(traj) == 51
    assert traj.times[0] == 0.0 and abs(traj.times[-1] - sched.tau) < 1e-15
    for k in (0, 25, 50):
        state = traj.state(k)
        ev = np.linalg.eigvalsh(state.mat)
        assert abs(np.sum(ev) - 1.0) < 1e-12
        assert ev[0] > -1e-12


def test_evolve_constant_segment_matches_expm():
    # One constant segment is integrated exactly; compare with scipy expm.
    sched, rng = _exchange_schedule(seed=3, tau=1.7)
    initial = rand_bipartite(rng, 2, 2)
    traj = evolve(initial, sched, steps_per_segment=40)
    h = sched.total_hamiltonian(0.0)
    u = sla.expm(-1j * h * sched.tau)
    oracle = u @ initial.mat @ u.conj().T
    assert np.max(np.abs(traj.final.mat - oracle)) < 1e-12


def test_evolve_joint_entropy_is_constant():
    sched, rng = _exchange_schedule(seed=4)
    initial = rand_bipartite(rng, 2, 2)
    traj = evolve(initial, sched, steps_per_segment=100)
    joint = traj.joint_entropies()
    assert np.max(np.abs(joint - joint[0])) < 1e-10


def test_evolve_zero_coupling_leaves_env_alone():
    rng = np.random.default_rng(5)
    h_sys = rand_hermitian(rng, 2)
    h_env = rand_env_hamiltonian(rng, 3)
    h_int = HermitianMatrix(np.zeros((6, 6)))
    sched = HamiltonianSchedule(h_env, (Segment(0.0, 2.0, h_sys, h_int),))
    initial = tensor_product(rand_density(rng, 2), rand_density(rng, 3))
    traj = evolve(BipartiteState(2, 3, initial.mat), sched, steps_per_segment=60)
    assert np.max(np.abs(traj.env_energy - traj.env_energy[0])) < 1e-12
    assert np.max(np.abs(traj.beta_star - traj.beta_star[0])) < 1e-9
    assert np.max(np.abs(traj.mutual_informations())) < 1e-10
    assert np.max(np.abs(traj.heat_flux)) < 1e-12


def test_trajectory_env_energy_and_beta_star():
    sched, rng = _exchange_schedule(seed=6)
    initial = rand_bipartite(rng, 2, 2)
    traj = evolve(initial, sched, steps_per_segment=30)
    solver = GibbsSolver(sched.h_env)
    for k in (0, 15, 30):
        state = traj.state(k)
        energy = float(np.real(np.trace(state.rho_env.mat @ sched.h_env.mat)))
        assert abs(traj.env_energy[k] - energy) < 1e-12
        assert abs(traj.beta_star[k] - effective_beta(state.rho_env, sched.h_env)) < 1e-10
        assert abs(solver.energy(traj.beta_star[k]) - energy) < 1e-10


def test_heat_flux_matches_energy_rate_formula():
    sched, rng = _exchange_schedule(seed=7)
    initial = rand_bipartite(rng, 2, 2)
    traj = evolve(initial, sched, steps_per_segment=400)
    # finite-difference oracle for d/dt tr[rho_E H_E] against the commutator form
    k = 200
    dt = traj.times[1] - traj.times[0]
    fd = (traj.env_energy[k + 1] - traj.env_energy[k - 1]) / (2 * dt)
    h_tot = HermitianMatrix(sched.total_hamiltonian(traj.times[k]))
    rate = env_energy_rate(traj.state(k), h_tot, sched.h_env)
    assert abs(rate - fd) < 1e-6
    assert abs(traj.heat_flux[k] + rate) < 1e-12


@pytest.mark.parametrize("d_s, d_e, repeated", [(2, 2, False), (2, 3, False), (4, 8, False),
                                                (2, 3, True)])
def test_eigenframe_energy_and_rate_at_every_grid_point(d_s, d_e, repeated):
    # A constant segment reads both from one product x = (a W) o conj(a) per
    # batch, W = rho0 o E~^T: E_k = Re sum_j x_kj and R_k = -2 Im sum_j x_kj f_j.
    # H_int = 0 with H_S ~ I repeats every frequency d_s times.
    sched, rng = _exchange_schedule(d_s, d_e, tau=1.3, seed=12 + d_s * d_e)
    if repeated:
        seg = Segment(0.0, 1.3, 0.7 * np.eye(d_s), np.zeros((d_s * d_e,) * 2))
        sched = HamiltonianSchedule(sched.h_env, (seg,))
    traj = evolve(rand_bipartite(rng, d_s, d_e), sched, steps_per_segment=60)
    h_total = HermitianMatrix(sched.total_hamiltonian(0.0))
    for k in range(len(traj)):
        state = traj.state(k)
        assert abs(traj.env_energy[k] - sched.gibbs.mean_energy(state.rho_env.mat)) <= 1e-12
        assert abs(traj.segment_rates[0][k]
                   - env_energy_rate(state, h_total, sched.h_env)) <= 1e-12


def test_env_energy_rate_closed_form():
    # i tr[rho [H, 1 (x) H_E]] via explicit commutator, random inputs.
    rng = np.random.default_rng(8)
    for _ in range(10):
        state = rand_bipartite(rng, 2, 3)
        h_tot = rand_hermitian(rng, 6)
        h_env = rand_env_hamiltonian(rng, 3)
        he_full = np.kron(np.eye(2), h_env.mat)
        comm = h_tot.mat @ he_full - he_full @ h_tot.mat
        oracle = float(np.real(1j * np.trace(state.mat @ comm)))
        assert abs(env_energy_rate(state, h_tot, h_env) - oracle) < 1e-12


def test_multi_segment_schedule_continuity():
    rng = np.random.default_rng(9)
    h_env = rand_env_hamiltonian(rng, 2)
    segs = []
    t = 0.0
    for _ in range(3):
        seg = Segment(t, t + 0.5, rand_hermitian(rng, 2, scale=0.4),
                      rand_hermitian(rng, 4, scale=0.3))
        segs.append(seg)
        t += 0.5
    sched = HamiltonianSchedule(h_env, tuple(segs))
    initial = rand_bipartite(rng, 2, 2)
    traj = evolve(initial, sched, steps_per_segment=20)
    assert len(traj) == 61
    assert len(traj.segment_slices) == 3
    # piecewise evolution agrees with the product of per-segment propagators
    rho = initial.mat
    for seg in segs:
        u = sla.expm(-1j * sched.total_hamiltonian(seg.t_start, seg) * 0.5)
        rho = u @ rho @ u.conj().T
    assert np.max(np.abs(traj.final.mat - rho)) < 1e-11


def test_time_dependent_segment_converges():
    # callable terms integrate with second-order midpoint error
    rng = np.random.default_rng(10)
    h_env = rand_env_hamiltonian(rng, 2)
    base = rand_hermitian(rng, 4, scale=0.4).mat
    h_sys = rand_hermitian(rng, 2, scale=0.3)

    def h_int(t):
        return HermitianMatrix(np.cos(1.3 * t) * base)

    sched = HamiltonianSchedule(h_env, (Segment(0.0, 1.0, h_sys, h_int),))
    initial = rand_bipartite(rng, 2, 2)
    coarse = evolve(initial, sched, steps_per_segment=100).final.mat
    fine = evolve(initial, sched, steps_per_segment=400).final.mat
    exact = evolve(initial, sched, steps_per_segment=6400).final.mat
    err_coarse = np.max(np.abs(coarse - exact))
    err_fine = np.max(np.abs(fine - exact))
    assert err_fine < err_coarse / 10  # at least order 2 in the step count
    assert err_fine < 1e-7


def test_write_csv_layout():
    sched, rng = _exchange_schedule(seed=11)
    initial = rand_bipartite(rng, 2, 2)
    traj = evolve(initial, sched, steps_per_segment=5)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,env_energy,beta_star,heat_flux,S_system,mutual_information"
    assert len(lines) == 7
    row = [float(x) for x in lines[3].split(",")]
    k = 2
    assert abs(row[0] - traj.times[k]) < 1e-15
    assert abs(row[1] - traj.env_energy[k]) < 1e-15
    assert abs(row[4] - von_neumann_entropy(traj.state(k).rho_sys)) < 1e-12
    assert abs(row[5] - mutual_information(traj.state(k))) < 1e-12



def test_write_csv_diagonalizes_the_system_marginals_once(monkeypatch):
    sched, rng = _exchange_schedule(seed=11)
    traj = evolve(rand_bipartite(rng, 2, 2), sched, steps_per_segment=5)
    calls = []
    entropies = Trajectory.system_entropies
    monkeypatch.setattr(Trajectory, "system_entropies",
                        lambda self: calls.append(1) or entropies(self))
    traj.write_csv(io.StringIO())
    assert len(calls) == 1


def test_evolve_rejects_mismatched_state():
    sched, rng = _exchange_schedule(seed=12)
    wrong = rand_bipartite(rng, 2, 3)
    with pytest.raises(InvalidInput):
        evolve(wrong, sched, steps_per_segment=5)
    good = rand_bipartite(rng, 2, 2)
    for steps in (0, 2.7, 10.0, "10", True, None):
        with pytest.raises(InvalidInput):
            evolve(good, sched, steps_per_segment=steps)
    assert len(evolve(good, sched, steps_per_segment=np.int64(3))) == 4


def _expm_oracle(sched, initial, steps):
    """Grid states, env energies and heat fluxes from scipy expm propagators."""
    env_term = np.kron(np.eye(sched.d_s), sched.h_env.mat)
    rho, states, energies, fluxes = initial.mat, [], [], []
    for seg in sched.segments:
        h = sched.total_hamiltonian(seg.t_start, seg)
        r = -1j * (env_term @ h - h @ env_term)
        dt = (seg.t_end - seg.t_start) / steps
        start = rho
        seg_states = []
        for k in range(steps + 1):
            u = sla.expm(-1j * h * (k * dt))
            seg_states.append(u @ start @ u.conj().T)
        rho = seg_states[-1]
        if states:  # the shared boundary carries the later segment's rate
            states.pop(), energies.pop(), fluxes.pop()
        for x in seg_states:
            states.append(x)
            energies.append(np.trace(x @ env_term).real)
            fluxes.append(-np.trace(x @ r).real)
    return np.array(states), np.array(energies), np.array(fluxes)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_constant_segments_match_expm_at_every_grid_point(offset):
    # Three constant segments at 4x8; the offset shifts H by offset * I,
    # which the closed form must cancel exactly in its phases.
    rng = np.random.default_rng(13)
    d_s, d_e, steps = 4, 8, 12
    h_env = rand_env_hamiltonian(rng, d_e)
    segs, t = [], 0.0
    for length in (0.6, 0.9, 0.75):
        h_int = rand_hermitian(rng, d_s * d_e, scale=0.4).mat + offset * np.eye(d_s * d_e)
        segs.append(Segment(t, t + length, rand_hermitian(rng, d_s, scale=0.5), h_int))
        t += length
    sched = HamiltonianSchedule(h_env, segs)
    initial = rand_bipartite(rng, d_s, d_e)
    traj = evolve(initial, sched, steps_per_segment=steps)
    states, energies, fluxes = _expm_oracle(sched, initial, steps)
    assert len(traj) == len(states) == 3 * steps + 1
    assert np.max(np.abs(traj.rho - states)) < 1e-11
    assert np.max(np.abs(traj.env_energy - energies)) < 1e-11
    assert np.max(np.abs(traj.heat_flux - fluxes)) < 1e-11
    assert np.max(np.abs(traj.final.mat - states[-1])) < 1e-11


def test_constant_driven_constant_boundaries_agree():
    rng = np.random.default_rng(14)
    d_s, d_e, steps = 2, 3, 40
    h_env = rand_env_hamiltonian(rng, d_e)
    base = rand_hermitian(rng, d_s * d_e, scale=0.3).mat
    drive = rand_hermitian(rng, d_s * d_e, scale=0.2).mat

    def h_int(t):
        return HermitianMatrix(base + np.sin(2.0 * t) * drive)

    segs = (
        Segment(0.0, 0.7, rand_hermitian(rng, d_s, scale=0.5), rand_hermitian(rng, 6, scale=0.3)),
        Segment(0.7, 1.5, rand_hermitian(rng, d_s, scale=0.5), h_int),
        Segment(1.5, 2.0, rand_hermitian(rng, d_s, scale=0.5), rand_hermitian(rng, 6, scale=0.3)),
    )
    sched = HamiltonianSchedule(h_env, segs)
    initial = rand_bipartite(rng, d_s, d_e)
    traj = evolve(initial, sched, steps_per_segment=steps)
    assert "rho" not in traj.__dict__
    rho = traj.rho
    assert not rho.flags.writeable
    # Each constant segment is exact from the state its predecessor left.
    for seg, sl in zip((segs[0], segs[2]), (traj.segment_slices[0], traj.segment_slices[2])):
        u = sla.expm(-1j * sched.total_hamiltonian(seg.t_start, seg) * (seg.t_end - seg.t_start))
        oracle = u @ rho[sl.start] @ u.conj().T
        assert np.max(np.abs(rho[sl.stop - 1] - oracle)) < 1e-12
    assert np.array_equal(rho[0], initial.mat)
    assert np.array_equal(rho[-1], traj.final.mat)
    # At each shared boundary both segments see the same state: the energy is
    # continuous, and each side's rate is its own generator's rate there.
    for left, right, a, b in zip(segs, segs[1:], traj.segment_slices,
                                 traj.segment_slices[1:]):
        k = a.stop - 1
        assert k == b.start
        state = traj.state(k)
        energy = float(np.trace(state.rho_env.mat @ h_env.mat).real)
        assert abs(traj.env_energy[k] - energy) < 1e-12
        t_k = float(traj.times[k])
        for seg, rates, idx in ((left, traj.segment_rates[a.start // steps], -1),
                                (right, traj.segment_rates[b.start // steps], 0)):
            h_tot = HermitianMatrix(sched.total_hamiltonian(t_k, seg))
            assert abs(rates[idx] - env_energy_rate(state, h_tot, h_env)) < 1e-12
        assert traj.heat_flux[k] == -traj.segment_rates[b.start // steps][0]


def test_run_scenario_leaves_the_state_stack_unbuilt():
    sc = load_scenario(str(BUNDLED))
    result = run_scenario(sc)
    traj = result.trajectory
    assert "rho" not in traj.__dict__
    assert np.array_equal(traj.initial.mat, sc.initial.mat)
    assert np.isfinite(result.report.entropy_production)
    assert "rho" not in traj.__dict__
    assert np.array_equal(traj.rho[-1], traj.final.mat)
    assert "rho" in traj.__dict__


def test_grid_observables_are_built_together_on_first_read_and_read_only():
    rng = np.random.default_rng(21)
    sched, _ = _driven_schedule(rng, 2, 3, drive_int=True)
    driven = sched.segments[0]
    sched = HamiltonianSchedule(sched.h_env, (
        driven, Segment(1.3, 2.0, rand_hermitian(rng, 2), rand_hermitian(rng, 6, scale=0.3))))
    traj = evolve(rand_bipartite(rng, 2, 3), sched, steps_per_segment=20)
    assert "_observables" not in traj.__dict__
    energy, flux, rates = traj.env_energy, traj.heat_flux, traj.segment_rates
    assert "_observables" in traj.__dict__
    assert traj.env_energy is energy and traj.heat_flux is flux and traj.segment_rates is rates
    assert (energy[0], energy[-1]) == traj.env_energy_ends
    for arr in (energy, flux, *rates):
        assert not arr.flags.writeable
    for name in ("env_energy", "heat_flux", "segment_rates"):
        with pytest.raises(AttributeError):
            setattr(traj, name, energy)


def test_drive_wrong_only_at_grid_times_fails_where_the_rates_are_read():
    # evolve reads h_int at the midpoints alone; grid times come with the rates.
    rng = np.random.default_rng(22)
    h_int, steps = rand_hermitian(rng, 4, scale=0.3), 10

    def term(t):
        k = t * steps
        return np.zeros((3, 3)) if t > 0 and abs(k - round(k)) < 1e-9 else h_int

    sched = HamiltonianSchedule(rand_env_hamiltonian(rng, 2),
                                (Segment(0.0, 1.0, rand_hermitian(rng, 2), term),))
    traj = evolve(rand_bipartite(rng, 2, 2), sched, steps_per_segment=steps)
    with pytest.raises(InvalidSchedule, match="h_int at t=0.1 "):
        traj.heat_flux


def _driven_schedule(rng, d_s, d_e, drive_int):
    """One segment driven by sin(omega t) V through h_sys or h_int."""
    h_env = rand_env_hamiltonian(rng, d_e)
    h_sys = rand_hermitian(rng, d_s, scale=0.5)
    h_int = rand_hermitian(rng, d_s * d_e, scale=0.3)
    base = h_int if drive_int else h_sys
    drive = rand_hermitian(rng, base.dim, scale=0.3).mat
    calls = []

    def term(t):
        calls.append(t)
        return HermitianMatrix(base.mat + np.sin(2.3 * t) * drive)

    h_sys, h_int = (h_sys, term) if drive_int else (term, h_int)
    return HamiltonianSchedule(h_env, (Segment(0.0, 1.3, h_sys, h_int),)), calls


@pytest.mark.parametrize("drive_int", [False, True])
def test_driven_segment_matches_per_step_reference(drive_int):
    # The per-step loop the stacked segment replaced: one exp(-i H(t+dt/2) dt)
    # per substep, and each rate from the full Hamiltonian at its grid time.
    # At 3x4 and 150 steps the segment spans several chunks.
    rng = np.random.default_rng(16)
    d_s, d_e, steps = 3, 4, 150
    sched, _ = _driven_schedule(rng, d_s, d_e, drive_int)
    seg = sched.segments[0]
    initial = rand_bipartite(rng, d_s, d_e)
    traj = evolve(initial, sched, steps_per_segment=steps)
    dt = seg.t_end / steps
    states = [initial.mat]
    for i in range(steps):
        u = sla.expm(-1j * sched.total_hamiltonian((i + 0.5) * dt, seg) * dt)
        states.append(u @ states[-1] @ u.conj().T)
    rates = [
        env_energy_rate(BipartiteState(d_s, d_e, x),
                        HermitianMatrix(sched.total_hamiltonian(t, seg)), sched.h_env)
        for x, t in zip(states, traj.times)
    ]
    assert np.max(np.abs(traj.rho - np.array(states))) < 1e-12
    assert np.max(np.abs(traj.segment_rates[0] - rates)) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 12])
def test_prefix_products_match_the_sequential_product(d):
    # Block widths isqrt(n) with and without identity padding, and one block.
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 15, 16, 17, 150, 512):
        u = _expi(np.stack([rand_hermitian(rng, d).mat for _ in range(n)]), 0.7)
        p = _prefix_products(u)
        expected = [u[0]]
        for row in u[1:]:
            expected.append(row @ expected[-1])
        assert p.shape == u.shape
        assert np.max(np.abs(p - np.array(expected))) < 1e-13


def test_long_driven_segment_stays_a_state_and_matches_expm():
    # 2000 steps at 3x4 span 36 chunks of prefix products, each started from
    # the last state of the one before; a pure start makes lambda_min drift show.
    rng = np.random.default_rng(21)
    d_s, d_e, steps = 3, 4, 2000
    sched, _ = _driven_schedule(rng, d_s, d_e, drive_int=True)
    seg = sched.segments[0]
    v = rng.normal(size=d_s * d_e) + 1j * rng.normal(size=d_s * d_e)
    initial = BipartiteState(d_s, d_e, np.outer(v, v.conj()) / np.vdot(v, v).real)
    rho = evolve(initial, sched, steps_per_segment=steps).rho
    assert np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))) <= 1e-12
    assert np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)) <= 1e-12
    assert np.linalg.eigvalsh(rho)[:, 0].min() >= -1e-12
    dt = seg.t_end / steps
    state = initial.mat
    for i in range(steps):
        u = sla.expm(-1j * sched.total_hamiltonian((i + 0.5) * dt, seg) * dt)
        state = u @ state @ u.conj().T
        assert np.max(np.abs(rho[i + 1] - state)) < 1e-11


def test_schedule_reads_the_first_drive_once():
    # d_s is taken from the same evaluation that checks the first h_sys.
    rng = np.random.default_rng(18)
    h_sys = rand_hermitian(rng, 2)
    calls = []

    def term(t):
        calls.append(t)
        return h_sys

    HamiltonianSchedule(rand_env_hamiltonian(rng, 3),
                        (Segment(0.0, 1.0, term, rand_hermitian(rng, 6)),))
    assert calls == [0.0]


def test_sys_driven_segment_calls_its_drive_once_per_step():
    # Rates need only h_int, so a drive on h_sys is read at the midpoints only.
    rng = np.random.default_rng(17)
    sched, calls = _driven_schedule(rng, 2, 3, drive_int=False)
    initial = rand_bipartite(rng, 2, 3)
    calls.clear()
    evolve(initial, sched, steps_per_segment=40)
    assert len(calls) == 40


def test_int_driven_segment_calls_its_drive_at_midpoints_and_grid_times():
    # evolve reads h_int at each midpoint for the propagator; the rates,
    # built on first read, add each grid time.
    rng = np.random.default_rng(17)
    sched, calls = _driven_schedule(rng, 2, 3, drive_int=True)
    initial = rand_bipartite(rng, 2, 3)
    calls.clear()
    traj = evolve(initial, sched, steps_per_segment=40)
    dt = sched.tau / 40
    assert len(calls) == 40
    assert np.allclose(calls, (np.arange(40) + 0.5) * dt, rtol=0, atol=1e-14)
    traj.heat_flux
    assert len(calls) == 2 * 40 + 1
    assert np.allclose(sorted(calls), np.arange(81) * dt / 2, rtol=0, atol=1e-14)


def test_callable_term_changing_shape_is_an_invalid_schedule():
    h_sys = HermitianMatrix(np.diag([0.0, 1.0]))

    def h_int(t):
        return np.zeros((4, 4)) if t < 0.5 else np.zeros((3, 3))

    sched = HamiltonianSchedule(h_sys, (Segment(0.0, 1.0, h_sys, h_int),))
    initial = rand_bipartite(np.random.default_rng(18), 2, 2)
    with pytest.raises(InvalidSchedule, match="h_int at t=0.55"):
        evolve(initial, sched, steps_per_segment=10)


def test_segment_propagation_overflow_raises_numerical_error():
    # A constant segment whose spectrum overflows to inf.
    huge = np.full((2, 2), 1e308)
    sched = HamiltonianSchedule(np.diag([0.0, 1.0]), (Segment(0.0, 1.0, huge, np.zeros((4, 4))),))
    initial = BipartiteState(2, 2, np.eye(4) / 4)
    with pytest.raises(NumericalError, match="^segment propagation: "):
        evolve(initial, sched, steps_per_segment=5)
    # A driven one whose ||H dt||_1 overflows to inf once hung in _expi's scaling
    # loop, so it runs in a child process with a timeout.
    code = ("import numpy as np\n"
            "from qthermo import BipartiteState, HamiltonianSchedule, HermitianMatrix, Segment, evolve\n"
            "big = HermitianMatrix(np.full((4, 4), 1e308))\n"
            "seg = Segment(0.0, 1.0, np.zeros((2, 2)), lambda t: big)\n"
            "sched = HamiltonianSchedule(np.diag([0.0, 1.0]), (seg,))\n"
            "evolve(BipartiteState(2, 2, np.eye(4) / 4), sched, 5)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert "qthermo.errors.NumericalError: segment propagation: " in run.stderr


@pytest.mark.parametrize("driven", [False, True])
def test_hamiltonian_sum_overflow_raises_numerical_error(driven):
    # Finite terms whose sum overflows: NumPy's overflow RuntimeWarning escaped from
    # the sum before any propagation check could raise.
    h_int = np.zeros((4, 4))
    h_int[0, 0] = 1e308
    term = (lambda t: HermitianMatrix(h_int)) if driven else h_int
    seg = Segment(0.0, 1.0, np.diag([1e308, 0.0]), term)
    sched = HamiltonianSchedule(np.diag([0.0, 1.0]), (seg,))
    with pytest.raises(NumericalError, match=r"^segment propagation: H on \[0\.0, 1\.0\] "):
        evolve(BipartiteState(2, 2, np.eye(4) / 4), sched, steps_per_segment=5)


def test_state_builds_one_grid_point_without_the_stack():
    rng = np.random.default_rng(19)
    d_s, d_e, steps = 2, 3, 25
    h_env = rand_env_hamiltonian(rng, d_e)
    base = rand_hermitian(rng, d_s * d_e, scale=0.3).mat

    def h_int(t):
        return HermitianMatrix(np.cos(1.7 * t) * base)

    segs = (
        Segment(0.0, 0.6, rand_hermitian(rng, d_s, scale=0.5), rand_hermitian(rng, 6, scale=0.3)),
        Segment(0.6, 1.4, rand_hermitian(rng, d_s, scale=0.5), h_int),
        Segment(1.4, 2.0, rand_hermitian(rng, d_s, scale=0.5), rand_hermitian(rng, 6, scale=0.3)),
    )
    traj = evolve(rand_bipartite(rng, d_s, d_e), HamiltonianSchedule(h_env, segs), steps)
    n = len(traj)
    states = [traj.state(k).mat for k in range(n)]
    negative = [traj.state(k).mat for k in range(-n, 0)]
    with pytest.raises(IndexError):
        traj.state(n)
    assert "rho" not in traj.__dict__
    assert np.max(np.abs(np.array(states) - traj.rho)) <= 1e-14
    assert np.array_equal(np.array(negative), np.array(states))


@pytest.mark.parametrize("d_s, d_e", [(1, 2), (2, 3), (3, 4)])
@pytest.mark.parametrize("driven", ["h_sys", "h_int"])
def test_constant_and_driven_segments_agree_on_a_fixed_hamiltonian(driven, d_s, d_e):
    # The same fixed term given as a callable runs the driven path; both kinds
    # must then answer every state and grid observable alike.
    rng = np.random.default_rng(100 * d_s + d_e)
    h_env = rand_env_hamiltonian(rng, d_e)
    terms = {"h_sys": rand_hermitian(rng, d_s, scale=0.5),
             "h_int": rand_hermitian(rng, d_s * d_e, scale=0.3)}
    fixed = terms[driven]
    initial = rand_bipartite(rng, d_s, d_e)
    trajs = [
        evolve(initial, HamiltonianSchedule(h_env, (Segment(0.0, 2.0, **t),)), 300)
        for t in (terms, dict(terms, **{driven: lambda t: fixed}))
    ]
    const, drive = trajs
    assert const.schedule.segments[0].is_constant
    assert not drive.schedule.segments[0].is_constant
    assert np.max(np.abs(const.rho - drive.rho)) <= 1e-12
    for k in range(len(const)):
        assert np.max(np.abs(const.state(k).mat - drive.state(k).mat)) <= 1e-12
    for name in ("env_energy", "heat_flux"):
        assert np.max(np.abs(getattr(const, name) - getattr(drive, name))) <= 1e-12
    for a, b in zip(const.segment_rates, drive.segment_rates, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-12
