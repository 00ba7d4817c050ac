"""Randomized self-verification of the library's identities and inequalities.

Each named check draws seeded random scenarios, evaluates one exact identity
or inequality, and yields one residual per case.  ``run_verify`` tallies
each check's residuals into the case count, failure count, and worst
residual against its tolerance; any failure flips the suite to failed.

Checks whose scenarios need full trajectory integration run on a tenth of
the configured case count to keep the default suite in the seconds range.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    entropy_gap_bound,
    product_trace_distance_bound,
    sufficient_nonneg_general,
    sufficient_nonneg_product,
    trace_distance_bound,
)
from .dynamics import HamiltonianSchedule, Segment, evolve
from .entropy_production import (
    TabulatedBeta,
    _matched_entropy_form,
    build_report,
    entropy_production,
    entropy_production_rate,
)
from .errors import InvalidInput
from .linalg import BipartiteState, DensityMatrix, _expi, trace_distance
from .rand import (
    rand_bipartite,
    rand_density,
    rand_env_hamiltonian,
    rand_hermitian,
    rand_product,
    rand_unitary,
)
from .thermo import (
    GibbsSolver,
    _solver,
    effective_beta,
    mutual_information,
    relative_entropy,
    von_neumann_entropy,
)

_DEFAULT_DIMS = ((2, 2), (2, 3), (3, 4))


@dataclass(frozen=True)
class VerifySuiteConfig:
    """Knobs for the verification sweep.

    ``tolerances`` overrides per-check tolerances by name; unknown names are
    rejected by ``run_verify``.  ``dims`` lists (system, environment)
    dimension pairs the scenario generators cycle through.
    """

    num_random_scenarios: int = 1000
    dims: tuple = _DEFAULT_DIMS
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if _as_int(self.num_random_scenarios, "num_random_scenarios") < 1:
            raise InvalidInput("num_random_scenarios must be >= 1")
        if _as_int(self.seed, "seed") < 0:
            raise InvalidInput("seed must be >= 0")
        try:
            dims = tuple((operator.index(a), operator.index(b)) for a, b in self.dims)
        except (TypeError, ValueError):
            raise InvalidInput(f"dims must be (system, environment) integer pairs, "
                               f"got {self.dims!r}") from None
        if not dims:
            raise InvalidInput("dims must not be empty")
        for d_s, d_e in dims:
            if d_s < 1 or d_e < 2:
                raise InvalidInput(f"invalid dims ({d_s}, {d_e})")
        object.__setattr__(self, "dims", dims)
        for name, tol in self.tolerances.items():
            try:
                ok = 0.0 <= float(tol) < math.inf
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise InvalidInput(f"tolerance {name}={tol!r} must be finite and >= 0")


def _as_int(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    num_cases: int
    num_failures: int
    worst_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.num_failures == 0


def _cases(cfg: VerifySuiteConfig, tenth: bool = False):
    """(i, d_s, d_e) per case, cycling through ``cfg.dims``; ``tenth`` runs a
    tenth of the cases, at least 5, for checks that integrate trajectories."""
    num = cfg.num_random_scenarios
    for i in range(max(num // 10, 5) if tenth else num):
        yield (i, *cfg.dims[i % len(cfg.dims)])


def _rotated(rng, state: BipartiteState) -> BipartiteState:
    """The state after a Haar-random joint unitary."""
    u = rand_unitary(rng, state.d_s * state.d_e).mat
    return BipartiteState._trusted(state.d_s, state.d_e, u @ state.state.mat @ u.conj().T)


def _matched(initial: BipartiteState, final: BipartiteState,
             solver: GibbsSolver) -> tuple[float, float, float]:
    """beta* at both endpoints and the matched entropy production."""
    bs0 = solver.beta_star(initial.rho_env)
    bs1 = solver.beta_star(final.rho_env)
    return bs0, bs1, _matched_entropy_form(initial, final, solver, bs0, bs1)


def _random_endpoints(rng, d_s, d_e):
    """Random correlated initial, Haar-unitary final, random environment H."""
    initial = rand_bipartite(rng, d_s, d_e)
    return initial, _rotated(rng, initial), rand_env_hamiltonian(rng, d_e)


def _check_mutual_info_decomposition(rng, cfg):
    for _, d_s, d_e in _cases(cfg):
        rho = rand_bipartite(rng, d_s, d_e)
        info = mutual_information(rho)
        ref = DensityMatrix._trusted(np.kron(rho.rho_sys.mat, rho.rho_env.mat))
        div = relative_entropy(rho.state, ref)
        yield max(abs(info - div), -min(info, 0.0))


def _ramp_schedule_and_policy(rng, d_s, d_e, tau=1.0):
    """Small-norm constant schedule plus a smooth tabulated beta ramp."""
    h_sys = rand_hermitian(rng, d_s, scale=0.4)
    h_env = rand_env_hamiltonian(rng, d_e, spread=1.2, offset=rng.uniform(-0.5, 0.5))
    h_int = rand_hermitian(rng, d_s * d_e, scale=rng.uniform(0.2, 0.4))
    sched = HamiltonianSchedule(h_env, [
        Segment(0.0, tau, h_sys, h_int),
    ])
    knots = np.linspace(0.0, tau, 9)
    betas = rng.uniform(-1.5, 1.5) + rng.uniform(-1.0, 1.0) * np.sin(
        np.pi * knots / tau + rng.uniform(0, np.pi)
    )
    policy = TabulatedBeta(tuple(knots), tuple(betas))
    return sched, policy


def _check_clausius_split(rng, cfg):
    for _, d_s, d_e in _cases(cfg, tenth=True):
        sched, policy = _ramp_schedule_and_policy(rng, d_s, d_e)
        initial = rand_bipartite(rng, d_s, d_e)
        traj = evolve(initial, sched, steps_per_segment=1000)
        yield build_report(traj, policy).residual_split


def _check_star_reduction(rng, cfg):
    for _, d_s, d_e in _cases(cfg):
        initial, final, h_env = _random_endpoints(rng, d_s, d_e)
        bs0, bs1, star = _matched(initial, final, _solver(h_env))
        ep = entropy_production(initial, final, bs0, bs1, h_env)
        yield abs(ep - star)


def _check_pythagorean(rng, cfg):
    for _, _, d_e in _cases(cfg):
        rho_env = rand_density(rng, d_e)
        h_env = rand_env_hamiltonian(rng, d_e)
        beta = rng.uniform(-3.0, 3.0)
        solver = _solver(h_env)
        beta_star = solver.beta_star(rho_env)
        total = relative_entropy(rho_env, solver.state(beta))
        to_star = relative_entropy(rho_env, solver.state(beta_star))
        across = solver.gibbs_relative_entropy(beta_star, beta)
        r1 = abs(total - to_star - across)
        r2 = abs(to_star - (solver.entropy(beta_star) - von_neumann_entropy(rho_env)))
        yield max(r1, r2)


def _check_general_split(rng, cfg):
    for _, d_s, d_e in _cases(cfg):
        initial, final, h_env = _random_endpoints(rng, d_s, d_e)
        solver = _solver(h_env)
        bs0, bs1, star = _matched(initial, final, solver)
        beta0 = rng.uniform(-2.0, 2.0)
        beta_tau = rng.uniform(-2.0, 2.0)
        ep = entropy_production(initial, final, beta0, beta_tau, h_env)
        recon = (star + solver.gibbs_relative_entropy(bs1, beta_tau)
                 - solver.gibbs_relative_entropy(bs0, beta0))
        yield abs(ep - recon)


def _check_star_minimality(rng, cfg):
    for _, d_s, d_e in _cases(cfg, tenth=True):
        initial, final, h_env = _random_endpoints(rng, d_s, d_e)
        solver = _solver(h_env)
        bs0, bs1, star = _matched(initial, final, solver)
        grid = bs1 + np.linspace(-2.0, 2.0, 201)
        base = (mutual_information(final) - mutual_information(initial)
                - relative_entropy(initial.rho_env, solver.state(bs0)))
        values = base + solver.relative_entropy_profile(final.rho_env, grid)
        k = int(np.argmin(values))
        yield math.inf if abs(k - 100) > 1 else max(float(star - values.min()), 0.0)


def _check_reference_projection(rng, cfg):
    for _, d_s, d_e in _cases(cfg):
        rho = rand_bipartite(rng, d_s, d_e)
        h_env = rand_env_hamiltonian(rng, d_e)
        solver = _solver(h_env)
        beta = rng.uniform(-2.0, 2.0)
        ref = DensityMatrix._trusted(np.kron(rho.rho_sys.mat, solver.state(beta).mat))
        joint = relative_entropy(rho.state, ref)
        split = mutual_information(rho) + relative_entropy(rho.rho_env, solver.state(beta))
        yield abs(joint - split)


def _check_lower_bound_chain(rng, cfg):
    for i, d_s, d_e in _cases(cfg):
        if i % 2 == 0:
            initial = rand_bipartite(rng, d_s, d_e)
        else:
            initial = rand_product(rng, d_s, d_e)
        h_env = rand_env_hamiltonian(rng, d_e)
        final = _rotated(rng, initial)
        star = _matched(initial, final, _solver(h_env))[2]
        gap = entropy_gap_bound(initial, h_env)
        dist = trace_distance_bound(initial, h_env)
        worst = max(gap - star, dist - gap, 0.0)
        if i % 2 == 1:
            prod = product_trace_distance_bound(initial.rho_sys, initial.rho_env, h_env)
            worst = max(worst, prod - gap, dist - prod)
        yield worst


def _env_preserving_correlated(rng, d_s: int, solver: GibbsSolver, beta: float) -> BipartiteState:
    """Correlated joint state whose environment marginal is exactly thermal.

    A control-phase unitary sum_j |j><j| x exp(-i theta_j H_E) commutes with
    the thermal factor blockwise, so the environment marginal stays put
    while coherences of rho_S correlate the factors.
    """
    d_e = solver.dim
    rho_s = rand_density(rng, d_s)
    gamma = solver.state(beta).mat
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=d_s)
    blocks = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
    phases = [
        (solver.basis * np.exp(-1j * th * solver.energies)) @ solver.basis.conj().T
        for th in thetas
    ]
    for j in range(d_s):
        for k in range(d_s):
            block = rho_s.mat[j, k] * (phases[j] @ gamma @ phases[k].conj().T)
            blocks[j * d_e:(j + 1) * d_e, k * d_e:(k + 1) * d_e] = block
    return BipartiteState(d_s, d_e, blocks)


def _check_special_cases(rng, cfg):
    for i, d_s, d_e in _cases(cfg):
        h_env = rand_env_hamiltonian(rng, d_e)
        solver = _solver(h_env)
        if i % 2 == 0:
            beta = rng.uniform(-2.0, 2.0)
            rho = _env_preserving_correlated(rng, d_s, solver, beta)
            gap = entropy_gap_bound(rho, h_env)
            yield abs(gap + mutual_information(rho))
        else:
            rho = rand_product(rng, d_s, d_e)
            gap = entropy_gap_bound(rho, h_env)
            bs0 = solver.beta_star(rho.rho_env)
            expected = von_neumann_entropy(rho.rho_env) - solver.entropy(bs0)
            yield abs(gap - expected)


def _check_fannes_audenaert(rng, cfg):
    for i, _, d_e in _cases(cfg):
        d = d_e + (i % 3)
        a = rand_density(rng, d)
        b = a if i % 7 == 0 else rand_density(rng, d)
        delta = trace_distance(a, b)
        lhs = abs(von_neumann_entropy(a) - von_neumann_entropy(b))
        log_term = delta * math.log(d - 1) if d > 2 else 0.0
        h2 = 0.0
        if 0.0 < delta < 1.0:
            h2 = -delta * math.log(delta) - (1 - delta) * math.log1p(-delta)
        yield max(lhs - (log_term + h2), 0.0)


def _check_pinsker(rng, cfg):
    for _, _, d_e in _cases(cfg):
        a = rand_density(rng, d_e)
        b = rand_density(rng, d_e)
        div = relative_entropy(a, b)
        dist = trace_distance(a, b)
        yield max(2.0 * dist * dist - div, 0.0)


def _check_sufficient_conditions(rng, cfg):
    for i, d_s, d_e in _cases(cfg):
        product = i % 2 == 1
        if product:
            initial = rand_product(rng, d_s, d_e)
        else:
            initial = rand_bipartite(rng, d_s, d_e)
        h_env = rand_env_hamiltonian(rng, d_e)
        final = _rotated(rng, initial)
        beta0 = rng.uniform(-2.0, 2.0)
        beta_tau = rng.uniform(-2.0, 2.0)
        ep = entropy_production(initial, final, beta0, beta_tau, h_env)
        check = sufficient_nonneg_general(final, beta_tau, initial, beta0, h_env)
        residual = max(-ep, 0.0) if check.holds else 0.0
        if product:
            check_p = sufficient_nonneg_product(
                final.rho_env, beta_tau, initial.rho_sys, initial.rho_env,
                beta0, h_env,
            )
            if check_p.holds:
                residual = max(residual, -ep, 0.0)
        yield residual


def _check_second_law(rng, cfg):
    for _, d_s, d_e in _cases(cfg):
        h_env = rand_env_hamiltonian(rng, d_e)
        solver = _solver(h_env)
        beta0 = rng.uniform(-2.0, 2.0)
        rho_s = rand_density(rng, d_s)
        initial = BipartiteState(d_s, d_e, np.kron(rho_s.mat, solver.state(beta0).mat))
        final = _rotated(rng, initial)
        ep_const = entropy_production(initial, final, beta0, beta0, h_env)
        ep_matched = _matched(initial, final, solver)[2]
        yield max(-ep_const, -ep_matched, 0.0)


def _check_rate_formula(rng, cfg):
    h_fd = 1e-4
    for _, d_s, d_e in _cases(cfg, tenth=True):
        sched, policy = _ramp_schedule_and_policy(rng, d_s, d_e)
        initial = rand_bipartite(rng, d_s, d_e)
        traj = evolve(initial, sched, steps_per_segment=200)
        solver = sched.gibbs
        # Evaluate strictly between tabulation knots: the piecewise-linear
        # policy has slope kinks there that finite differences must not span.
        k = int(np.argmin(np.abs(traj.times - 0.546 * sched.tau)))
        t_eval = float(traj.times[k])
        beta_mid = float(policy.values(t_eval))
        beta_dot = float((policy.values(t_eval + 1e-6) - policy.values(t_eval - 1e-6))
                         / 2e-6)
        state = traj.state(k)
        h_total = sched.total_hamiltonian(t_eval)
        rate = entropy_production_rate(state, h_total, sched.h_env, beta_mid, beta_dot)

        def div_at(dt: float) -> float:
            u = _expi(h_total, dt)
            shifted = BipartiteState._trusted(d_s, d_e, u @ state.state.mat @ u.conj().T)
            beta_t = float(policy.values(t_eval + dt))
            ref = DensityMatrix._trusted(np.kron(shifted.rho_sys.mat, solver.state(beta_t).mat))
            return relative_entropy(shifted.state, ref)

        fd = (div_at(h_fd) - div_at(-h_fd)) / (2 * h_fd)
        yield abs(rate - fd)


def _check_energy_monotonicity(rng, cfg):
    for i in range(cfg.num_random_scenarios):
        d_e = 2 + i % 7
        h_env = rand_env_hamiltonian(rng, d_e)
        solver = _solver(h_env)
        beta = rng.uniform(-3.0, 3.0)
        # Step in beta * (E_max - E_min): a fixed step in beta lets the
        # rounding of the energy difference, eps*|E|/h_fd, swamp the tiny
        # variance of a narrow spectrum.
        h_fd = 1e-5 / float(solver.energies[-1] - solver.energies[0])
        fd = (solver.energy(beta + h_fd) - solver.energy(beta - h_fd)) / (2 * h_fd)
        var = solver.variance(beta)
        yield abs(fd + var) / max(var, 1e-12)


def _check_beta_roundtrip(rng, cfg):
    for i in range(cfg.num_random_scenarios):
        d_e = 2 + i % 7
        # Narrow spectra keep thermal energies resolvable at |beta| = 20.
        h_env = rand_env_hamiltonian(rng, d_e, spread=0.5)
        solver = _solver(h_env)
        beta = rng.uniform(-20.0, 20.0)
        back = effective_beta(solver.state(beta), h_env)
        yield abs(back - beta)


_REGISTRY = (
    ("mutual_info_decomposition", 1e-9, _check_mutual_info_decomposition),
    ("clausius_split", 1e-6, _check_clausius_split),
    ("star_reduction", 1e-8, _check_star_reduction),
    ("pythagorean", 1e-8, _check_pythagorean),
    ("general_split", 1e-8, _check_general_split),
    ("star_minimality", 1e-8, _check_star_minimality),
    ("reference_projection", 1e-8, _check_reference_projection),
    ("lower_bound_chain", 1e-8, _check_lower_bound_chain),
    ("special_cases", 1e-9, _check_special_cases),
    ("fannes_audenaert", 1e-12, _check_fannes_audenaert),
    ("pinsker", 1e-10, _check_pinsker),
    ("sufficient_conditions", 1e-9, _check_sufficient_conditions),
    ("second_law", 1e-9, _check_second_law),
    ("rate_formula", 1e-5, _check_rate_formula),
    ("energy_monotonicity", 1e-6, _check_energy_monotonicity),
    ("beta_roundtrip", 1e-9, _check_beta_roundtrip),
)

CHECK_NAMES = tuple(name for name, _, _ in _REGISTRY)


def run_verify(cfg: VerifySuiteConfig = VerifySuiteConfig()) -> list[CheckResult]:
    """Run every check with per-check seeded generators; returns all results."""
    unknown = set(cfg.tolerances) - set(CHECK_NAMES)
    if unknown:
        raise InvalidInput(f"unknown check names in tolerances: {sorted(unknown)}")
    results = []
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(_REGISTRY))
    for (name, default_tol, check), seed in zip(_REGISTRY, seeds):
        tol = float(cfg.tolerances.get(name, default_tol))
        cases = failures = 0
        worst = 0.0
        for residual in check(np.random.default_rng(seed), cfg):
            if math.isnan(residual):
                residual = math.inf
            cases += 1
            worst = max(worst, residual)
            if residual > tol:
                failures += 1
        results.append(CheckResult(name=name, num_cases=cases, num_failures=failures,
                                   worst_residual=worst, tolerance=tol))
    return results


def format_results(results: list[CheckResult]) -> str:
    """Fixed-width table with one row per check and a final verdict line."""
    name_w = max(len(r.name) for r in results)
    lines = [
        f"{'check'.ljust(name_w)}  {'cases':>6}  {'fail':>4}  "
        f"{'worst residual':>15}  {'tolerance':>10}  status"
    ]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.name.ljust(name_w)}  {r.num_cases:>6}  {r.num_failures:>4}  "
            f"{r.worst_residual:>15.3e}  {r.tolerance:>10.1e}  {status}"
        )
    failed = sum(1 for r in results if not r.passed)
    total = len(results)
    lines.append(
        f"{total - failed}/{total} checks passed"
        + ("" if failed == 0 else f", {failed} FAILED")
    )
    return "\n".join(lines)
