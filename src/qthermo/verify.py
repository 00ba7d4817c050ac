"""Randomized self-verification of the library's identities and inequalities.

Each named check draws seeded random scenarios, evaluates one exact identity
or inequality, and yields one residual per case.  ``run_verify`` tallies
each check's residuals into the case count, failure count, and worst
residual against its tolerance; any failure flips the suite to failed.

Endpoint checks draw every case first, in case order, then evaluate the
cases of one shape as one stack through the stacked kernels that the public
functions run on a stack of one.

Checks whose scenarios need full trajectory integration run on a tenth of
the configured case count to keep the default suite in the seconds range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    _continuity_bound,
    _entropy_gap,
    _product_bound,
    _reference_distance,
    _sufficient_general,
    _sufficient_product,
)
from .dynamics import HamiltonianSchedule, Segment, evolve
from .entropy_production import (
    TabulatedBeta,
    _entropy_production,
    _matched_entropy_form,
    build_report,
    entropy_production_rate,
)
from .errors import InvalidInput
from .linalg import (
    BipartiteState,
    DensityMatrix,
    _as_int,
    _check_unitary,
    _dag,
    _expi,
    _kron,
    _trace_distance,
)
from .rand import (
    _env_draw,
    _env_matrix,
    _ginibre,
    _haar,
    _wishart,
    rand_bipartite,
    rand_env_hamiltonian,
    rand_hermitian,
)
from .thermo import (
    _beta_star,
    _Bipartite,
    _bipartite,
    _energy_variance,
    _env_divergence,
    _Gibbs,
    _gibbs,
    _GibbsRows,
    _gibbs_relative_entropy,
    _mutual_information,
    _relative_entropy,
    _states,
    _thermal,
    relative_entropy,
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
            dims = tuple((_as_int(a, "dims"), _as_int(b, "dims")) for a, b in self.dims)
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


def _cases(cfg: VerifySuiteConfig, tenth: bool = False, alternate: bool = False):
    """(d_s, d_e) per case, cycling through ``cfg.dims``, and ``i % 2 == 1``
    where a check alternates two kinds of case; ``tenth`` runs a tenth of the
    cases, at least 5, for checks that integrate trajectories."""
    num = cfg.num_random_scenarios
    for i in range(max(num // 10, 5) if tenth else num):
        d_s, d_e = cfg.dims[i % len(cfg.dims)]
        yield (d_s, d_e, i % 2 == 1) if alternate else (d_s, d_e)


def _stacked(rng, keys, draw, evaluate):
    """Yield a check's residuals in case order: every case is drawn first, in
    that order, by ``draw(rng, *key)``, then the cases of each key are stacked
    field by field and evaluated at once by ``evaluate(*key, *fields)``."""
    groups = {}
    for n, key in enumerate(keys):
        groups.setdefault(key, []).append((n, draw(rng, *key)))
    out = {}
    for key, cases in groups.items():
        order, drawn = zip(*cases)
        out.update(zip(order, evaluate(*key, *map(np.stack, zip(*drawn)))))
    for n in range(len(out)):
        yield float(out[n])


def _draw_initial(rng, d_s, d_e, product=False):
    """Draws of a random product (``rand_product``) or correlated
    (``rand_bipartite``) state."""
    return (_ginibre(rng, d_s), _ginibre(rng, d_e)) if product else (_ginibre(rng, d_s * d_e),)


def _initial(d_s, d_e, product, drawn) -> tuple[_Bipartite, tuple]:
    """The states of ``_draw_initial``'s leading fields, and the other fields."""
    if product:
        a, b = (_states(_wishart(g)).mat for g in drawn[:2])
        return _bipartite(_kron(a, b), d_s, d_e), drawn[2:]
    return _bipartite(_wishart(drawn[0]), d_s, d_e), drawn[1:]


def _rotated(state: _Bipartite, g_u, d_s, d_e) -> _Bipartite:
    """The states after the Haar-random joint unitaries of the draws ``g_u``."""
    u = _haar(g_u)
    _check_unitary(u)
    return _bipartite(u @ state.state.mat @ _dag(u), d_s, d_e)


def _draw_endpoints(rng, d_s, d_e):
    return _ginibre(rng, d_s * d_e), _ginibre(rng, d_s * d_e), *_env_draw(rng, d_e)


def _endpoints(d_s, d_e, g_rho, g_u, levels, g_h) -> tuple[_Bipartite, _Bipartite, _Gibbs]:
    """Random correlated initial states, Haar-unitary finals, random H_E."""
    initial = _bipartite(_wishart(g_rho), d_s, d_e)
    return initial, _rotated(initial, g_u, d_s, d_e), _gibbs(_env_matrix(levels, g_h))


def _matched(initial: _Bipartite, final: _Bipartite, g: _Gibbs):
    """The Gibbs rows at beta* of both endpoints and the matched entropy production."""
    star0, star1 = (_GibbsRows(g, _beta_star(g, x.rho_env.mat)) for x in (initial, final))
    return star0, star1, _matched_entropy_form(initial, final, star0.s, star1.s)[-1]


def _check_mutual_info_decomposition(rng, cfg):
    def evaluate(d_s, d_e, g_rho):
        rho = _bipartite(_wishart(g_rho), d_s, d_e)
        info = _mutual_information(rho)
        div = _relative_entropy(rho.state, _kron(rho.rho_sys.mat, rho.rho_env.mat))
        r, m = np.abs(info - div), -np.minimum(info, 0.0)
        return np.where(m > r, m, r)  # r on a tie, as max(r, m) takes it

    return _stacked(rng, _cases(cfg), _draw_initial, evaluate)


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
    for d_s, d_e in _cases(cfg, tenth=True):
        sched, policy = _ramp_schedule_and_policy(rng, d_s, d_e)
        initial = rand_bipartite(rng, d_s, d_e)
        traj = evolve(initial, sched, steps_per_segment=1000)
        yield build_report(traj, policy).residual_split


def _check_star_reduction(rng, cfg):
    def evaluate(d_s, d_e, *drawn):
        initial, final, g = _endpoints(d_s, d_e, *drawn)
        star0, star1, star = _matched(initial, final, g)
        return np.abs(_entropy_production(initial, final, star0.beta, star1.beta, g) - star)

    return _stacked(rng, _cases(cfg), _draw_endpoints, evaluate)


def _check_pythagorean(rng, cfg):
    def draw(rng, _, d_e):
        return _ginibre(rng, d_e), *_env_draw(rng, d_e), rng.uniform(-3.0, 3.0)

    def evaluate(_, d_e, g_rho, levels, g_h, beta):
        rho = _states(_wishart(g_rho))
        g = _gibbs(_env_matrix(levels, g_h))
        star = _GibbsRows(g, _beta_star(g, rho.mat))
        total = _relative_entropy(rho, _GibbsRows(g, beta).gamma)
        to_star = _relative_entropy(rho, star.gamma)
        across = _gibbs_relative_entropy(g, star.p, beta)
        r1 = np.abs(total - to_star - across)
        r2 = np.abs(to_star - (star.s - rho.s))
        return np.maximum(r1, r2)

    return _stacked(rng, _cases(cfg), draw, evaluate)


def _check_general_split(rng, cfg):
    def draw(rng, d_s, d_e):
        return *_draw_endpoints(rng, d_s, d_e), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)

    def evaluate(d_s, d_e, *drawn):
        initial, final, g = _endpoints(d_s, d_e, *drawn[:4])
        beta0, beta_tau = drawn[4:]
        star0, star1, star = _matched(initial, final, g)
        ep = _entropy_production(initial, final, beta0, beta_tau, g)
        recon = (star + _gibbs_relative_entropy(g, star1.p, beta_tau)
                 - _gibbs_relative_entropy(g, star0.p, beta0))
        return np.abs(ep - recon)

    return _stacked(rng, _cases(cfg), draw, evaluate)


def _check_star_minimality(rng, cfg):
    def evaluate(d_s, d_e, *drawn):
        initial, final, g = _endpoints(d_s, d_e, *drawn)
        star0, star1, star = _matched(initial, final, g)
        grid = star1.beta[:, None] + np.linspace(-2.0, 2.0, 201)
        base = (_mutual_information(final) - _mutual_information(initial)
                - _relative_entropy(initial.rho_env, star0.gamma))
        values = base[:, None] + _env_divergence(final.rho_env, grid, g)
        far = np.abs(np.argmin(values, axis=1) - 100) > 1
        return np.where(far, math.inf, np.maximum(star - values.min(axis=1), 0.0))

    return _stacked(rng, _cases(cfg, tenth=True), _draw_endpoints, evaluate)


def _check_reference_projection(rng, cfg):
    def draw(rng, d_s, d_e):
        return _ginibre(rng, d_s * d_e), *_env_draw(rng, d_e), rng.uniform(-2.0, 2.0)

    def evaluate(d_s, d_e, g_rho, levels, g_h, beta):
        rho = _bipartite(_wishart(g_rho), d_s, d_e)
        gamma = _GibbsRows(_gibbs(_env_matrix(levels, g_h)), beta).gamma
        joint = _relative_entropy(rho.state, _kron(rho.rho_sys.mat, gamma))
        split = _mutual_information(rho) + _relative_entropy(rho.rho_env, gamma)
        return np.abs(joint - split)

    return _stacked(rng, _cases(cfg), draw, evaluate)


def _check_lower_bound_chain(rng, cfg):
    def draw(rng, d_s, d_e, product):
        return (*_draw_initial(rng, d_s, d_e, product), *_env_draw(rng, d_e),
                _ginibre(rng, d_s * d_e))

    def evaluate(d_s, d_e, product, *drawn):
        initial, (levels, g_h, g_u) = _initial(d_s, d_e, product, drawn)
        g = _gibbs(_env_matrix(levels, g_h))
        star0, _, star = _matched(initial, _rotated(initial, g_u, d_s, d_e), g)
        gap = _entropy_gap(initial, star0.s)
        dist = _continuity_bound(_reference_distance(initial, star0.gamma), d_s * d_e)
        worst = np.maximum(np.maximum(gap - star, dist - gap), 0.0)
        if product:
            prod = _product_bound(initial.rho_env.mat, star0.gamma)
            worst = np.maximum(np.maximum(worst, prod - gap), dist - prod)
        return worst

    return _stacked(rng, _cases(cfg, alternate=True), draw, evaluate)


def _env_preserving_correlated(g: _Gibbs, beta, g_rho, thetas, d_s: int) -> _Bipartite:
    """Correlated joint states whose environment marginals are exactly thermal.

    A control-phase unitary sum_j |j><j| x exp(-i theta_j H_E) commutes with
    the thermal factor blockwise, so the environment marginal stays put
    while coherences of rho_S correlate the factors.
    """
    d_e = g.levels.shape[1]
    rho_s = _states(_wishart(g_rho)).mat
    gamma = _GibbsRows(g, beta).gamma
    phases = _thermal(g.basis[:, None], np.exp(-1j * thetas[:, :, None] * g.levels[:, None, :]))
    # Block (j, k) is rho_s[j, k] P_j gamma P_k^dag.
    blocks = rho_s[..., None, None] * (phases[:, :, None] @ gamma[:, None, None]
                                       @ _dag(phases)[:, None, :])
    return _bipartite(blocks.transpose(0, 1, 3, 2, 4).reshape(len(gamma), d_s * d_e, -1), d_s, d_e)


def _check_special_cases(rng, cfg):
    def draw(rng, d_s, d_e, product):
        h = _env_draw(rng, d_e)
        if product:
            return *h, *_draw_initial(rng, d_s, d_e, True)
        return *h, rng.uniform(-2.0, 2.0), _ginibre(rng, d_s), rng.uniform(0.0, 2.0 * np.pi, size=d_s)

    def evaluate(d_s, d_e, product, levels, g_h, *drawn):
        g = _gibbs(_env_matrix(levels, g_h))
        rho = _initial(d_s, d_e, True, drawn)[0] if product else \
            _env_preserving_correlated(g, *drawn, d_s)
        s_gibbs = _GibbsRows(g, _beta_star(g, rho.rho_env.mat)).s
        gap = _entropy_gap(rho, s_gibbs)
        if product:
            return np.abs(gap - (rho.rho_env.s - s_gibbs))
        return np.abs(gap + _mutual_information(rho))

    return _stacked(rng, _cases(cfg, alternate=True), draw, evaluate)


def _check_fannes_audenaert(rng, cfg):
    def draw(rng, d, same):
        return (_ginibre(rng, d),) if same else (_ginibre(rng, d), _ginibre(rng, d))

    def evaluate(d, same, g_a, g_b=None):
        a = _states(_wishart(g_a))
        b = a if same else _states(_wishart(g_b))
        # |S(a) - S(b)| minus the Fannes-Audenaert bound, the continuity bound.
        lhs = np.abs(a.s - b.s)
        return np.maximum(lhs + _continuity_bound(_trace_distance(a.mat, b.mat), d), 0.0)

    keys = ((d_e + i % 3, i % 7 == 0) for i, (_, d_e) in enumerate(_cases(cfg)))
    return _stacked(rng, keys, draw, evaluate)


def _check_pinsker(rng, cfg):
    def evaluate(_, d_e, g_a, g_b):
        a, b = _states(_wishart(g_a)), _states(_wishart(g_b))
        div = _relative_entropy(a, b.mat)
        dist = _trace_distance(a.mat, b.mat)
        return np.maximum(2.0 * dist * dist - div, 0.0)

    return _stacked(rng, _cases(cfg), lambda rng, _, d_e: (_ginibre(rng, d_e), _ginibre(rng, d_e)),
                    evaluate)


def _check_sufficient_conditions(rng, cfg):
    def draw(rng, d_s, d_e, product):
        return (*_draw_initial(rng, d_s, d_e, product), *_env_draw(rng, d_e),
                _ginibre(rng, d_s * d_e), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))

    def evaluate(d_s, d_e, product, *drawn):
        initial, (levels, g_h, g_u, beta0, beta_tau) = _initial(d_s, d_e, product, drawn)
        g = _gibbs(_env_matrix(levels, g_h))
        final = _rotated(initial, g_u, d_s, d_e)
        ep = _entropy_production(initial, final, beta0, beta_tau, g)
        star0 = _GibbsRows(g, _beta_star(g, initial.rho_env.mat))
        gamma_tau = _GibbsRows(g, beta_tau).gamma
        lhs, rhs = _sufficient_general(final, gamma_tau, initial, beta0, star0)
        residual = np.where(lhs >= rhs, np.maximum(-ep, 0.0), 0.0)
        if product:
            lhs, rhs = _sufficient_product(final.rho_env.mat, gamma_tau, initial.rho_env.mat,
                                           beta0, star0)
            residual = np.where(lhs >= rhs, np.maximum(np.maximum(residual, -ep), 0.0), residual)
        return residual

    return _stacked(rng, _cases(cfg, alternate=True), draw, evaluate)


def _check_second_law(rng, cfg):
    def draw(rng, d_s, d_e):
        return (*_env_draw(rng, d_e), rng.uniform(-2.0, 2.0), _ginibre(rng, d_s),
                _ginibre(rng, d_s * d_e))

    def evaluate(d_s, d_e, levels, g_h, beta0, g_rho, g_u):
        g = _gibbs(_env_matrix(levels, g_h))
        rho_s = _states(_wishart(g_rho)).mat
        initial = _bipartite(_kron(rho_s, _GibbsRows(g, beta0).gamma), d_s, d_e)
        final = _rotated(initial, g_u, d_s, d_e)
        ep_const = _entropy_production(initial, final, beta0, beta0, g)
        ep_matched = _matched(initial, final, g)[2]
        return np.maximum(np.maximum(-ep_const, -ep_matched), 0.0)

    return _stacked(rng, _cases(cfg), draw, evaluate)


def _check_rate_formula(rng, cfg):
    h_fd = 1e-4
    for d_s, d_e in _cases(cfg, tenth=True):
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
            gamma = solver.state(beta_t).mat
            ref = DensityMatrix._trusted(_kron(shifted.rho_sys.mat[None], gamma[None])[0])
            return relative_entropy(shifted.state, ref)

        fd = (div_at(h_fd) - div_at(-h_fd)) / (2 * h_fd)
        yield abs(rate - fd)


def _check_energy_monotonicity(rng, cfg):
    def draw(rng, d_e):
        return *_env_draw(rng, d_e), rng.uniform(-3.0, 3.0)

    def evaluate(d_e, levels, g_h, beta):
        w = _gibbs(_env_matrix(levels, g_h)).levels
        # Step in beta * (E_max - E_min): a fixed step in beta lets the
        # rounding of the energy difference, eps*|E|/h_fd, swamp the tiny
        # variance of a narrow spectrum.
        h_fd = 1e-5 / (w[:, -1] - w[:, 0])
        fd = (_energy_variance(w, beta + h_fd)[0] - _energy_variance(w, beta - h_fd)[0]) / (2 * h_fd)
        var = _energy_variance(w, beta)[1]
        return np.abs(fd + var) / np.maximum(var, 1e-12)

    return _stacked(rng, ((2 + i % 7,) for i in range(cfg.num_random_scenarios)), draw, evaluate)


def _check_beta_roundtrip(rng, cfg):
    def draw(rng, d_e):
        # Narrow spectra keep thermal energies resolvable at |beta| = 20.
        return *_env_draw(rng, d_e, spread=0.5), rng.uniform(-20.0, 20.0)

    def evaluate(d_e, levels, g_h, beta):
        g = _gibbs(_env_matrix(levels, g_h))
        return np.abs(_beta_star(g, _GibbsRows(g, beta).gamma) - beta)

    return _stacked(rng, ((2 + i % 7,) for i in range(cfg.num_random_scenarios)), draw, evaluate)


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
