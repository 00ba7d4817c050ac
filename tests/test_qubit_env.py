"""Tests for the two-level environment closed forms and region maps."""

import csv
import itertools
import math

import numpy as np
import pytest

from qthermo import (
    BipartiteState,
    ConstantBeta,
    DomainError,
    EnergyMatching,
    EnvPoint,
    GibbsSolver,
    InvalidInput,
    RegionCell,
    RegionGrid,
    RegionMap,
    beta_from_polarization,
    effective_beta,
    emit_region_map,
    entropy_production,
    env_hamiltonian,
    env_point_of,
    example_distances,
    region_condition,
    region_lhs,
    region_rhs,
    sufficient_nonneg_product,
    tensor_product,
    thermal_polarization,
    trace_distance,
)
from qthermo.rand import rand_density


def _random_point(rng, margin=0.0):
    # uniform in the unit disk of (longitudinal, |coherence|), shrunk by margin
    while True:
        p = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        if math.hypot(p, b) <= 1.0 - margin:
            return EnvPoint(p, complex(b * math.cos(0.9), b * math.sin(0.9)))


def test_env_hamiltonian_layout():
    h = env_hamiltonian(2.5)
    assert np.max(np.abs(h.mat - np.diag([0.0, 2.5]))) < 1e-15
    with pytest.raises(InvalidInput):
        env_hamiltonian(0.0)
    with pytest.raises(InvalidInput):
        env_hamiltonian(-1.0)


def test_thermal_polarization_matches_populations():
    # tanh closed form against the generic two-level Gibbs populations
    rng = np.random.default_rng(0)
    for _ in range(50):
        gap = rng.uniform(0.2, 3.0)
        beta = rng.uniform(-6.0, 6.0)
        r = thermal_polarization(beta, gap)
        assert abs(r - math.tanh(beta * gap / 2)) < 1e-15
        solver = GibbsSolver(env_hamiltonian(gap))
        p = solver.populations(beta)
        assert abs(r - (p[0] - p[1])) < 1e-14
    assert thermal_polarization(math.inf, 1.0) == 1.0
    assert thermal_polarization(-math.inf, 1.0) == -1.0
    assert thermal_polarization(0.0, 1.0) == 0.0


def test_beta_polarization_roundtrip():
    # keep |beta * gap / 2| <= 6 so tanh stays resolvable in double precision
    rng = np.random.default_rng(1)
    for _ in range(100):
        gap = rng.uniform(0.2, 3.0)
        beta = rng.uniform(-1.0, 1.0) * min(20.0, 12.0 / gap)
        back = beta_from_polarization(thermal_polarization(beta, gap), gap)
        assert abs(back - beta) < 1e-9
    for beta in (-20.0, 20.0):
        back = beta_from_polarization(thermal_polarization(beta, 0.5), 0.5)
        assert abs(back - beta) < 1e-9
    assert beta_from_polarization(1.0, 1.0) == math.inf
    assert beta_from_polarization(-1.0, 1.0) == -math.inf
    with pytest.raises(DomainError):
        beta_from_polarization(1.2, 1.0)


def test_env_point_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(30):
        point = _random_point(rng)
        rho = point.density_matrix()
        ev = np.linalg.eigvalsh(rho.mat)
        assert ev[0] > -1e-14
        back = env_point_of(rho)
        assert abs(back.longitudinal - point.longitudinal) < 1e-14
        assert abs(back.coherence - point.coherence) < 1e-14
    with pytest.raises(InvalidInput):
        EnvPoint(0.9, 0.9)  # outside the state ball


def test_env_point_effective_beta_is_polarization_inverse():
    # the energy-matching temperature of a point depends only on p
    rng = np.random.default_rng(3)
    gap = 1.3
    h = env_hamiltonian(gap)
    for _ in range(30):
        point = _random_point(rng, margin=0.05)
        bstar = effective_beta(point.density_matrix(), h)
        assert abs(thermal_polarization(bstar, gap) - point.longitudinal) < 1e-9
        assert abs(bstar - beta_from_polarization(point.longitudinal, gap)) < 1e-6 * max(1, abs(bstar))


def test_example_distances_closed_forms():
    # |a|/2 for the initial distance; half the Euclidean mismatch for the final
    rng = np.random.default_rng(4)
    gap = 0.9
    h = env_hamiltonian(gap)
    for _ in range(200):
        beta_tau = rng.uniform(-2.0, 2.0)
        p = rng.uniform(-0.9, 0.9)
        a = (1 - abs(p)) * 0.9 * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        initial = EnvPoint(p, complex(a))
        final = _random_point(rng, margin=0.02)
        dists = example_distances(initial, final, beta_tau, gap)
        # oracle: generic trace distances on the explicit 2x2 matrices
        ref0 = GibbsSolver(h).state(beta_from_polarization(p, gap))
        oracle0 = trace_distance(initial.density_matrix(), ref0)
        assert abs(dists.initial_distance - oracle0) < 1e-10
        assert abs(dists.initial_distance - abs(a) / 2) < 1e-10
        ref1 = GibbsSolver(h).state(beta_tau)
        oracle1 = trace_distance(final.density_matrix(), ref1)
        assert abs(dists.final_distance - oracle1) < 1e-10
        r = thermal_polarization(beta_tau, gap)
        closed = 0.5 * math.hypot(final.longitudinal - r, abs(final.coherence))
        assert abs(dists.final_distance - closed) < 1e-12


def test_region_rhs_matches_generic_certificate():
    # the region inequality is the product sufficiency check scaled by four
    rng = np.random.default_rng(5)
    gap = 1.1
    h = env_hamiltonian(gap)
    for _ in range(100):
        beta0 = rng.uniform(-1.5, 1.5)
        beta_tau = rng.uniform(-1.5, 1.5)
        p = rng.uniform(-0.8, 0.8)
        amp = (1 - abs(p)) * 0.8 * rng.uniform(0, 1)
        initial = EnvPoint(p, complex(amp))
        final = _random_point(rng, margin=0.02)
        rho_s = rand_density(rng, 2)
        check = sufficient_nonneg_product(final.density_matrix(), beta_tau,
                                          rho_s, initial.density_matrix(), beta0, h)
        lhs = region_lhs(final, beta_tau, gap)
        rhs = region_rhs(initial, beta0, gap)
        assert abs(lhs - 4.0 * check.lhs) < 1e-12
        assert abs(rhs - 4.0 * check.rhs) < 1e-10
        assert region_condition(initial, final, beta0, beta_tau, gap) == check.holds


def test_region_condition_certifies_nonnegative_production():
    # any unitary on any system factor keeps production nonnegative when the
    # final environment point satisfies the condition
    rng = np.random.default_rng(6)
    from qthermo.rand import rand_unitary

    gap = 1.0
    h = env_hamiltonian(gap)
    hits = 0
    for _ in range(300):
        beta0 = rng.uniform(-1.0, 1.0)
        p = thermal_polarization(beta0, gap)
        amp = min(0.25, (1 - abs(p)) * 0.5) * rng.uniform(0, 1)
        initial_pt = EnvPoint(p, complex(amp))
        beta_tau = rng.uniform(-1.0, 1.0)
        initial = BipartiteState(2, 2, tensor_product(
            rand_density(rng, 2), initial_pt.density_matrix()).mat)
        u = rand_unitary(rng, 4).mat
        final = BipartiteState(2, 2, u @ initial.mat @ u.conj().T)
        final_pt = env_point_of(final.rho_env)
        if region_condition(initial_pt, final_pt, beta0, beta_tau, gap):
            hits += 1
            ep = entropy_production(initial, final, beta0, beta_tau, h)
            assert ep >= -1e-9
    assert hits > 20


def test_emit_region_map_constant_policy_ball():
    grid = RegionGrid(gap=1.0, beta0=0.8, beta_tau_policy=ConstantBeta(0.8),
                      coherence_abs=0.3, s_min=-1.0, s_max=1.0, s_count=41,
                      b_min=0.0, b_max=1.0, b_count=21)
    rmap = emit_region_map(grid)
    assert len(rmap.cells) == 41 * 21
    center = rmap.metadata["ball_center_s"]
    radius = rmap.metadata["ball_radius"]
    assert abs(center - thermal_polarization(0.8, 1.0)) < 1e-12
    # cells are classified exactly by the disk complement
    for cell in rmap.cells:
        inside_ball = (cell.s - center) ** 2 + cell.b_abs ** 2 < radius ** 2
        assert cell.holds == (not inside_ball)
        assert cell.feasible == (cell.s ** 2 + cell.b_abs ** 2 <= 1.0 + 1e-12)
    # boundary crossing happens within one grid cell of the analytic radius
    ds = (1.0 - (-1.0)) / 40
    for cell in rmap.cells:
        dist = math.hypot(cell.s - center, cell.b_abs)
        if cell.holds:
            assert dist >= radius - ds * 1.5
        else:
            assert dist <= radius + ds * 1.5


def test_emit_region_map_energy_matching_is_s_independent():
    grid = RegionGrid(gap=1.0, beta0=0.6, beta_tau_policy=EnergyMatching(),
                      coherence_abs=0.25, s_min=-1.0, s_max=1.0, s_count=21,
                      b_min=0.0, b_max=1.0, b_count=31)
    rmap = emit_region_map(grid)
    assert rmap.metadata["policy"] == "energy_matching"
    assert rmap.metadata["beta_tau"] is None
    rhs = rmap.metadata["rhs"]
    by_b = {}
    for cell in rmap.cells:
        if abs(cell.s) <= 1.0:
            by_b.setdefault(cell.b_abs, set()).add(cell.holds)
    for b_abs, flags in by_b.items():
        assert len(flags) == 1  # verdict depends only on the coherence row
        assert flags == {b_abs ** 2 >= rhs}


def test_region_map_csv_roundtrip(tmp_path):
    grid = RegionGrid(gap=1.2, beta0=-0.4, beta_tau_policy=ConstantBeta(0.1),
                      coherence_abs=0.2, s_min=-0.9, s_max=0.9, s_count=7,
                      b_min=0.0, b_max=0.8, b_count=5)
    rmap = emit_region_map(grid)
    path = tmp_path / "region.csv"
    rmap.write_csv(str(path))
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(rmap.cells)
    for row, cell in zip(rows, rmap.cells):
        assert abs(float(row["s"]) - cell.s) < 1e-15
        assert abs(float(row["b_abs"]) - cell.b_abs) < 1e-15
        assert abs(float(row["rhs"]) - cell.rhs) < 1e-15
        assert row["holds"] == ("true" if cell.holds else "false")
        assert row["feasible"] == ("true" if cell.feasible else "false")


def test_region_grid_validation():
    with pytest.raises(InvalidInput):
        RegionGrid(gap=-1.0, beta0=0.5, beta_tau_policy=ConstantBeta(0.5),
                   coherence_abs=0.1, s_min=-1, s_max=1, s_count=5,
                   b_min=0, b_max=1, b_count=5)
    with pytest.raises(InvalidInput):
        RegionGrid(gap=1.0, beta0=0.5, beta_tau_policy=ConstantBeta(0.5),
                   coherence_abs=-0.1, s_min=-1, s_max=1, s_count=5,
                   b_min=0, b_max=1, b_count=5)
    with pytest.raises(InvalidInput):
        RegionGrid(gap=1.0, beta0=0.5, beta_tau_policy=ConstantBeta(0.5),
                   coherence_abs=0.1, s_min=1, s_max=-1, s_count=5,
                   b_min=0, b_max=1, b_count=5)
    grid = RegionGrid(gap=1.0, beta0=0.5, beta_tau_policy=ConstantBeta(0.5),
                      coherence_abs=0.1, s_min=-1, s_max=1, s_count=5,
                      b_min=0, b_max=1, b_count=5, initial_longitudinal=0.2)
    assert abs(grid.initial_point().longitudinal - 0.2) < 1e-15
    assert abs(abs(grid.initial_point().coherence) - 0.1) < 1e-15
    # beta0 and beta go through the solver's one validation: NaN and
    # non-reals are input errors, not a bare ValueError or TypeError
    for bad in (math.nan, "warm", 1.0 + 2.0j):
        with pytest.raises(InvalidInput):
            RegionGrid(gap=1.0, beta0=bad, beta_tau_policy=ConstantBeta(0.5),
                       coherence_abs=0.1, s_min=-1, s_max=1, s_count=5,
                       b_min=0, b_max=1, b_count=5)
        with pytest.raises(InvalidInput):
            thermal_polarization(bad, 1.0)


@pytest.mark.parametrize("gap", [0.0, -1.0, math.inf, math.nan, "x", None, 1j])
def test_gap_validation_raises_invalid_input(gap):
    # Non-numeric gaps used to escape as a bare ValueError or TypeError.
    for call in (lambda: env_hamiltonian(gap), lambda: thermal_polarization(1.0, gap),
                 lambda: beta_from_polarization(0.1, gap),
                 lambda: RegionGrid(gap=gap, beta0=0.5, beta_tau_policy=ConstantBeta(0.5),
                                    coherence_abs=0.1, s_min=-1, s_max=1, s_count=5,
                                    b_min=0, b_max=1, b_count=5)):
        with pytest.raises(InvalidInput):
            call()


_GRID = dict(gap=1.0, beta0=0.5, beta_tau_policy=ConstantBeta(0.5), coherence_abs=0.1,
             s_min=-1, s_max=1, s_count=5, b_min=0, b_max=1, b_count=5)


@pytest.mark.parametrize("field, bad", [
    ("s_count", "x"), ("s_count", None), ("b_count", 2.5), ("b_count", np.float64(3.0)),
    ("coherence_abs", "x"), ("s_min", "x"), ("s_max", None), ("b_min", 1j),
    ("b_max", None), ("s_min", math.inf), ("initial_longitudinal", "x"),
    ("initial_longitudinal", math.nan),
])
def test_region_grid_rejects_non_numeric_fields(field, bad):
    # These used to escape as a bare ValueError or TypeError, or, for a
    # fractional count, to be truncated silently.
    with pytest.raises(InvalidInput):
        RegionGrid(**{**_GRID, field: bad})


@pytest.mark.parametrize("bad", ["x", None, 1j, math.nan])
def test_beta_from_polarization_rejects_non_numeric_input(bad):
    with pytest.raises(InvalidInput):
        beta_from_polarization(bad, 1.0)


def test_region_grid_accepts_numpy_counts():
    grid = RegionGrid(**{**_GRID, "s_count": np.int64(3), "b_count": 2})
    assert (grid.s_count, grid.b_count) == (3, 2)
    assert type(grid.s_count) is int


@pytest.mark.parametrize("sign, expected", [(1.0, 0.6765472606075951), (-1.0, 2.4965472606075947)])
def test_points_in_the_bloch_slack_read_as_the_edge_state(sign, expected):
    # EnvPoint accepts |p| a hair above 1; beta* must read that as the edge.
    slack = EnvPoint(sign * (1.0 + 1e-13))
    rhs = region_rhs(slack, 0.7, 1.3)
    assert rhs == region_rhs(EnvPoint(sign), 0.7, 1.3) == expected
    final = EnvPoint(0.0, 0.5)
    assert (region_condition(slack, final, 0.7, 0.7, 1.3)
            == region_condition(EnvPoint(sign), final, 0.7, 0.7, 1.3))
    grid = RegionGrid(gap=1.3, beta0=0.7, beta_tau_policy=EnergyMatching(), coherence_abs=0.0,
                      s_min=-1.0, s_max=1.0, s_count=3, b_min=0.0, b_max=1.0, b_count=2,
                      initial_longitudinal=sign * (1.0 + 1e-13))
    assert emit_region_map(grid).metadata["beta_star_initial"] == sign * math.inf


def _reference_cells(grid):
    """The sufficient condition cell by cell on Python floats, squares as products."""
    rhs = region_rhs(grid.initial_point(), grid.beta0, grid.gap)
    constant = isinstance(grid.beta_tau_policy, ConstantBeta)
    r = thermal_polarization(grid.beta_tau_policy.beta, grid.gap) if constant else None
    cells = []
    for s in grid.s_values().tolist():
        for b in grid.b_values().tolist():
            if constant:
                holds = (s - r) * (s - r) + b * b >= rhs
            else:
                holds = abs(s) <= 1.0 and b * b >= rhs
            cells.append(RegionCell(s, b, rhs, holds, s * s + b * b <= 1.0 + 1e-12))
    return tuple(cells)


# (s, |b|) on the ball boundary of gap 1, beta0 0.8, beta_tau 0.5, |a| 0.3, where
# b ** 2 and b * b round apart and put the two lhs roundings on opposite sides of rhs.
_BOUNDARY_CELLS = [(-0.022549642659548865, 0.8797038600566498),
                   (-0.25122881199330166, 0.7741161794339718),
                   (-0.11418590816033167, 0.8464408325523985),
                   (-0.016112033651596497, 0.881635497997253),
                   (-0.44183867313395203, 0.6113775737604332),
                   (-0.10974889373142017, 0.8483095544888768)]


def _random_grids():
    rng = np.random.default_rng(26)
    grids = []
    for policy in (ConstantBeta(0.5), EnergyMatching()) * 3:
        s_min, s_max = np.sort(rng.uniform(-1.1, 1.1, 2))
        b_min, b_max = np.sort(rng.uniform(0.0, 1.1, 2))
        grids.append(RegionGrid(gap=rng.uniform(0.5, 2.0), beta0=rng.uniform(-1.0, 1.0),
                                beta_tau_policy=policy, coherence_abs=rng.uniform(0.0, 0.5),
                                s_min=s_min, s_max=s_max, s_count=int(rng.integers(1, 30)),
                                b_min=b_min, b_max=b_max, b_count=int(rng.integers(1, 30))))
    return grids


@pytest.mark.parametrize("grid", [
    *(RegionGrid(gap=1.0, beta0=0.8, beta_tau_policy=ConstantBeta(0.5), coherence_abs=0.3,
                 s_min=s, s_max=s, s_count=1, b_min=b, b_max=b, b_count=1)
      for s, b in _BOUNDARY_CELLS),
    RegionGrid(gap=1.0, beta0=0.8, beta_tau_policy=ConstantBeta(0.5), coherence_abs=0.3,
               s_min=-1.1, s_max=1.1, s_count=23, b_min=0.0, b_max=1.1, b_count=1),
    RegionGrid(gap=1.3, beta0=0.2, beta_tau_policy=EnergyMatching(), coherence_abs=0.4,
               s_min=-1.5, s_max=1.5, s_count=31, b_min=0.0, b_max=1.0, b_count=17),
    RegionGrid(gap=1.3, beta0=0.2, beta_tau_policy=EnergyMatching(), coherence_abs=0.4,
               s_min=1.2, s_max=1.4, s_count=1, b_min=0.0, b_max=1.0, b_count=5),
    *_random_grids(),
])
def test_region_map_is_the_scalar_condition(grid):
    # The map is region_condition at every feasible cell, and the rule of the reference
    # loop at every cell, bit for bit: both square by products.
    rmap = emit_region_map(grid)
    assert rmap.holds.shape == rmap.feasible.shape == (grid.s_count, grid.b_count)
    assert rmap.cells == _reference_cells(grid)
    if isinstance(grid.beta_tau_policy, ConstantBeta):
        initial = grid.initial_point()
        for cell in rmap.cells:
            if cell.feasible:
                assert cell.holds == region_condition(initial, EnvPoint(cell.s, cell.b_abs),
                                                      grid.beta0, grid.beta_tau_policy.beta,
                                                      grid.gap)


def test_env_point_past_the_float_range_breaks_the_bloch_constraint():
    # abs() of this coherence raised OverflowError before the ball test could.
    with pytest.raises(InvalidInput, match="Bloch constraint violated"):
        EnvPoint(0.0, complex(1.7e308, 1.7e308))


@pytest.mark.parametrize("grid", [
    RegionGrid(gap=1.2, beta0=-0.4, beta_tau_policy=ConstantBeta(0.1), coherence_abs=0.2,
               s_min=-0.9, s_max=0.9, s_count=7, b_min=0.0, b_max=0.8, b_count=5),
    RegionGrid(gap=1.3, beta0=0.2, beta_tau_policy=EnergyMatching(), coherence_abs=0.4,
               s_min=-1.5, s_max=1.5, s_count=31, b_min=0.0, b_max=1.0, b_count=1),
    RegionGrid(gap=1.0, beta0=0.8, beta_tau_policy=ConstantBeta(0.5), coherence_abs=0.3,
               s_min=0.3, s_max=0.3, s_count=1, b_min=0.0, b_max=1.1, b_count=13),
])
def test_region_csv_is_the_text_of_its_cells(grid, tmp_path):
    # The rows are streamed one s-row at a time; the bytes are those of one joined text.
    rmap = emit_region_map(grid)
    rmap.write_csv(str(tmp_path / "region.csv"))
    flag = ("false", "true")
    text = "".join(f"{c.s!r},{c.b_abs!r},{c.rhs!r},{flag[c.holds]},{flag[c.feasible]}\n"
                   for c in rmap.cells)
    assert (tmp_path / "region.csv").read_text() == "s,b_abs,rhs,holds,feasible\n" + text


def test_region_csv_failing_partway_leaves_no_file(tmp_path, monkeypatch):
    rmap = emit_region_map(RegionGrid(**_GRID))
    rows = RegionMap._csv_rows

    def failing_rows(self):
        yield from itertools.islice(rows(self), 3)
        raise OSError("disk full")

    monkeypatch.setattr(RegionMap, "_csv_rows", failing_rows)
    with pytest.raises(OSError, match="disk full"):
        rmap.write_csv(str(tmp_path / "region.csv"))
    assert list(tmp_path.iterdir()) == []
