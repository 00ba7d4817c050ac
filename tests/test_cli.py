"""Tests for scenario files, the verify suite, and the command line."""

import copy
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qthermo import (
    BipartiteState,
    ConstantBeta,
    ConvergenceError,
    DensityMatrix,
    EnergyMatching,
    GibbsSolver,
    InvalidInput,
    RegionGrid,
    ScenarioError,
    TabulatedBeta,
    VerifySuiteConfig,
    build_report,
    effective_beta,
    evolve,
    load_scenario,
    parse_region_grid,
    parse_scenario,
    result_to_json,
    run_scenario,
    run_verify,
)
import qthermo.cli
import qthermo.rand
from qthermo.cli import _random_sweep_scenario, main
from qthermo.rand import rand_density
from qthermo.verify import CHECK_NAMES, CheckResult, format_results

BUNDLED = "src/qthermo/data/two_qubit_exchange.json"


def _matrix(rows_re, rows_im=None):
    obj = {"dim": len(rows_re), "re": rows_re}
    if rows_im is not None:
        obj["im"] = rows_im
    return obj


def _base_scenario():
    return {
        "spec_version": 1,
        "name": "unit",
        "dims": {"system": 2, "environment": 2},
        "h_env": _matrix([[0.0, 0.0], [0.0, 1.0]]),
        "segments": [
            {
                "t_start": 0.0,
                "t_end": 1.0,
                "h_sys": _matrix([[0.0, 0.0], [0.0, 0.5]]),
                "h_int": _matrix([
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.3, 0.0],
                    [0.0, 0.3, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                ]),
            }
        ],
        "initial": {
            "kind": "product_gibbs",
            "rho_sys": _matrix([[0.7, 0.0], [0.0, 0.3]]),
            "beta": 1.0,
        },
        "policy": {"kind": "constant", "beta": 1.0},
        "steps_per_segment": 50,
        "seed": 7,
    }


def test_parse_scenario_roundtrip():
    sc = parse_scenario(_base_scenario())
    assert sc.name == "unit"
    assert sc.d_s == 2 and sc.d_e == 2
    assert sc.steps_per_segment == 50
    assert isinstance(sc.policy, ConstantBeta)
    assert sc.seed == 7


def test_parse_scenario_policy_kinds():
    obj = _base_scenario()
    obj["policy"] = {"kind": "energy_matching"}
    assert isinstance(parse_scenario(obj).policy, EnergyMatching)
    obj["policy"] = {"kind": "tabulated", "times": [0.0, 0.5, 1.0],
                     "betas": [1.0, 0.5, 0.8]}
    pol = parse_scenario(obj).policy
    assert isinstance(pol, TabulatedBeta)
    assert pol.betas == (1.0, 0.5, 0.8)


def test_parse_scenario_error_paths():
    cases = []
    obj = _base_scenario()
    obj["spec_version"] = 2
    cases.append((obj, "spec_version"))
    obj = _base_scenario()
    del obj["name"]
    cases.append((obj, "name"))
    obj = _base_scenario()
    obj["dims"]["environment"] = 1
    cases.append((obj, "environment"))
    obj = _base_scenario()
    obj["h_env"] = _matrix([[0.0, 0.0, 0.0]] * 3)
    cases.append((obj, "h_env"))
    obj = _base_scenario()
    obj["segments"][0]["h_int"] = _matrix([[0.0]])
    cases.append((obj, "h_int"))
    obj = _base_scenario()
    obj["initial"] = {"kind": "mystery"}
    cases.append((obj, "initial"))
    obj = _base_scenario()
    obj["policy"] = {"kind": "constant"}
    cases.append((obj, "beta"))
    obj = _base_scenario()
    obj["steps_per_segment"] = 0
    cases.append((obj, "steps_per_segment"))
    obj = _base_scenario()
    obj["initial"]["rho_sys"]["re"] = [[0.7, 0.0], [0.0, 0.9]]  # trace 1.6
    cases.append((obj, "rho_sys"))
    # tabulated knots take the same numbers as every other numeric field
    for times, betas, needle in ((["a", 6.0], [1.0, 0.5], "times[0]"),
                                 ([0.0, 6.0], [1.0, {}], "betas[1]"),
                                 (["0", 6.0], [1.0, 0.5], "times[0]"),
                                 ([0.0, 6.0], [True, 0.5], "betas[0]")):
        obj = _base_scenario()
        obj["policy"] = {"kind": "tabulated", "times": times, "betas": betas}
        cases.append((obj, needle))
    for payload, needle in cases:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(payload)
        assert needle in str(err.value)


def test_parse_scenario_errors_name_the_field_once():
    obj = _base_scenario()
    obj["h_env"] = _matrix([[0.0, 0.0, 0.0]] * 3)
    obj["h_env"]["dim"] = 2
    cases = [(obj, "bad.json.h_env")]
    obj = _base_scenario()
    obj["initial"]["rho_sys"]["re"] = [[0.7, 0.0], [0.0, 0.9]]  # trace 1.6
    cases.append((obj, "bad.json.initial"))
    obj = _base_scenario()
    obj["policy"]["beta"] = "warm"
    cases.append((obj, "bad.json.policy"))
    for payload, path in cases:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(payload, source_name="bad.json")
        assert str(err.value).count(path) == 1, str(err.value)


def test_parse_scenario_explicit_and_product_initials():
    obj = _base_scenario()
    obj["initial"] = {
        "kind": "product",
        "rho_sys": _matrix([[0.5, 0.0], [0.0, 0.5]]),
        "rho_env": _matrix([[0.6, 0.0], [0.0, 0.4]]),
    }
    sc = parse_scenario(obj)
    assert abs(sc.initial.rho_env.mat[0, 0] - 0.6) < 1e-15
    obj["initial"] = {
        "kind": "explicit",
        "state": _matrix(np.diag([0.4, 0.1, 0.3, 0.2]).tolist()),
    }
    sc = parse_scenario(obj)
    assert abs(sc.initial.mat[3, 3] - 0.2) < 1e-15


@pytest.mark.parametrize("kind", ["product", "product_gibbs", "rand_product", "sweep"])
def test_product_initial_equals_the_validated_product_bit_for_bit(kind, monkeypatch):
    # Only the product is validated; its state and marginal spectra are still
    # those of the validating constructor.  ``rand_product`` and the
    # product-Gibbs initial states of ``qthermo sweep`` build theirs the same way.
    drawn = []  # the factors rand_density returns, in order

    def recording(rng, dim):
        drawn.append(rand_density(rng, dim))
        return drawn[-1]

    if kind == "rand_product":
        monkeypatch.setattr(qthermo.rand, "rand_density", recording)
        initial = qthermo.rand.rand_product(np.random.default_rng(3), 2, 3)
        sys_factor, env = drawn
    elif kind == "sweep":
        monkeypatch.setattr(qthermo.cli, "rand_density", recording)
        sc = _random_sweep_scenario(np.random.default_rng(3), 2, 3, 10, "constant", 0)
        initial, (sys_factor,), env = sc.initial, drawn, sc.schedule.gibbs.state(sc.policy.beta)
    else:
        rho_sys, rho_env = [[0.7, 0.1], [0.1, 0.3]], [[0.55, 0.05], [0.05, 0.45]]
        obj = _base_scenario()
        obj["initial"] = {"kind": kind, "rho_sys": _matrix(rho_sys),
                          "rho_env": _matrix(rho_env), "beta": 0.8}
        initial, sys_factor = parse_scenario(obj).initial, DensityMatrix(rho_sys)
        env = DensityMatrix(rho_env) if kind == "product" else \
            GibbsSolver(np.diag([0.0, 1.0])).state(0.8)
    ref = BipartiteState(initial.d_s, initial.d_e, np.kron(sys_factor.mat, env.mat))
    for got, want in zip((initial.state, initial.rho_sys, initial.rho_env),
                         (ref.state, ref.rho_sys, ref.rho_env)):
        assert np.array_equal(got.mat, want.mat)
        assert np.array_equal(got._spectrum(), want._spectrum())


def test_product_initial_factors_must_match_the_dims():
    # A 4x4 rho_sys with a 1x1 rho_env has the joint size but not the split.
    obj = _base_scenario()
    obj["initial"] = {"kind": "product", "rho_sys": _matrix((np.eye(4) / 4).tolist()),
                      "rho_env": _matrix([[1.0]])}
    with pytest.raises(ScenarioError, match="initial: factor dimensions 4, 1 do not match"):
        parse_scenario(obj)


def test_run_scenario_bundled():
    sc = load_scenario(BUNDLED)
    result = run_scenario(sc)
    assert result.report.residual_split < 1e-8
    assert result.report.residual_matched_split < 1e-10
    assert len(result.trajectory) == sc.steps_per_segment + 1
    payload = result_to_json(result)
    assert payload["spec_version"] == 1
    assert payload["scenario"]["name"] == "two_qubit_exchange"
    assert set(payload["report"]) == set(result.report.FIELDS)
    assert math.isfinite(payload["report"]["entropy_production"])


def test_run_scenario_bundled_at_cold_temperatures(tmp_path):
    obj = json.loads(Path(BUNDLED).read_text())
    # A Gibbs environment at beta = 60 sits 8.7e-27 above the ground energy;
    # energy matching used to report beta* = inf there and exit 2.
    cold = dict(obj, initial=dict(obj["initial"], beta=60.0),
                policy={"kind": "energy_matching"})
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(cold))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "two_qubit_exchange_report.json").read_text())["report"]
    assert abs(report["beta_star_0"] - 60.0) < 1e-9
    # A constant beta of 800 used to give infinite Gibbs mismatches.
    report = run_scenario(parse_scenario(
        dict(obj, policy={"kind": "constant", "beta": 800.0}))).report
    assert math.isfinite(report.gibbs_mismatch_initial)
    assert math.isfinite(report.gibbs_mismatch_final)
    assert report.residual_matched_split <= 1e-8


def test_parse_region_grid():
    obj = {
        "spec_version": 1,
        "gap": 1.0,
        "beta0": 0.8,
        "policy": {"kind": "constant", "beta": 0.8},
        "coherence_abs": 0.3,
        "s": {"min": -1.0, "max": 1.0, "count": 5},
        "b": {"min": 0.0, "max": 1.0, "count": 4},
    }
    grid = parse_region_grid(obj)
    assert grid.s_count == 5 and grid.b_count == 4
    bad = copy.deepcopy(obj)
    bad["policy"] = {"kind": "tabulated", "times": [0, 1], "betas": [1, 2]}
    with pytest.raises(ScenarioError):
        parse_region_grid(bad)


def test_verify_suite_all_checks_pass():
    results = run_verify(VerifySuiteConfig(num_random_scenarios=12, seed=3))
    assert tuple(r.name for r in results) == CHECK_NAMES
    for r in results:
        assert r.passed, f"{r.name} residual {r.worst_residual}"
    text = format_results(results)
    assert f"{len(results)}/{len(results)} checks passed" in text


@pytest.mark.parametrize("seed", [1748708618, 284254628])
def test_verify_energy_monotonicity_on_narrow_spectra(seed):
    # These configs draw H_E spectra narrow enough that a fixed finite-difference
    # step in beta drowned the variance in rounding (worst 2.9e-5 against 1e-6).
    results = run_verify(VerifySuiteConfig(num_random_scenarios=20, seed=seed))
    for r in results:
        assert r.passed, f"{r.name} residual {r.worst_residual}"



def test_verify_case_counts():
    # Checks that integrate trajectories run a tenth of the cases, at least 5.
    results = run_verify(VerifySuiteConfig(num_random_scenarios=12, dims=((1, 2),)))
    tenth = {"clausius_split", "star_minimality", "rate_formula"}
    assert {r.name: r.num_cases for r in results} == {
        name: 5 if name in tenth else 12 for name in CHECK_NAMES}


def test_verify_tallies_yielded_residuals(monkeypatch):
    # A NaN residual counts as an infinite, failing case.
    monkeypatch.setattr("qthermo.verify._REGISTRY", (
        ("pinsker", 1e-10, lambda rng, cfg: iter([0.0, math.nan, 1e-12])),))
    [res] = run_verify(VerifySuiteConfig(num_random_scenarios=1))
    assert res == CheckResult("pinsker", num_cases=3, num_failures=1,
                              worst_residual=math.inf, tolerance=1e-10)


def test_verify_config_validation():
    with pytest.raises(Exception):
        VerifySuiteConfig(num_random_scenarios=0)
    # malformed values are input errors, not bare TypeError/ValueError
    for bad in ({"num_random_scenarios": "x"}, {"num_random_scenarios": 2.5},
                {"tolerances": {"pythagorean": "x"}},
                {"tolerances": {"pythagorean": None}},
                {"dims": ((2.5, 3),)}, {"dims": (("a", 3),)}, {"dims": (3,)},
                {"seed": "x"}, {"seed": -1}):
        with pytest.raises(InvalidInput):
            VerifySuiteConfig(**bad)
    with pytest.raises(Exception):
        run_verify(VerifySuiteConfig(num_random_scenarios=5,
                                     tolerances={"no_such_check": 1.0}))
    cfg = VerifySuiteConfig(num_random_scenarios=5,
                            tolerances={"pythagorean": 1e-6})
    [res] = [r for r in run_verify(cfg) if r.name == "pythagorean"]
    assert res.tolerance == 1e-6


_GRID = dict(gap=1.0, beta0=0.5, beta_tau_policy=ConstantBeta(0.5), coherence_abs=0.1,
             s_min=-1, s_max=1, s_count=5, b_min=0, b_max=1, b_count=5)


@pytest.mark.parametrize("make, field", [
    (VerifySuiteConfig, {"num_random_scenarios": True}),
    (VerifySuiteConfig, {"seed": False}),
    (VerifySuiteConfig, {"dims": ((True, 2),)}),
    (lambda **kw: RegionGrid(**{**_GRID, **kw}), {"s_count": True}),
    (lambda **kw: RegionGrid(**{**_GRID, **kw}), {"b_count": True}),
])
def test_bool_is_not_an_integer(make, field):
    # operator.index accepts bool, so these were taken as 1 and 0.
    with pytest.raises(InvalidInput):
        make(**field)


def test_cli_simulate_writes_outputs(tmp_path):
    rc = main(["simulate", "--scenario", BUNDLED, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "two_qubit_exchange_report.json").read_text())
    assert report["report"]["residual_split"] < 1e-8
    csv_text = (tmp_path / "two_qubit_exchange_trajectory.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t,env_energy,beta_star,heat_flux,S_system,mutual_information"
    assert len(lines) == 202  # 200 steps -> 201 grid points


def test_cli_simulate_steps_override_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["simulate", "--scenario", BUNDLED, "--steps", "40",
                   "--out", str(out)])
        assert rc == 0
    ra = (a / "two_qubit_exchange_report.json").read_bytes()
    rb = (b / "two_qubit_exchange_report.json").read_bytes()
    assert ra == rb
    ca = (a / "two_qubit_exchange_trajectory.csv").read_bytes()
    assert ca == (b / "two_qubit_exchange_trajectory.csv").read_bytes()
    assert len(ca.strip().split(b"\n")) == 42


def test_cli_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("QTHERMO_OUT_DIR", str(tmp_path))
    rc = main(["simulate", "--scenario", BUNDLED, "--steps", "10"])
    assert rc == 0
    assert (tmp_path / "two_qubit_exchange_report.json").exists()


def test_cli_error_exit_codes(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "missing.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--scenario", str(bad)]) == 2
    # no partial outputs appear on failure
    assert list(tmp_path.glob("*_report.json")) == []
    truncated = tmp_path / "trunc.json"
    obj = json.loads(Path(BUNDLED).read_text())
    del obj["policy"]
    truncated.write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(truncated)]) == 2
    # a malformed tabulated knot is invalid input, not a crash
    obj["policy"] = {"kind": "tabulated", "times": ["a", 6.0], "betas": [1.0, 0.5]}
    truncated.write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(truncated)]) == 2
    last = capsys.readouterr().err.strip().split("\n")[-1]
    assert "times[0]" in json.loads(last)["error"]["message"]


def test_cli_example_matches_library(tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({
        "spec_version": 1,
        "gap": 1.0,
        "beta0": 0.8,
        "policy": {"kind": "constant", "beta": 0.8},
        "coherence_abs": 0.3,
        "s": {"min": -1.0, "max": 1.0, "count": 11},
        "b": {"min": 0.0, "max": 1.0, "count": 6},
    }))
    rc = main(["example", "--grid", str(grid_file), "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "grid_region_meta.json").read_text())
    assert meta["policy"] == "constant"
    assert abs(meta["ball_center_s"] - math.tanh(0.4)) < 1e-12
    csv_lines = (tmp_path / "grid_region.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "s,b_abs,rhs,holds,feasible"
    assert len(csv_lines) == 1 + 11 * 6


def test_cli_sweep_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["sweep", "--num", "4", "--dims", "2x2", "--seed", "11",
                   "--steps", "60", "--out", str(out)])
        assert rc == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    lines = (a / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    header = lines[0].split(",")
    assert header[:4] == ["index", "seed", "d_s", "d_e"]
    assert "entropy_production" in header
    assert "beta_star" in header


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be an integer from 0 to 9223372036854775807, got -1"),
    ("--dims", "0x2", "system dimension must be an integer from 1 to 9223372036854775807, got 0")])
def test_cli_sweep_rejects_what_verify_rejects(flag, value, message, tmp_path, capsys):
    # A negative seed ended in NumPy's ValueError traceback with exit 1, and a
    # zero system dimension in a HermitianMatrix message.
    argv = ["sweep", "--num", "1", "--steps", "5", flag, value, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == {"type": "InvalidInput", "message": message}
    assert not (tmp_path / "out").exists()


def test_cli_simulate_perturbed_initial(tmp_path):
    # I/2 x gamma(1) + chi, chi = 0.05 sx x sx: chi has no system marginal and no
    # diagonal environment weight, so beta*_0 stays at 1; the distance is |chi|_1 / 2.
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    obj = dict(json.loads(Path(BUNDLED).read_text()), initial={
        "kind": "perturbed", "rho_sys": _matrix([[0.5, 0.0], [0.0, 0.5]]), "beta": 1.0,
        "chi": _matrix((0.05 * np.kron(sx, sx)).tolist())})
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "two_qubit_exchange_report.json").read_text())
    assert abs(doc["report"]["beta_star_0"] - 1.0) <= 1e-12
    assert abs(doc["bounds"]["beta_star"] - 1.0) <= 1e-12
    assert abs(doc["bounds"]["distance_to_reference"] - 0.1) <= 1e-12


def test_cli_sweep_tabulated_policy(tmp_path):
    assert main(["sweep", "--num", "6", "--dims", "2x3", "--policy", "tabulated",
                 "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(rows) == 6
    # The trapezoid error of the heat integral, 1e-6 at dt = 1e-3 and second order
    # in dt, at the longest tau a sweep draws (3) over the default 200 steps.
    tol_split = 1e-6 * (3.0 / (200 * 1e-3)) ** 2
    for row in rows:
        values = dict(zip(header.split(",")[4:], map(float, row.split(",")[4:])))
        assert all(math.isfinite(v) for v in values.values()), row
        assert values["residual_matched_split"] <= 1e-8
        assert values["residual_split"] <= tol_split


def test_endpoint_beta_star_is_solved_once_from_the_stored_states():
    # bounds.beta_star and report.beta_star_0 (once the array path on the frame
    # energy) differed by up to 1e-12 in 5 of these 6 rows of
    # `sweep --dims 2x3 --seed 5 --steps 100`.  evolve caches beta* on the stored
    # marginals, so the reference is solved again on fresh copies of them.
    rng = np.random.default_rng(5)
    scenarios = [_random_sweep_scenario(rng, 2, 3, 100, "energy_matching", i) for i in range(6)]
    one_step = dict(json.loads(Path(BUNDLED).read_text()), steps_per_segment=1,
                    policy={"kind": "energy_matching"})
    scenarios.append(parse_scenario(one_step))
    for sc in scenarios:
        result = run_scenario(sc)
        traj, h_env = result.trajectory, sc.schedule.h_env
        fresh0, fresh1 = (effective_beta(DensityMatrix(s.rho_env.mat), h_env)
                          for s in (traj.initial, traj.final))
        assert result.bounds.beta_star == result.report.beta_star_0 == fresh0
        assert traj.beta_star[0] == fresh0
        assert traj.beta_star[-1] == fresh1
        # ... and from the same energies the trajectory stores there.
        gibbs = sc.schedule.gibbs
        assert traj.env_energy[0] == gibbs.mean_energy(traj.initial.rho_env.mat)
        assert traj.env_energy[-1] == gibbs.mean_energy(traj.final.rho_env.mat)


def test_ground_state_environment_with_tabulated_policy(tmp_path):
    # rho_E = |0><0| has beta*_0 = +inf.  The drift integrand used to go
    # through beta* and exit 2: "trajectory has spectral-edge beta_star".
    obj = json.loads(Path(BUNDLED).read_text())
    obj["initial"] = {"kind": "product", "rho_sys": obj["initial"]["rho_sys"],
                      "rho_env": _matrix([[1.0, 0.0], [0.0, 0.0]])}
    obj["policy"] = {"kind": "tabulated", "times": [0.0, 6.0], "betas": [1.0, 0.5]}
    path = tmp_path / "ground.json"
    path.write_text(json.dumps(obj))
    splits = []
    for steps in (200, 400):
        out = tmp_path / str(steps)
        assert main(["simulate", "--scenario", str(path), "--steps", str(steps),
                     "--out", str(out)]) == 0
        report = json.loads((out / "two_qubit_exchange_report.json").read_text())["report"]
        assert report["beta_star_0"] == math.inf
        assert math.isfinite(report["temperature_drift_correction"])
        assert report["residual_matched_split"] <= 1e-12
        splits.append(report["residual_split"])
    assert 3.5 <= splits[0] / splits[1] <= 4.5


def test_simulate_exits_3_when_segment_propagation_overflows(tmp_path, capsys):
    # Its spectrum overflows to inf; the beta* stage once refused the energies, with exit 2.
    obj = json.loads(Path(BUNDLED).read_text())
    obj["segments"][0]["h_sys"]["re"] = [[1e308, 1e308], [1e308, 1e308]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "NumericalError"
    assert err["message"].startswith("segment propagation: ")
    assert not out.exists() or list(out.iterdir()) == []


def test_beta_star_grid_failure_surfaces_where_the_grid_is_read(tmp_path, monkeypatch):
    solve = GibbsSolver.solve_beta_many

    def failing_grid(self, energies, *args, **kwargs):
        if np.size(energies) > 1:
            raise ConvergenceError("beta* grid failed")
        return solve(self, energies, *args, **kwargs)

    monkeypatch.setattr(GibbsSolver, "solve_beta_many", failing_grid)
    sc = load_scenario(BUNDLED)
    traj = evolve(sc.initial, sc.schedule, sc.steps_per_segment)
    build_report(traj, ConstantBeta(1.0))
    build_report(traj, TabulatedBeta((0.0, 6.0), (1.0, 0.5)))
    build_report(traj, EnergyMatching())
    # Only the trajectory CSV reads the grid.
    with pytest.raises(ConvergenceError):
        traj.write_csv(io.StringIO())
    # Under either policy, simulate exits 3 and writes nothing.
    obj = json.loads(Path(BUNDLED).read_text())
    matched = tmp_path / "matched.json"
    matched.write_text(json.dumps(dict(obj, policy={"kind": "energy_matching"})))
    for scenario in (BUNDLED, str(matched)):
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 3
        assert not out.exists() or list(out.iterdir()) == []


def test_cli_verify_subcommand(tmp_path):
    assert main(["verify", "--num", "8", "--seed", "2"]) == 0
    # an impossible tolerance turns the run into a failure exit
    assert main(["verify", "--num", "8", "--seed", "2",
                 "--tol", "mutual_info_decomposition=0"]) == 1
    # unknown check names are input errors
    assert main(["verify", "--num", "8", "--tol", "bogus=1"]) == 2
    assert main(["verify", "--num", "8", "--seed", "-1"]) == 2
    # so are tolerances no residual can be compared against
    for bad in ("nan", "inf", "-1"):
        assert main(["verify", "--num", "8", "--seed", "2",
                     "--tol", f"mutual_info_decomposition={bad}"]) == 2


_MATRIX_FIELDS = {
    "h_env": ("h_env",),
    "segments[0].h_sys": ("segments", 0, "h_sys"),
    "segments[0].h_int": ("segments", 0, "h_int"),
    "initial.rho_sys": ("initial", "rho_sys"),
}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("field", _MATRIX_FIELDS)
@pytest.mark.parametrize("dim", [1e999, -1e999, 2.5, True])
def test_matrix_dim_must_be_a_json_integer(field, dim):
    doc = json.loads(Path(BUNDLED).read_text())
    _at(doc, _MATRIX_FIELDS[field])["dim"] = dim
    with pytest.raises(ScenarioError, match=re.escape(f"scenario.{field}.dim:")):
        parse_scenario(doc)


# One bad entry (or a ragged row) per case, each swapped into a block of floats; "bools" is
# a block of bools only, which NumPy reads as a bool array rather than as floats.
_BAD_ENTRIES = {"true": True, "string number": "1", "string": "x", "null": None,
                "huge integer": 10**400, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                "bools": "bools", "ragged row": "ragged"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", ["re", "im"])
@pytest.mark.parametrize("field", _MATRIX_FIELDS)
@pytest.mark.parametrize("kind", _BAD_ENTRIES)
def test_cli_rejects_a_bad_matrix_entry_naming_the_field(kind, field, block, tmp_path, capsys):
    # A bool or a numeric string parsed as a number, and an infinite "im" entry warned
    # "invalid value encountered in multiply" above the error line.
    doc = json.loads(Path(BUNDLED).read_text())
    matrix = _at(doc, _MATRIX_FIELDS[field])
    rows = matrix.setdefault(block, [[0.0] * matrix["dim"] for _ in range(matrix["dim"])])
    value = _BAD_ENTRIES[kind]
    if value == "bools":
        rows[:] = [[False] * len(row) for row in rows]
        rows[0][0] = True
    elif value == "ragged":
        rows[0].append(0.0)
    else:
        rows[0][0] = value
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(tmp_path / "doc.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "ScenarioError"
    assert error["message"].startswith(f"{tmp_path / 'doc.json'}.{field}: "), error["message"]
    assert not out.exists()


@pytest.mark.parametrize("path, value, message", [
    (("dims", "system"), 0, "scenario.dims: system must be an integer from 1 to "),
    (("dims", "environment"), 1, "scenario.dims: environment must be an integer from 2 to "),
    (("steps_per_segment",), 2**63, "scenario: steps_per_segment must be an integer from 1 to "),
    (("seed",), -1, "scenario: seed must be an integer from 0 to "),
    (("seed",), 2**63, "scenario: seed must be an integer from 0 to "),
    (("h_env", "dim"), 0, "scenario.h_env.dim: dim must be an integer from 1 to ")],
    ids=["system-0", "environment-1", "steps-2**63", "seed--1", "seed-2**63", "dim-0"])
def test_scenario_counts_are_read_by_the_linalg_rule(path, value, message):
    # A negative or huge seed and a steps count past the index range used to parse.
    doc = json.loads(Path(BUNDLED).read_text())
    _at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(ScenarioError, match="^" + re.escape(message)):
        parse_scenario(doc)


def test_cli_simulate_rejects_an_overflowing_dim_as_invalid_input(tmp_path, capsys):
    scenario = tmp_path / "huge.json"
    scenario.write_text(Path(BUNDLED).read_text().replace('"h_env": {"dim": 2',
                                                     '"h_env": {"dim": 1e999', 1))
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ScenarioError"


@pytest.mark.parametrize("version", [True, 1.0])
def test_spec_version_must_be_the_integer_one(version):
    doc = json.loads(Path(BUNDLED).read_text())
    doc["spec_version"] = version
    with pytest.raises(ScenarioError, match="unsupported spec_version"):
        parse_scenario(doc)


def _leaf_paths(node, path=()):
    """Paths to every value that is not an object or an array of objects."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node and all(isinstance(x, dict) for x in node):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, value in items for p in _leaf_paths(value, path + (key,))]


_REGION_GRID = {
    "spec_version": 1,
    "gap": 1.0,
    "beta0": 0.8,
    "policy": {"kind": "constant", "beta": 0.8},
    "coherence_abs": 0.3,
    "initial_longitudinal": 0.2,
    "s": {"min": -1.0, "max": 1.0, "count": 5},
    "b": {"min": 0.0, "max": 1.0, "count": 4},
}


@pytest.mark.parametrize("huge", [2**63, 10**30])
@pytest.mark.parametrize("entry", ["scenario", "simulate", "sweep", "s.count", "b.count"])
def test_cli_rejects_a_grid_numpy_cannot_index(entry, huge, tmp_path, capsys):
    # More points than np.intp indexes exit 2 naming the field, before any
    # allocation; NumPy itself would refuse them with a ValueError traceback.
    doc = json.loads(Path(BUNDLED).read_text())
    argv = ["simulate", "--scenario", BUNDLED, "--steps", str(huge)]
    field = "steps_per_segment"
    if entry == "scenario":
        doc["steps_per_segment"] = huge
        argv = ["simulate", "--scenario", str(tmp_path / "doc.json")]
    elif entry == "sweep":
        argv = ["sweep", "--num", "1", "--steps", str(huge)]
    elif entry != "simulate":
        doc = copy.deepcopy(_REGION_GRID)
        axis = entry.split(".")[0]
        doc[axis]["count"] = huge
        argv, field = ["example", "--grid", str(tmp_path / "doc.json")], f"{axis}_count"
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and field in json.loads(err[0])["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "example"])
def test_cli_answers_malformed_json_without_a_traceback(command, tmp_path, capsys):
    # Every field of a valid document gets every malformed JSON value; the CLI
    # must succeed or exit 2 with one JSON error line, never raise.
    flag, doc = (("--scenario", json.loads(Path(BUNDLED).read_text())) if command == "simulate"
                 else ("--grid", _REGION_GRID))
    values = (math.inf, -math.inf, math.nan, 2.5, True, "x", None, [], {}, 10**30, 10**400, 1e200,
              -1e200)
    paths, failures = _leaf_paths(doc), []
    assert len(paths) == {"simulate": 20, "example": 13}[command]
    for path in paths:
        for value in values:
            bad = copy.deepcopy(doc)
            _at(bad, path[:-1])[path[-1]] = value
            source = tmp_path / "doc.json"
            source.write_text(json.dumps(bad))
            capsys.readouterr()
            try:
                rc = main([command, flag, str(source), "--out", str(tmp_path)])
            except Exception as exc:  # a traceback is the failure looked for
                failures.append((path, value, repr(exc)))
                continue
            err = capsys.readouterr().err.splitlines()
            one_line = len(err) == 1 and "error" in json.loads(err[0])
            if rc not in (0, 2) or (rc == 2 and not one_line):
                failures.append((path, value, rc, err))
    assert not failures


def test_cli_answers_an_integer_past_the_digit_limit(tmp_path, capsys):
    # Python refuses to parse a JSON integer of over 4,300 digits with a plain ValueError,
    # which escaped as a traceback.  json.dumps cannot write one, so the text is edited.
    text = Path(BUNDLED).read_text().replace('"seed": 0', '"seed": 1' + "0" * 5000)
    (tmp_path / "seed.json").write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(tmp_path / "seed.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "ScenarioError" and "invalid JSON" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("policy", [{"kind": "constant", "beta": 0.8}, {"kind": "energy_matching"}])
@pytest.mark.parametrize("axis", [{"min": -1e200}, {"max": 1e200},
                                  {"min": 1e308, "max": 1e308, "count": 1}])
def test_cli_example_takes_the_limit_at_huge_coordinates(policy, axis, tmp_path, capsys):
    # (s - r)**2 overflowed with an OverflowError traceback; a square past the float
    # range is +inf, so such a cell holds under a constant policy and, with |s| > 1,
    # never under energy matching.  A one-point axis keeps its finite midpoint.
    doc = copy.deepcopy(_REGION_GRID)
    doc["policy"], doc["s"] = policy, dict(doc["s"], **axis)
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    assert main(["example", "--grid", str(tmp_path / "huge.json"), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "huge_region.csv").read_text().splitlines()[1:]
    huge = [row.split(",") for row in rows if abs(float(row.split(",")[0])) > 1e100]
    assert len(huge) == (4 if "count" in axis else 16)
    holds = "true" if policy["kind"] == "constant" else "false"
    assert all(math.isfinite(float(row[0])) and row[3:] == [holds, "false"] for row in huge)


def test_cli_example_rejects_what_cannot_be_mapped(tmp_path, capsys):
    # A coherence of 1e200 overflowed the Bloch check and its message; an s axis wider
    # than the float range filled linspace with nan.  Both exit 2 with one JSON line.
    cases = [("coherence_abs", 1e200, "InvalidInput", "Bloch constraint violated"),
             ("s", {"min": -1e308, "max": 1e308, "count": 5}, "ScenarioError", "s axis")]
    for key, value, kind, message in cases:
        doc = dict(_REGION_GRID, **{key: value})
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["example", "--grid", str(tmp_path / "bad.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert error["type"] == kind and message in error["message"]
        assert not out.exists()


def test_simulate_exits_3_when_the_hamiltonian_sum_overflows(tmp_path, capsys):
    # h_sys and h_int each hold a finite 1e308 on one diagonal entry.  Their sum used to
    # overflow with NumPy's RuntimeWarning on stderr before the JSON error line.
    obj = json.loads(Path(BUNDLED).read_text())
    obj["segments"][0]["h_sys"]["re"][0][0] = obj["segments"][0]["h_int"]["re"][0][0] = 1e308
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == {
        "type": "NumericalError",
        "message": "segment propagation: H on [0.0, 6.0] overflows the float range"}
    assert not out.exists()


@pytest.mark.parametrize("field", ["h_env", "segments[0].h_sys", "segments[0].h_int"])
def test_simulate_exits_3_when_a_phase_overflows(field, tmp_path, capsys):
    # A finite 1e308 level makes k dt (w_top - w_0) overflow in the eigenframe phases; the
    # NaN energies it gave failed the beta* reader as input (exit 2), with RuntimeWarnings.
    obj = json.loads(Path(BUNDLED).read_text())
    _at(obj, _MATRIX_FIELDS[field])["re"][0][0] = 1e308
    (tmp_path / "phase.json").write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(tmp_path / "phase.json"), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["type"] == "NumericalError"
    assert error["message"] == ("segment propagation: the spectrum, its width or the phases "
                                "of H on [0.0, 6.0] are not finite")
    assert not out.exists()


def test_simulate_keeps_a_finite_phase_next_to_the_bound(tmp_path, capsys):
    # At 3e307 the largest phase the eigenframe forms, 196 * 0.03 * 3e307 (k = 14 * 14, the
    # last multiple of isqrt(200) steps), is finite: the run succeeds.  A bound with a
    # margin of 2 would refuse it.
    obj = json.loads(Path(BUNDLED).read_text())
    obj["segments"][0]["h_sys"]["re"][0][0] = 3e307
    (tmp_path / "near.json").write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(tmp_path / "near.json"),
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_energy_matching_on_a_wide_environment_spectrum(tmp_path, capsys):
    # h_env = 1e4 diag(0, 0.37, 1): beta* residuals of 1e-12 relative to the spectrum
    # exceeded the absolute 1e-12 bound, and the run exited 3.
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    x3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    obj = dict(json.loads(Path(BUNDLED).read_text()), dims={"system": 2, "environment": 3},
               h_env=_matrix((1e4 * np.diag([0.0, 0.37, 1.0])).tolist()),
               policy={"kind": "energy_matching"})
    obj["segments"][0]["h_int"] = _matrix((0.35 * np.kron(sx, x3)).tolist())
    obj["initial"]["beta"] = 1e-4
    (tmp_path / "wide.json").write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(tmp_path / "wide.json"),
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "two_qubit_exchange_report.json").read_text())
    assert abs(doc["report"]["beta_star_0"] - 1e-4) <= 1e-12
