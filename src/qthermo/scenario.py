"""Scenario files: JSON schema, parsing, and the simulate pipeline.

A scenario JSON document (schema version 1) looks like::

    {
      "spec_version": 1,
      "name": "two_qubit_exchange",
      "dims": {"system": 2, "environment": 2},
      "h_env": {"dim": 2, "re": [[0, 0], [0, 1]]},
      "segments": [
        {"t_start": 0.0, "t_end": 6.0,
         "h_sys": {"dim": 2, "re": ...}, "h_int": {"dim": 4, "re": ...}}
      ],
      "initial": {"kind": "product_gibbs", "rho_sys": {...}, "beta": 1.0},
      "policy": {"kind": "constant", "beta": 1.0},
      "steps_per_segment": 200,
      "seed": 0
    }

Initial-state kinds: "explicit" (field state), "product" (rho_sys, rho_env),
"product_gibbs" (rho_sys, beta), "perturbed" (rho_sys, beta, chi).  Policy
kinds: "constant" (beta), "energy_matching", "tabulated" (times, betas).
Matrices use the shared {"dim", "re", "im"} encoding; "im" may be omitted.
All validation failures raise ScenarioError naming the offending field.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundReport, build_bound_report, make_perturbed_initial
from .dynamics import HamiltonianSchedule, Segment, Trajectory, evolve
from .entropy_production import (
    BetaPolicy,
    ConstantBeta,
    EnergyMatching,
    EPReport,
    TabulatedBeta,
    build_report,
)
from .errors import InvalidInput, ScenarioError
from .io import _as_int, matrix_from_json
from .linalg import BipartiteState, DensityMatrix, HermitianMatrix
from .qubit_env import RegionGrid

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """Parsed and validated scenario, ready to run."""

    name: str
    schedule: HamiltonianSchedule
    initial: BipartiteState
    policy: BetaPolicy
    steps_per_segment: int
    seed: Optional[int] = None

    @property
    def d_s(self) -> int:
        return self.schedule.d_s

    @property
    def d_e(self) -> int:
        return self.schedule.d_e


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f'{where}: missing field "{key}"')
    return obj[key]


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    v = float(value)
    if math.isnan(v):
        raise ScenarioError(f"{where}: NaN is not allowed")
    return v


def _as_obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(value).__name__}")
    return value


@contextmanager
def _field(where: str):
    """Re-raise an InvalidInput as a ScenarioError naming ``where``.

    A ScenarioError passes through untouched: it already names its field.
    """
    try:
        yield
    except ScenarioError:
        raise
    except InvalidInput as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _matrix(cls, obj, where: str, dim: int | None = None):
    """A JSON matrix object as a validated ``cls`` (HermitianMatrix or DensityMatrix),
    ``dim`` wide when given."""
    mat = matrix_from_json(_as_obj(obj, where), where)
    with _field(where):
        return cls._of(mat, dim)


def _parse_policy(obj, where: str) -> BetaPolicy:
    obj = _as_obj(obj, where)
    kind = _need(obj, "kind", where)
    with _field(where):
        if kind == "constant":
            return ConstantBeta(_as_real(_need(obj, "beta", where), f"{where}.beta"))
        if kind == "energy_matching":
            return EnergyMatching()
        if kind == "tabulated":
            knots = {}
            for key in ("times", "betas"):
                values = _need(obj, key, where)
                if not isinstance(values, list):
                    raise ScenarioError(f"{where}: times and betas must be arrays")
                knots[key] = tuple(_as_real(v, f"{where}.{key}[{i}]")
                                   for i, v in enumerate(values))
            return TabulatedBeta(**knots)
    raise ScenarioError(f"{where}: unknown policy kind {kind!r}")


def _parse_initial(obj, schedule: HamiltonianSchedule, where: str) -> BipartiteState:
    obj = _as_obj(obj, where)
    d_s, d_e = schedule.d_s, schedule.d_e
    kind = _need(obj, "kind", where)
    with _field(where):
        if kind == "explicit":
            return BipartiteState(d_s, d_e, _matrix(DensityMatrix, _need(obj, "state", where),
                                                    f"{where}.state", d_s * d_e))
        if kind in ("product", "product_gibbs"):
            rho_s = _matrix(DensityMatrix, _need(obj, "rho_sys", where), f"{where}.rho_sys")
            if kind == "product":
                rho_e = _matrix(DensityMatrix, _need(obj, "rho_env", where), f"{where}.rho_env")
            else:
                rho_e = schedule.gibbs.state(_as_real(_need(obj, "beta", where), f"{where}.beta"))
            if (rho_s.dim, rho_e.dim) != (d_s, d_e):
                raise ScenarioError(f"{where}: factor dimensions {rho_s.dim}, {rho_e.dim} "
                                    f"do not match dims {d_s}, {d_e}")
            return BipartiteState._product(rho_s, rho_e)
        if kind == "perturbed":
            rho_s = _matrix(DensityMatrix, _need(obj, "rho_sys", where), f"{where}.rho_sys")
            beta = _as_real(_need(obj, "beta", where), f"{where}.beta")
            chi = _matrix(HermitianMatrix, _need(obj, "chi", where), f"{where}.chi")
            return make_perturbed_initial(rho_s, beta, chi, schedule.h_env).state
    raise ScenarioError(f"{where}: unknown initial kind {kind!r}")


def _document(obj, source_name: str) -> dict:
    """A JSON document as an object of the supported ``spec_version``."""
    obj = _as_obj(obj, source_name)
    version = _need(obj, "spec_version", source_name)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioError(
            f"{source_name}: unsupported spec_version {version!r}, expected {SCHEMA_VERSION}"
        )
    return obj


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc


def parse_scenario(obj: dict, source_name: str = "scenario") -> Scenario:
    """Validate a parsed JSON document into a Scenario."""
    obj = _document(obj, source_name)
    name = _need(obj, "name", source_name)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{source_name}: name must be a nonempty string")

    dims = _as_obj(_need(obj, "dims", source_name), f"{source_name}.dims")
    d_s = _as_int(_need(dims, "system", f"{source_name}.dims"), f"{source_name}.dims.system")
    d_e = _as_int(_need(dims, "environment", f"{source_name}.dims"),
                  f"{source_name}.dims.environment")
    if d_s < 1 or d_e < 2:
        raise ScenarioError(f"{source_name}.dims: need system >= 1 and environment >= 2")

    h_env = _matrix(HermitianMatrix, _need(obj, "h_env", source_name), f"{source_name}.h_env",
                    d_e)

    raw_segments = _need(obj, "segments", source_name)
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ScenarioError(f"{source_name}.segments: expected a nonempty array")
    segments = []
    for i, seg in enumerate(raw_segments):
        where = f"{source_name}.segments[{i}]"
        seg = _as_obj(seg, where)
        h_sys = _matrix(HermitianMatrix, _need(seg, "h_sys", where), f"{where}.h_sys", d_s)
        h_int = _matrix(HermitianMatrix, _need(seg, "h_int", where), f"{where}.h_int",
                        d_s * d_e)
        with _field(where):
            segments.append(Segment(
                t_start=_as_real(_need(seg, "t_start", where), f"{where}.t_start"),
                t_end=_as_real(_need(seg, "t_end", where), f"{where}.t_end"),
                h_sys=h_sys,
                h_int=h_int,
            ))
    with _field(f"{source_name}.segments"):
        schedule = HamiltonianSchedule(h_env, segments)

    initial = _parse_initial(_need(obj, "initial", source_name), schedule,
                             f"{source_name}.initial")
    policy = _parse_policy(_need(obj, "policy", source_name), f"{source_name}.policy")

    steps = _as_int(_need(obj, "steps_per_segment", source_name),
                    f"{source_name}.steps_per_segment")
    if steps < 1:
        raise ScenarioError(f"{source_name}.steps_per_segment: must be >= 1")

    seed = None
    if "seed" in obj and obj["seed"] is not None:
        seed = _as_int(obj["seed"], f"{source_name}.seed")

    return Scenario(name=name, schedule=schedule, initial=initial, policy=policy,
                    steps_per_segment=steps, seed=seed)


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario JSON file."""
    return parse_scenario(_load_json(path), source_name=path)


def parse_region_grid(obj: dict, source_name: str = "grid") -> RegionGrid:
    """Validate a region-grid JSON document.

    Schema: spec_version, gap, beta0, policy (constant or energy_matching),
    coherence_abs, optional initial_longitudinal, and axis objects
    "s"/"b" each holding min, max, count.
    """
    obj = _document(obj, source_name)
    policy = _parse_policy(_need(obj, "policy", source_name), f"{source_name}.policy")
    if isinstance(policy, TabulatedBeta):
        raise ScenarioError(
            f"{source_name}.policy: region grids take constant or energy_matching"
        )

    def axis(key: str) -> tuple[float, float, int]:
        where = f"{source_name}.{key}"
        ax = _as_obj(_need(obj, key, source_name), where)
        return (
            _as_real(_need(ax, "min", where), f"{where}.min"),
            _as_real(_need(ax, "max", where), f"{where}.max"),
            _as_int(_need(ax, "count", where), f"{where}.count"),
        )

    s_min, s_max, s_count = axis("s")
    b_min, b_max, b_count = axis("b")
    p = obj.get("initial_longitudinal")
    with _field(source_name):
        return RegionGrid(
            gap=_as_real(_need(obj, "gap", source_name), f"{source_name}.gap"),
            beta0=_as_real(_need(obj, "beta0", source_name), f"{source_name}.beta0"),
            beta_tau_policy=policy,
            coherence_abs=_as_real(_need(obj, "coherence_abs", source_name),
                                   f"{source_name}.coherence_abs"),
            s_min=s_min, s_max=s_max, s_count=s_count,
            b_min=b_min, b_max=b_max, b_count=b_count,
            initial_longitudinal=None if p is None
            else _as_real(p, f"{source_name}.initial_longitudinal"),
        )


def load_region_grid(path: str) -> RegionGrid:
    """Read and validate a region-grid JSON file."""
    return parse_region_grid(_load_json(path), source_name=path)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything the simulate pipeline produces for one scenario."""

    scenario: Scenario
    trajectory: Trajectory
    report: EPReport
    bounds: BoundReport


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Evolve, decompose, and bound one scenario."""
    traj = evolve(sc.initial, sc.schedule, sc.steps_per_segment)
    report = build_report(traj, sc.policy)
    bounds = build_bound_report(sc.initial, sc.schedule.h_env)
    return ScenarioResult(scenario=sc, trajectory=traj, report=report, bounds=bounds)


def _policy_to_json(policy: BetaPolicy) -> dict:
    if isinstance(policy, ConstantBeta):
        return {"kind": "constant", "beta": policy.beta}
    if isinstance(policy, EnergyMatching):
        return {"kind": "energy_matching"}
    return {"kind": "tabulated", "times": list(policy.times), "betas": list(policy.betas)}


def result_to_json(result: ScenarioResult) -> dict:
    """Deterministic report document for one scenario run."""
    sc = result.scenario
    return {
        "spec_version": SCHEMA_VERSION,
        "scenario": {
            "name": sc.name,
            "dims": {"system": sc.d_s, "environment": sc.d_e},
            "steps_per_segment": sc.steps_per_segment,
            "segments": len(sc.schedule.segments),
            "tau": sc.schedule.tau,
            "policy": _policy_to_json(sc.policy),
            "seed": sc.seed,
        },
        "report": result.report.to_dict(),
        "bounds": result.bounds.to_dict(),
    }
