"""The four benchmark workloads: seeded inputs, the timed call, output checks.

Every workload is a closed loop with one client over a fixed pool of inputs
drawn from the workload seed.  ``call`` is the only part that is timed: it
goes through qthermo's public API exactly as a user would, looking entry
points up on the package at call time so a traced run sees them wrapped.  ``inspect``
checks the output afterwards and returns the canonical text that must be
byte-identical whenever the same input runs again.

Inputs are drawn with plain NumPy from the ranges ``qthermo sweep`` uses
(h_sys scale 0.6, H_E eigenvalues offset in [-0.5, 0.5] plus spread 1.2,
coupling scale in [0.2, 0.5], beta in [-2, 2]).  They are not narrowed or
widened around known solver edge cases: a failure on valid input is a
program defect and shows in the failure count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qthermo
from qthermo import (
    BipartiteState,
    ConstantBeta,
    EnergyMatching,
    GibbsSolver,
    HamiltonianSchedule,
    HermitianMatrix,
    Scenario,
    Segment,
    TabulatedBeta,
    VerifySuiteConfig,
)

# Tolerances the test suite pins on the two splits of a report.  The endpoint
# (matched) split is exact up to rounding.  The Clausius split is exact for a
# constant policy (closed form) and otherwise carries the trapezoid error of
# the heat integral, pinned at TOL_SPLIT for dt = 1e-3 and second order in dt
# (acceptance 01 asserts a step-doubling ratio of 3.5 to 4.5).
TOL_ENDPOINT = 1e-8
TOL_CONSTANT_SPLIT = 1e-8
TOL_SPLIT = 1e-6
SPLIT_REF_DT = 1e-3

POLICIES = ("constant", "energy_matching", "tabulated")

# Spectral spread of H_E and the range of inverse temperatures, as in
# ``qthermo sweep``.
ENV_SPREAD = 1.2
BETA_RANGE = 2.0


# -- plain NumPy draws ------------------------------------------------------

def _hermitian(rng, dim: int, scale: float) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * scale * (g + g.conj().T)


def _haar(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _density(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _env_hamiltonian(rng, dim: int) -> np.ndarray:
    offset = rng.uniform(-0.5, 0.5)
    while True:
        w = offset + ENV_SPREAD * np.sort(rng.uniform(0.0, 1.0, size=dim))
        if w[-1] - w[0] >= 1e-3 * ENV_SPREAD:
            break
    v = _haar(rng, dim)
    return (v * w) @ v.conj().T


def _beta(rng) -> float:
    return float(rng.uniform(-BETA_RANGE, BETA_RANGE))


def _ramp(rng, beta0: float, tau: float) -> tuple[list, list]:
    beta1 = _beta(rng)
    knots = np.linspace(0.0, tau, 9)
    betas = beta0 + (beta1 - beta0) * np.sin(0.5 * np.pi * knots / tau) ** 2
    return knots.tolist(), betas.tolist()


def _matrix_json(a: np.ndarray) -> dict:
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def _scenario_doc(rng, name: str, d_s: int, d_e: int, seg_lengths: list,
                  steps: int, policy: str, product_gibbs: bool, seed: int) -> dict:
    """A scenario JSON document with one constant segment per length."""
    h_env = _env_hamiltonian(rng, d_e)
    segments, t = [], 0.0
    for length in seg_lengths:
        segments.append({
            "t_start": t,
            "t_end": t + length,
            "h_sys": _matrix_json(_hermitian(rng, d_s, 0.6)),
            "h_int": _matrix_json(_hermitian(rng, d_s * d_e, rng.uniform(0.2, 0.5))),
        })
        t += length
    beta0 = _beta(rng)
    if product_gibbs:
        initial = {"kind": "product_gibbs", "rho_sys": _matrix_json(_density(rng, d_s)),
                   "beta": beta0}
    else:
        initial = {"kind": "explicit", "state": _matrix_json(_density(rng, d_s * d_e))}
    if policy == "constant":
        policy_doc = {"kind": "constant", "beta": beta0}
    elif policy == "energy_matching":
        policy_doc = {"kind": "energy_matching"}
    else:
        times, betas = _ramp(rng, beta0, t)
        policy_doc = {"kind": "tabulated", "times": times, "betas": betas}
    return {
        "spec_version": 1,
        "name": name,
        "dims": {"system": d_s, "environment": d_e},
        "h_env": _matrix_json(h_env),
        "segments": segments,
        "initial": initial,
        "policy": policy_doc,
        "steps_per_segment": steps,
        "seed": seed,
    }


# -- output checks ------------------------------------------------------------

@dataclass(frozen=True)
class Outcome:
    """What ``inspect`` learns from one operation's output."""

    text: str            # canonical output, byte-compared across repeats
    work: int            # grid points (scenario workloads) or check cases (verify)
    margin: float        # worst residual / tolerance over the output's checks
    problems: tuple      # failed checks; empty when the output is correct


def _dumps(doc: dict) -> str:
    # Same encoding the CLI writes report files with (qthermo.io.dump_json).
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _split_tolerance(policy_kind: str, dt: float) -> float:
    if policy_kind == "constant":
        return TOL_CONSTANT_SPLIT
    return TOL_SPLIT * max(1.0, (dt / SPLIT_REF_DT) ** 2)


def inspect_report(doc: dict, text: str, max_dt: float) -> Outcome:
    """Check one ``result_to_json`` document: finite values and both splits."""
    problems = []
    report, bounds = doc["report"], doc["bounds"]
    for section, values in (("report", report), ("bounds", bounds)):
        for key, value in values.items():
            if key == "product_trace_distance_bound" and value is None \
                    and not bounds["is_product"]:
                continue
            if isinstance(value, bool):
                continue
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                problems.append(f"{section}.{key} is {value!r}")
    tol_split = _split_tolerance(doc["scenario"]["policy"]["kind"], max_dt)
    margins = [0.0]
    for key, tol in (("residual_split", tol_split),
                     ("residual_matched_split", TOL_ENDPOINT)):
        value = report[key]
        if isinstance(value, (int, float)) and math.isfinite(value):
            margins.append(value / tol)
            if value > tol:
                problems.append(f"{key} {value:.3e} exceeds {tol:.3e}")
    sc = doc["scenario"]
    work = sc["segments"] * sc["steps_per_segment"] + 1
    return Outcome(text=text, work=work, margin=max(margins), problems=tuple(problems))


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable      # (seed, tiny) -> list of inputs
    call: Callable             # input -> raw output (the timed part)
    inspect: Callable          # (input, raw output) -> Outcome


def _sweep_inputs(seed: int, tiny: bool = False) -> list:
    # dims cycle fastest, then policy, then the initial-state kind, so the
    # 72 inputs hold every dims x policy x initial combination four times.
    rng = np.random.default_rng(seed)
    dims = ((2, 2), (2, 3), (3, 4))
    count, steps = (9, 20) if tiny else (72, 200)
    return [
        _scenario_doc(rng, f"sweep_{i:04d}", *dims[i % 3], [rng.uniform(0.5, 3.0)],
                      steps, POLICIES[(i // 3) % 3], (i // 9) % 2 == 0, seed)
        for i in range(count)
    ]


def _long_inputs(seed: int, tiny: bool = False) -> list:
    # Three constant segments of at most one time unit at 1000 steps each
    # keep dt <= 1e-3, where the acceptance tests pin the Clausius split.  Five dims
    # classes, so the median and the 90th percentile fall inside a class
    # rather than on the cost gap between two; the 30 inputs hold every
    # dims x policy combination three times.
    rng = np.random.default_rng(seed)
    dims = ((2, 2), (2, 4), (3, 4), (4, 4), (4, 8))
    policies = ("energy_matching", "tabulated")
    count, steps = (2, 100) if tiny else (30, 1000)
    return [
        _scenario_doc(rng, f"long_{i:04d}", *dims[i % 5],
                      rng.uniform(0.5, 1.0, size=3).tolist(), steps,
                      policies[(i // 5) % 2], (i // 10) % 2 == 0, seed)
        for i in range(count)
    ]


def _call_scenario_doc(doc: dict):
    result = qthermo.run_scenario(qthermo.parse_scenario(doc))
    out = qthermo.result_to_json(result)
    return out, _dumps(out)


def _inspect_scenario_doc(doc: dict, raw) -> Outcome:
    out, text = raw
    max_dt = max(s["t_end"] - s["t_start"] for s in doc["segments"]) \
        / doc["steps_per_segment"]
    return inspect_report(out, text, max_dt)


def _driven_inputs(seed: int, tiny: bool = False) -> list:
    """Constant, continuously driven, constant: three segments per scenario.

    The driven segment adds sin(omega t) V to either h_sys or h_int.  Scenario
    JSON cannot hold a callable, so these inputs are raw arrays that ``call``
    turns into Segment and HamiltonianSchedule objects.
    """
    rng = np.random.default_rng(seed)
    dims = ((2, 2), (2, 3), (3, 4))
    count, steps = (9, 15) if tiny else (18, 150)
    inputs = []
    for i in range(count):
        d_s, d_e = dims[i % 3]
        lengths = rng.uniform(0.5, 2.0, size=3).tolist()
        segs = [(_hermitian(rng, d_s, 0.6), _hermitian(rng, d_s * d_e, rng.uniform(0.2, 0.5)))
                for _ in lengths]
        drive_int = i % 2 == 1
        drive = _hermitian(rng, d_s * d_e if drive_int else d_s, 0.3)
        beta0 = _beta(rng)
        product_gibbs = (i // 9) % 2 == 0
        inputs.append({
            "name": f"driven_{i:04d}",
            "d_s": d_s, "d_e": d_e,
            "h_env": _env_hamiltonian(rng, d_e),
            "lengths": lengths,
            "segments": segs,
            "drive": drive,
            "drive_int": drive_int,
            "omega": float(rng.uniform(1.0, 4.0)),
            "rho": _density(rng, d_s if product_gibbs else d_s * d_e),
            "product_gibbs": product_gibbs,
            "beta0": beta0,
            "policy": POLICIES[(i // 3) % 3],
            "ramp": _ramp(rng, beta0, sum(lengths)),
            "steps": steps,
        })
    return inputs


def _driven_term(base: np.ndarray, drive: np.ndarray, omega: float):
    return lambda t: HermitianMatrix(base + math.sin(omega * t) * drive)


def _call_driven(inp: dict):
    d_s, d_e = inp["d_s"], inp["d_e"]
    h_env = HermitianMatrix(inp["h_env"])
    segments, t = [], 0.0
    for k, (length, (h_sys, h_int)) in enumerate(zip(inp["lengths"], inp["segments"])):
        h_sys, h_int = HermitianMatrix(h_sys), HermitianMatrix(h_int)
        if k == 1 and inp["drive_int"]:
            h_int = _driven_term(h_int.mat, inp["drive"], inp["omega"])
        elif k == 1:
            h_sys = _driven_term(h_sys.mat, inp["drive"], inp["omega"])
        segments.append(Segment(t, t + length, h_sys, h_int))
        t += length
    schedule = HamiltonianSchedule(h_env, segments)
    if inp["product_gibbs"]:
        gamma = GibbsSolver(h_env).state(inp["beta0"])
        initial = BipartiteState(d_s, d_e, np.kron(inp["rho"], gamma.mat))
    else:
        initial = BipartiteState(d_s, d_e, inp["rho"])
    if inp["policy"] == "constant":
        policy = ConstantBeta(inp["beta0"])
    elif inp["policy"] == "energy_matching":
        policy = EnergyMatching()
    else:
        policy = TabulatedBeta(*(tuple(v) for v in inp["ramp"]))
    sc = Scenario(name=inp["name"], schedule=schedule, initial=initial,
                  policy=policy, steps_per_segment=inp["steps"])
    out = qthermo.result_to_json(qthermo.run_scenario(sc))
    return out, _dumps(out)


def _inspect_driven(inp: dict, raw) -> Outcome:
    out, text = raw
    return inspect_report(out, text, max(inp["lengths"]) / inp["steps"])


# Random scenarios per check in one verify operation (``qthermo verify --num``).
VERIFY_NUM = 20


def _verify_inputs(seed: int, tiny: bool = False) -> list:
    rng = np.random.default_rng(seed)
    num = 1 if tiny else VERIFY_NUM
    return [VerifySuiteConfig(num_random_scenarios=num, seed=int(s))
            for s in rng.integers(0, 2**31 - 1, size=2)]


def _call_verify(cfg):
    return qthermo.run_verify(cfg)


def _inspect_verify(cfg, results) -> Outcome:
    problems = tuple(
        f"{r.name}: {r.num_failures}/{r.num_cases} cases fail, worst "
        f"{r.worst_residual:.3e} against {r.tolerance:.1e}"
        for r in results if not r.passed
    )
    text = qthermo.format_results(results) + "\n" + repr(results)
    return Outcome(
        text=text,
        work=sum(r.num_cases for r in results),
        margin=max(r.worst_residual / r.tolerance for r in results),
        problems=problems,
    )


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep", _sweep_inputs, _call_scenario_doc, _inspect_scenario_doc),
        Workload("long_trajectory", _long_inputs, _call_scenario_doc, _inspect_scenario_doc),
        Workload("driven", _driven_inputs, _call_driven, _inspect_driven),
        Workload("verify", _verify_inputs, _call_verify, _inspect_verify),
    )
}
