"""qthermo benchmark: four closed-loop workloads over the public API.

Usage, from the repository root::

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``sweep``,
``long_trajectory``, ``driven`` and ``verify``.  One client runs the next
operation as soon as the previous one returns, cycling through a pool of
inputs drawn from ``--seed`` in whole passes until ``--seconds`` have
elapsed.  Every output is checked; a failed check or a raised error is
counted and the run goes on.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` the first half of the time runs untraced and the second
half runs with every public entry point wrapped (bench/tracing.py); it
reports per-layer metrics per pass over the input pool, and the tracing
overhead as the traced slowdown of operations per second.

Timings are scaled to a reference host speed: every quarter second a fixed
calibration kernel (bench/calibration.py) runs between operations, and the
times measured in that window are divided by its mean slowdown.  The
wall-clock rate and the slowdown are printed next to the scaled metrics.

Human-readable lines (machine facts, every metric with its unit, failures)
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run also
writes that record with the machine facts, and in traced runs the spans, to
``bench/out/``.  Self-tests: ``python3 -m pytest -q bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread of work: BLAS threads stay at 1, which is never above nproc.
# This must be set before NumPy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3


def import_qthermo() -> float:
    """Import qthermo from this checkout's src/; returns the seconds it took.

    NumPy first loads here, through qthermo, so the time includes it.
    """
    if not (SRC / "qthermo" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qthermo sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qthermo
    elapsed = time.perf_counter() - t0
    if Path(qthermo.__file__).resolve().parent != SRC / "qthermo":
        raise SystemExit(f"bench: imported qthermo from {qthermo.__file__}, not {SRC}")
    return elapsed


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t0 = time.perf_counter(); import qthermo; print(time.perf_counter() - t0)")


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import qthermo from src/."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def _blas_facts(np) -> dict:
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        **_blas_facts(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
    }


def end_to_end(win, setup_s: float) -> dict:
    """End-to-end metrics, with times scaled to the reference host speed."""
    ms = [1e3 * x for x in win.scaled]
    return {
        # Set-up ran just before the window, whose slowdown stands in for it.
        "setup_s": (setup_s / win.slowdown, "s"),
        "ops_per_s": (win.scaled_ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(tracer, passes: int, overhead: float) -> dict:
    from tracing import LAYERS

    totals = tracer.layer_totals()

    def per_pass(x):
        return x / passes

    def span(name):
        t = totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        return per_pass(t["calls"]), per_pass(t["total_s"]), per_pass(t["self_s"])

    m = {}
    calls, total, self_s = span("dynamics.evolve")
    points = per_pass(tracer.points["dynamics.evolve"])
    m["dynamics.evolve.calls"] = (calls, "count")
    m["dynamics.evolve.self_s"] = (self_s, "s")
    m["dynamics.evolve.grid_points"] = (points, "count")
    m["dynamics.evolve.us_per_point"] = (1e6 * total / points if points else 0.0, "us")
    calls, _, self_s = span("thermo.GibbsSolver.solve_beta_many")
    m["thermo.solve_beta_many.calls"] = (calls, "count")
    m["thermo.solve_beta_many.points"] = (
        per_pass(tracer.points["thermo.GibbsSolver.solve_beta_many"]), "count")
    m["thermo.solve_beta_many.self_s"] = (self_s, "s")
    m["thermo.population_passes"] = (per_pass(tracer.counts["thermo.population_passes"]),
                                     "count")
    m["thermo.GibbsSolver.constructions"] = (
        per_pass(tracer.counts["thermo.GibbsSolver.constructions"]), "count")
    for name in ("thermo.effective_beta", "thermo.relative_entropy",
                 "thermo.von_neumann_entropy", "bounds.build_bound_report",
                 "entropy_production.build_report",
                 "entropy_production.entropy_production"):
        calls, _, self_s = span(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
    m["linalg.DensityMatrix.constructions"] = (
        per_pass(tracer.counts["linalg.DensityMatrix.constructions"]), "count")
    for name in ("scenario.parse_scenario", "scenario.run_scenario",
                 "scenario.result_to_json", "verify.run_verify"):
        m[f"{name}.self_s"] = (span(name)[2], "s")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (per_pass(tracer.errors[layer]), "count")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False):
    """Run one workload.

    Returns the JSON record, the human-readable lines, the machine facts and
    the summary metrics (every end-to-end metric, reported with its unit).

    ``tiny`` shrinks the input pool and per-input size, for self-tests.
    """
    # Set-up is import, input generation and one warm-up call, each the
    # median of SETUP_REPEATS tries; repeated imports need fresh interpreters.
    imports = [import_qthermo()]
    from loop import Loop
    from workloads import WORKLOADS

    imports += [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    wl = WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = wl.make_inputs(seed, tiny)
        loop = Loop(wl, pool)
        loop.run_one(0)  # warm-up call
        setups.append(time.perf_counter() - t0)
    # The last set-up's warm-up output is the byte-identity reference for
    # input 0; its check counts like any other operation.
    setup_s = statistics.median(imports) + statistics.median(setups)

    facts = machine_facts(workload, seed)
    lines = ["machine " + " ".join(f"{k}={v}" for k, v in facts.items())]
    if not trace:
        win = loop.passes(seconds, min_passes=2)
        metrics = end_to_end(win, setup_s)
    else:
        from tracing import Tracer

        win = loop.passes(seconds / 2, min_passes=1)
        metrics = end_to_end(win, setup_s)
        tracer = Tracer()
        with tracer.installed():
            traced = loop.passes(seconds / 2, min_passes=1, tracer=tracer)
        overhead = win.scaled_ops_per_s / traced.scaled_ops_per_s - 1.0
        layer = per_layer(tracer, traced.passes, overhead)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace_{workload}_seed{seed}.json", facts)

    work_name = "cases_per_s" if workload == "verify" else "grid_points_per_s"
    summary = dict(metrics)
    summary[work_name] = (win.work / sum(win.scaled), "1/s")
    summary["ops_per_s_wall"] = (win.ops_per_s, "1/s")
    summary["host_slowdown"] = (win.slowdown, "ratio")
    summary["failure_ratio"] = (loop.failed / loop.attempted, "ratio")
    summary["worst_margin"] = (loop.margin, "residual/tolerance")
    lines.append(f"{workload}: {len(win.latencies)} operations in {win.passes} passes over "
                 f"{len(pool)} inputs, {loop.failed} of {loop.attempted} failed")
    # Per-workload names of the generic operation metrics.
    aliases = ({"ops_per_s": "run_verify calls per second"} if workload == "verify" else
               {"ops_per_s": "scenarios_per_s", "op_ms_p50": "scenario_ms_p50",
                "op_ms_p90": "scenario_ms_p90"})
    for name, (value, unit) in summary.items():
        note = f"  [{aliases[name]}]" if name in aliases else ""
        if name.startswith("op_ms_"):
            note += f"  n={len(win.latencies)}"
        lines.append(f"  {name:<22} {value:.6g} {unit}{note}")
    for index, reason in loop.failures:
        lines.append(f"  FAILED input {index}: {reason}")

    reported = metrics
    if trace:
        lines.append("per layer, per pass over the input pool:")
        lines += [f"  {name:<42} {value:.6g} {unit}" for name, (value, unit) in layer.items()]
        reported = layer
    record = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    return record, lines, facts, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "long_trajectory", "driven", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record, lines, facts, summary = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"facts": facts, "summary": {k: {"value": v, "unit": u}
                                               for k, (v, u) in summary.items()},
                   "record": record}, fh, indent=2)
    print("\n".join(lines))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
