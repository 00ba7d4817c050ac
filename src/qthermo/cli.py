"""Command-line interface: simulate, verify, example, and sweep subcommands.

Exit codes: 0 success, 1 verification failures, 2 input or validation
error (an input too large for memory among them), 3 numerical failure.
Errors print one machine-readable JSON object to stderr.  Outputs land in
--out, else $QTHERMO_OUT_DIR, else the working directory, and every file is
written atomically after all computation has finished, so failed runs leave
no partial outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import io as _io
import json
import os
import sys

import numpy as np

from .dynamics import HamiltonianSchedule, Segment
from .entropy_production import ConstantBeta, EnergyMatching, EPReport, TabulatedBeta
from .errors import DomainError, InvalidInput, NumericalError
from .io import atomic_write_text, dump_json
from .linalg import BipartiteState
from .qubit_env import emit_region_map
from .rand import rand_bipartite, rand_density, rand_env_hamiltonian, rand_hermitian
from .scenario import (
    Scenario,
    load_region_grid,
    load_scenario,
    result_to_json,
    run_scenario,
)
from .verify import VerifySuiteConfig, format_results, run_verify


def _out_dir(args) -> str:
    directory = args.out or os.environ.get("QTHERMO_OUT_DIR") or "."
    os.makedirs(directory, exist_ok=True)
    return directory


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    if args.steps is not None:
        sc = dataclasses.replace(sc, steps_per_segment=args.steps)
    result = run_scenario(sc)
    doc = result_to_json(result)
    buf = _io.StringIO()
    result.trajectory.write_csv(buf)

    directory = _out_dir(args)
    report_path = os.path.join(directory, f"{sc.name}_report.json")
    csv_path = os.path.join(directory, f"{sc.name}_trajectory.csv")
    dump_json(report_path, doc)
    atomic_write_text(csv_path, buf.getvalue())

    r = result.report
    print(f"scenario {sc.name}: dims {sc.d_s}x{sc.d_e}, "
          f"{len(result.trajectory) - 1} steps over tau = {sc.schedule.tau:g}")
    print(f"entropy production {r.entropy_production:.9g} "
          f"(clausius {r.clausius_entropy_production:.9g}, "
          f"drift {r.temperature_drift_correction:.9g}, "
          f"matched {r.matched_entropy_production:.9g})")
    print(f"residuals: split {r.residual_split:.3e}, "
          f"matched split {r.residual_matched_split:.3e}")
    print(f"wrote {report_path}")
    print(f"wrote {csv_path}")
    return 0


def _parse_dims(values) -> tuple:
    dims = []
    for v in values:
        parts = v.lower().split("x")
        if len(parts) != 2:
            raise InvalidInput(f"--dims expects SYSxENV, e.g. 2x3, got {v!r}")
        try:
            dims.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InvalidInput(f"--dims expects integers, got {v!r}") from None
    return tuple(dims)


def _cmd_verify(args) -> int:
    cfg = VerifySuiteConfig(
        num_random_scenarios=args.num,
        dims=_parse_dims(args.dims) if args.dims else VerifySuiteConfig.dims,
        seed=args.seed,
    )
    results = run_verify(cfg)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_example(args) -> int:
    region = emit_region_map(load_region_grid(args.grid))

    directory = _out_dir(args)
    stem = os.path.splitext(os.path.basename(args.grid))[0]
    csv_path = os.path.join(directory, f"{stem}_region.csv")
    meta_path = os.path.join(directory, f"{stem}_region_meta.json")
    region.write_csv(csv_path)
    dump_json(meta_path, region.metadata)

    print(f"region map: {region.holds.size} cells, {region.feasible.sum()} feasible, "
          f"{region.holds.sum()} satisfy the condition")
    print(f"threshold {region.metadata['rhs']:.9g} "
          f"(radius {region.metadata['ball_radius']:.9g})")
    print(f"wrote {csv_path}")
    print(f"wrote {meta_path}")
    return 0


def _random_sweep_scenario(rng: np.random.Generator, d_s: int, d_e: int,
                           steps: int, policy_kind: str, index: int) -> Scenario:
    h_sys = rand_hermitian(rng, d_s, scale=0.6)
    h_env = rand_env_hamiltonian(rng, d_e, spread=1.2, offset=rng.uniform(-0.5, 0.5))
    h_int = rand_hermitian(rng, d_s * d_e, scale=rng.uniform(0.2, 0.5))
    tau = rng.uniform(0.5, 3.0)
    schedule = HamiltonianSchedule(h_env, [Segment(0.0, tau, h_sys, h_int)])

    beta0 = rng.uniform(-2.0, 2.0)
    if index % 2 == 0:
        initial = BipartiteState._product(rand_density(rng, d_s), schedule.gibbs.state(beta0))
    else:
        initial = rand_bipartite(rng, d_s, d_e)

    if policy_kind == "constant":
        policy = ConstantBeta(beta0)
    elif policy_kind == "energy_matching":
        policy = EnergyMatching()
    else:
        beta1 = rng.uniform(-2.0, 2.0)
        knots = np.linspace(0.0, tau, 9)
        betas = beta0 + (beta1 - beta0) * np.sin(0.5 * np.pi * knots / tau) ** 2
        policy = TabulatedBeta(tuple(knots), tuple(betas))

    return Scenario(name=f"sweep_{index:04d}", schedule=schedule, initial=initial,
                    policy=policy, steps_per_segment=steps)


_SWEEP_BOUND_FIELDS = ("beta_star", "distance_to_reference", "entropy_gap_bound",
                       "trace_distance_bound")


def _cmd_sweep(args) -> int:
    dims = _parse_dims([args.dims])[0]
    VerifySuiteConfig(args.num, (dims,), seed=args.seed)  # verify's count, seed and dims rules
    rng = np.random.default_rng(args.seed)

    rows = []
    for i in range(args.num):
        sc = _random_sweep_scenario(rng, dims[0], dims[1], args.steps,
                                    args.policy, i)
        result = run_scenario(sc)
        row = [str(i), str(args.seed), str(dims[0]), str(dims[1])]
        row += [repr(getattr(result.report, name)) for name in EPReport.FIELDS]
        row += [repr(getattr(result.bounds, name)) for name in _SWEEP_BOUND_FIELDS]
        rows.append(",".join(row))

    header = ",".join(("index", "seed", "d_s", "d_e") + EPReport.FIELDS
                      + _SWEEP_BOUND_FIELDS)
    directory = _out_dir(args)
    csv_path = os.path.join(directory, "sweep.csv")
    atomic_write_text(csv_path, "\n".join([header] + rows) + "\n")
    print(f"swept {args.num} scenarios at dims {dims[0]}x{dims[1]}, "
          f"policy {args.policy}, seed {args.seed}")
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qthermo",
        description="Finite-bath entropy production: simulate, verify, map regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario file end to end")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="output directory (default $QTHERMO_OUT_DIR or .)")
    p.add_argument("--steps", type=int, help="override steps_per_segment")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the randomized identity checks")
    p.add_argument("--num", type=int, default=1000,
                   help="random scenarios per check (default 1000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", action="append",
                   help="dimension pair SYSxENV, repeatable (default 2x2 2x3 3x4)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="evaluate a qubit-environment region map")
    p.add_argument("--grid", required=True, help="region grid JSON file")
    p.add_argument("--out", help="output directory (default $QTHERMO_OUT_DIR or .)")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("sweep", help="random scenario sweep to one CSV")
    p.add_argument("--num", type=int, default=20, help="number of scenarios")
    p.add_argument("--dims", default="2x2", help="dimension pair SYSxENV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=200, help="steps per segment")
    p.add_argument("--policy", default="energy_matching",
                   choices=("constant", "energy_matching", "tabulated"))
    p.add_argument("--out", help="output directory (default $QTHERMO_OUT_DIR or .)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        _print_error(exc)
        return 3
    except (InvalidInput, DomainError, OSError, MemoryError) as exc:
        _print_error(exc)
        return 2


def _print_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
