"""Spans and counters around qthermo's public entry points, patched at run time.

Nothing under ``src/`` knows about tracing.  ``Tracer.installed()`` replaces
each traced function in every qthermo module that holds it (a name imported
with ``from .dynamics import evolve`` lives in several module dicts), and
each traced method on its class, then restores the originals on exit.

A span records name, start, end, parent span and the operation id shared by
every span of one benchmark operation.  Spans stay in memory; ``dump``
writes them once the run has ended.  A span's self time is its duration
minus the time its child spans cover (children never overlap: one thread).
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from qthermo import QThermoError

# Timed spans: layer (module of src/qthermo) -> public functions or methods.
SPANS = {
    "scenario": ("parse_scenario", "run_scenario", "result_to_json"),
    "dynamics": ("evolve",),
    "thermo": ("GibbsSolver.solve_beta_many", "effective_beta",
               "relative_entropy", "von_neumann_entropy"),
    "entropy_production": ("build_report", "entropy_production"),
    "bounds": ("build_bound_report",),
    "verify": ("run_verify",),
}

# Counted without a span, because they run too often for one: metric name ->
# (layer, methods whose calls it sums).
COUNTS = {
    "thermo.GibbsSolver.constructions": ("thermo", ("GibbsSolver.__init__",)),
    "thermo.population_passes": ("thermo", ("GibbsSolver.energy", "GibbsSolver.variance")),
    "linalg.DensityMatrix.constructions": ("linalg", ("DensityMatrix._check",)),
}

LAYERS = ("scenario", "dynamics", "thermo", "entropy_production", "bounds",
          "linalg", "verify")


def _resolve(layer: str, dotted: str):
    module = sys.modules[f"qthermo.{layer}"]
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        return getattr(module, cls_name), attr
    return module, dotted


class Tracer:
    """In-memory span recorder for one traced phase of a run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []      # [name index, op, parent, start, end]
        self.counts: Counter = Counter()
        self.points: Counter = Counter()
        self.errors: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._last_error = None

    def _record_error(self, layer: str, exc: BaseException) -> None:
        # Count an error once, at the innermost wrapped boundary it leaves.
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer] += 1

    def _span(self, layer: str, name: str, fn, points=None):
        idx = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            rec = [idx, self.op, self._stack[-1] if self._stack else -1,
                   perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except QThermoError as exc:
                self._record_error(layer, exc)
                raise
            finally:
                rec[4] = perf_counter()
                self._stack.pop()
            if points is not None:
                self.points[name] += points(args, out)
            return out

        return traced

    def _counter(self, layer: str, metric: str, fn):
        def counted(*args, **kwargs):
            self.counts[metric] += 1
            try:
                return fn(*args, **kwargs)
            except QThermoError as exc:
                self._record_error(layer, exc)
                raise

        return counted

    @contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        # Points a call handles, read from its arguments or result.
        points_of = {
            "dynamics.evolve": lambda args, out: len(out),
            "thermo.GibbsSolver.solve_beta_many": lambda args, out: int(np.size(args[1])),
        }
        patches = []  # (owner, attribute, original)
        for layer, names in SPANS.items():
            for dotted in names:
                owner, attr = _resolve(layer, dotted)
                name = f"{layer}.{dotted}"
                original = getattr(owner, attr)
                wrapper = self._span(layer, name, original, points_of.get(name))
                if owner is sys.modules[f"qthermo.{layer}"]:
                    # Every module that imported the function holds its own name.
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name == "qthermo" or mod_name.startswith("qthermo."):
                            for key, value in list(vars(mod).items()):
                                if value is original:
                                    patches.append((mod, key, original))
                                    setattr(mod, key, wrapper)
                else:
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        for metric, (layer, names) in COUNTS.items():
            for dotted in names:
                owner, attr = _resolve(layer, dotted)
                original = vars(owner)[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, self._counter(layer, metric, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = np.zeros(len(self.spans))
        for rec in self.spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[4] - rec[3]
        totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, rec in enumerate(self.spans):
            t = totals[self.names[rec[0]]]
            t["calls"] += 1
            t["total_s"] += rec[4] - rec[3]
            t["self_s"] += rec[4] - rec[3] - child[i]
        return totals

    def dump(self, path, facts: dict) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {
            "facts": facts,
            "fields": ["name", "op", "parent", "start_s", "end_s"],
            "spans": [[self.names[n], op, parent, start - t0, end - t0]
                      for n, op, parent, start, end in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
