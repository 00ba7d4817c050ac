"""The closed loop: whole passes over an input pool, every output checked.

One client runs the next operation as soon as the previous one returns.  A
raised error or a failed output check is counted and the loop goes on.
Between operations a calibration chunk runs every quarter second, so each
pass's timings can be scaled to the reference host speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import calibration


class Loop:
    """Closed loop over an input pool, checking every output."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.reference = {}   # pool index -> canonical text of its first run
        self.attempted = 0
        self.failed = 0
        self.failures = []    # (pool index, reason) for the first few failures
        self.margin = 0.0     # worst residual / tolerance seen
        self.work = 0         # grid points or check cases done

    def run_one(self, index: int) -> float:
        """Run pool[index] once; returns the seconds spent inside qthermo."""
        inp = self.pool[index]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = self.workload.call(inp)
        except Exception as exc:  # a failing operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            self._fail(index, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            outcome = self.workload.inspect(inp, raw)
        except Exception as exc:
            self._fail(index, f"output check raised {type(exc).__name__}: {exc}")
            return elapsed
        problems = list(outcome.problems)
        ref = self.reference.setdefault(index, outcome.text)
        if ref != outcome.text:
            problems.append("output differs from an earlier run of the same input")
        if problems:
            self._fail(index, "; ".join(problems))
        self.margin = max(self.margin, outcome.margin)
        self.work += outcome.work
        return elapsed

    def _fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append((index, reason))

    def passes(self, seconds: float, min_passes: int, tracer=None) -> "Window":
        """Whole passes over the pool until ``seconds`` have elapsed."""
        win = Window()
        work0 = self.work
        start = last_chunk = time.perf_counter()
        while win.passes < min_passes or time.perf_counter() - start < seconds:
            first_op, first_chunk = len(win.latencies), len(win.chunks)
            for i in range(len(self.pool)):
                if tracer is not None:
                    tracer.op += 1
                win.latencies.append(self.run_one(i))
                if time.perf_counter() - last_chunk >= calibration.INTERVAL_S:
                    win.chunks.append(calibration.chunk())
                    last_chunk = time.perf_counter()
            pass_chunks = win.chunks[first_chunk:]
            factor = calibration.slowdown(pass_chunks) if pass_chunks else None
            win.factors += [factor] * (len(win.latencies) - first_op)
            win.passes += 1
        if not win.chunks:
            win.chunks.append(calibration.chunk())
        # Passes too short to hold a chunk take the whole window's slowdown.
        win.factors = [f or win.slowdown for f in win.factors]
        win.work = self.work - work0
        return win


@dataclass
class Window:
    """What one measured stretch of whole passes produced."""

    latencies: list = field(default_factory=list)  # seconds inside qthermo per operation
    factors: list = field(default_factory=list)    # host slowdown during each operation's pass
    chunks: list = field(default_factory=list)     # calibration chunk seconds
    work: int = 0                                   # grid points or check cases done
    passes: int = 0

    @property
    def slowdown(self) -> float:
        return calibration.slowdown(self.chunks)

    @property
    def ops_per_s(self) -> float:
        """Wall-clock operations per second inside qthermo."""
        return len(self.latencies) / sum(self.latencies)

    @property
    def scaled(self) -> list:
        """Operation latencies at the reference host speed, in seconds."""
        return [x / f for x, f in zip(self.latencies, self.factors)]

    @property
    def scaled_ops_per_s(self) -> float:
        """Operations per second at the reference host speed."""
        return len(self.latencies) / sum(self.scaled)
