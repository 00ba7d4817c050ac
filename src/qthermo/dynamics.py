"""Piecewise unitary joint evolution with cached thermodynamic observables.

A schedule is an ordered list of segments tiling [0, tau]; the environment
Hamiltonian is fixed for the whole schedule while the system and coupling
terms may change per segment (or vary continuously via callables).  Each
substep applies exp(-i H(t + dt/2) dt), which is exactly unitary and
second-order accurate for time-dependent segments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, IO, Sequence, Union

import numpy as np

from .errors import InvalidInput, InvalidSchedule
from .linalg import (
    BipartiteState,
    HermitianMatrix,
    _expi,
    _ptrace_stack,
)
from .thermo import BetaSolveConfig, GibbsSolver, _entropy_from_eigs

# Segment endpoints may disagree with their neighbours by at most this much.
_TILE_TOL = 1e-12

HamiltonianTerm = Union[HermitianMatrix, Callable[[float], HermitianMatrix]]


def _coerce_term(term) -> HamiltonianTerm:
    if callable(term):
        return term
    if isinstance(term, HermitianMatrix):
        return term
    return HermitianMatrix(term)


def _term_at(term: HamiltonianTerm, t: float) -> np.ndarray:
    if callable(term):
        value = term(t)
        if not isinstance(value, HermitianMatrix):
            value = HermitianMatrix(value)
        return value.mat
    return term.mat


@dataclass(frozen=True)
class Segment:
    """One schedule piece on [t_start, t_end].

    ``h_sys`` and ``h_int`` are either fixed HermitianMatrix values or
    callables of time returning one (for continuously driven pieces).
    """

    t_start: float
    t_end: float
    h_sys: HamiltonianTerm
    h_int: HamiltonianTerm

    def __post_init__(self):
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise InvalidSchedule("segment endpoints must be finite")
        if self.t_end <= self.t_start:
            raise InvalidSchedule(
                f"segment must advance time, got [{self.t_start}, {self.t_end}]"
            )
        object.__setattr__(self, "h_sys", _coerce_term(self.h_sys))
        object.__setattr__(self, "h_int", _coerce_term(self.h_int))

    @property
    def is_constant(self) -> bool:
        return not (callable(self.h_sys) or callable(self.h_int))


class HamiltonianSchedule:
    """Contiguous segments sharing one time-independent environment term."""

    def __init__(self, h_env: HermitianMatrix, segments: Sequence[Segment]):
        if not isinstance(h_env, HermitianMatrix):
            h_env = HermitianMatrix(h_env)
        segments = tuple(segments)
        if not segments:
            raise InvalidSchedule("schedule needs at least one segment")
        if abs(segments[0].t_start) > _TILE_TOL:
            raise InvalidSchedule(
                f"first segment must start at t=0, got {segments[0].t_start}"
            )
        for a, b in zip(segments, segments[1:]):
            if abs(b.t_start - a.t_end) > _TILE_TOL:
                raise InvalidSchedule(
                    f"segments must tile the interval: gap between t={a.t_end} "
                    f"and t={b.t_start}"
                )
        self.h_env = h_env
        self.segments = segments
        self.d_e = h_env.dim
        d_s = _term_at(segments[0].h_sys, segments[0].t_start).shape[0]
        self.d_s = int(d_s)
        for seg in segments:
            hs = _term_at(seg.h_sys, seg.t_start)
            hi = _term_at(seg.h_int, seg.t_start)
            if hs.shape[0] != self.d_s:
                raise InvalidSchedule("system dimension changes between segments")
            if hi.shape[0] != self.d_s * self.d_e:
                raise InvalidSchedule(
                    f"coupling dimension {hi.shape[0]} does not match "
                    f"d_s*d_e = {self.d_s * self.d_e}"
                )

    @property
    def tau(self) -> float:
        return self.segments[-1].t_end

    @cached_property
    def gibbs(self) -> GibbsSolver:
        """The one thermal solver for H_E, built on first use."""
        return GibbsSolver(self.h_env)

    def total_hamiltonian(self, t: float, segment: Segment | None = None) -> np.ndarray:
        """Raw d_s*d_e Hamiltonian h_sys x I + I x h_env + h_int at time t."""
        if segment is None:
            segment = self._segment_for(t)
        hs = _term_at(segment.h_sys, t)
        hi = _term_at(segment.h_int, t)
        return (np.kron(hs, np.eye(self.d_e))
                + np.kron(np.eye(self.d_s), self.h_env.mat)
                + hi)

    def _segment_for(self, t: float) -> Segment:
        for seg in self.segments:
            if seg.t_start - _TILE_TOL <= t <= seg.t_end + _TILE_TOL:
                return seg
        raise InvalidInput(f"time {t} outside the schedule span [0, {self.tau}]")


@dataclass(frozen=True)
class Trajectory:
    """Grid of evolved joint states plus cached thermodynamic observables.

    ``heat_flux`` holds dQ/dt = -d/dt tr[rho_E H_E]; at interior segment
    boundaries, where the generator may jump, the cached value is the
    right-limit and per-segment rates are kept separately for quadrature.
    """

    d_s: int
    d_e: int
    times: np.ndarray
    rho: np.ndarray          # (K+1, d, d) complex, read-only
    env_energy: np.ndarray
    beta_star: np.ndarray
    heat_flux: np.ndarray
    schedule: HamiltonianSchedule
    segment_slices: tuple    # slice into the grid per segment, endpoints inclusive
    segment_rates: tuple     # d/dt tr[rho_E H_E] per segment grid point

    def __len__(self) -> int:
        return len(self.times)

    def state(self, k: int) -> BipartiteState:
        return BipartiteState._trusted(self.d_s, self.d_e, self.rho[k])

    @property
    def initial(self) -> BipartiteState:
        return self.state(0)

    @property
    def final(self) -> BipartiteState:
        return self.state(len(self.times) - 1)

    def system_entropies(self) -> np.ndarray:
        lam = np.linalg.eigvalsh(_ptrace_stack(self.rho, self.d_s, self.d_e, "S"))
        return np.asarray(_entropy_from_eigs(lam))

    def env_entropies(self) -> np.ndarray:
        lam = np.linalg.eigvalsh(_ptrace_stack(self.rho, self.d_s, self.d_e, "E"))
        return np.asarray(_entropy_from_eigs(lam))

    def joint_entropies(self) -> np.ndarray:
        return np.asarray(_entropy_from_eigs(np.linalg.eigvalsh(self.rho)))

    def mutual_informations(self) -> np.ndarray:
        return self.system_entropies() + self.env_entropies() - self.joint_entropies()

    def write_csv(self, f: IO[str]) -> None:
        """Columns: t, env_energy, beta_star, heat_flux, S_system, mutual_information."""
        s_sys = self.system_entropies()
        mi = self.mutual_informations()
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["t", "env_energy", "beta_star", "heat_flux",
                         "S_system", "mutual_information"])
        for k in range(len(self.times)):
            writer.writerow([
                repr(float(self.times[k])),
                repr(float(self.env_energy[k])),
                repr(float(self.beta_star[k])),
                repr(float(self.heat_flux[k])),
                repr(float(s_sys[k])),
                repr(float(mi[k])),
            ])


def _rate_operator(h_total: np.ndarray, h_env: np.ndarray, d_s: int) -> np.ndarray:
    # tr[rho * R] with R = -i [I x H_E, H] equals d/dt tr[rho_E H_E].
    m = np.kron(np.eye(d_s), h_env)
    return -1j * (m @ h_total - h_total @ m)


def env_energy_rate(rho: BipartiteState, h_total: HermitianMatrix,
                    h_env: HermitianMatrix) -> float:
    """Analytic d/dt tr[rho_E H_E] = tr(-i [H_total, rho] (I x H_E)).

    The heat flux is the negative of this value.
    """
    if not isinstance(rho, BipartiteState):
        raise InvalidInput("env_energy_rate expects a BipartiteState")
    if not isinstance(h_total, HermitianMatrix):
        h_total = HermitianMatrix(h_total)
    if not isinstance(h_env, HermitianMatrix):
        h_env = HermitianMatrix(h_env)
    if h_total.dim != rho.dim or h_env.dim != rho.d_e:
        raise InvalidInput("Hamiltonian dimensions do not match the state")
    r = _rate_operator(h_total.mat, h_env.mat, rho.d_s)
    return float(np.einsum("ij,ji->", rho.state.mat, r).real)


def evolve(initial: BipartiteState, sched: HamiltonianSchedule,
           steps_per_segment: int,
           beta_cfg: BetaSolveConfig = BetaSolveConfig()) -> Trajectory:
    """Propagate the joint state over the schedule grid.

    Constant segments use one exact propagator per segment; time-dependent
    segments use the midpoint Hamiltonian per substep.  The effective inverse
    temperature is solved at every grid point.
    """
    if not isinstance(initial, BipartiteState):
        raise InvalidInput("evolve expects a BipartiteState initial condition")
    if initial.d_s != sched.d_s or initial.d_e != sched.d_e:
        raise InvalidInput(
            f"initial state dims ({initial.d_s},{initial.d_e}) do not match "
            f"schedule dims ({sched.d_s},{sched.d_e})"
        )
    steps = int(steps_per_segment)
    if steps < 1:
        raise InvalidInput("steps_per_segment must be at least 1")

    d = initial.dim
    nseg = len(sched.segments)
    total = nseg * steps
    rho = np.empty((total + 1, d, d), dtype=complex)
    rho[0] = initial.state.mat
    times = np.empty(total + 1)
    times[0] = 0.0

    slices = []
    k = 0
    for seg in sched.segments:
        dt = (seg.t_end - seg.t_start) / steps
        start_idx = k
        if seg.is_constant:
            u = _expi(sched.total_hamiltonian(seg.t_start, seg), dt)
            uh = u.conj().T
            for i in range(steps):
                rho[k + 1] = u @ rho[k] @ uh
                times[k + 1] = seg.t_start + (i + 1) * dt
                k += 1
        else:
            for i in range(steps):
                tm = seg.t_start + (i + 0.5) * dt
                u = _expi(sched.total_hamiltonian(tm, seg), dt)
                rho[k + 1] = u @ rho[k] @ u.conj().T
                times[k + 1] = seg.t_start + (i + 1) * dt
                k += 1
        times[k] = seg.t_end  # pin the endpoint against accumulation drift
        slices.append(slice(start_idx, k + 1))

    env_energy = sched.gibbs.mean_energy(_ptrace_stack(rho, sched.d_s, sched.d_e, "E"))
    beta_star = sched.gibbs.solve_beta_many(env_energy, beta_cfg)

    seg_rates = []
    heat_flux = np.empty(total + 1)
    for seg, sl in zip(sched.segments, slices):
        if seg.is_constant:
            r = _rate_operator(sched.total_hamiltonian(seg.t_start, seg),
                               sched.h_env.mat, sched.d_s)
            rates = np.einsum("tij,ji->t", rho[sl], r).real
        else:
            rates = np.array([
                float(np.einsum("ij,ji->", rho[j],
                                _rate_operator(sched.total_hamiltonian(times[j], seg),
                                               sched.h_env.mat, sched.d_s)).real)
                for j in range(sl.start, sl.stop)
            ])
        seg_rates.append(rates)
        heat_flux[sl] = -rates  # later segments overwrite shared boundaries

    for arr in (rho, times, env_energy, beta_star, heat_flux):
        arr.setflags(write=False)
    return Trajectory(
        d_s=sched.d_s,
        d_e=sched.d_e,
        times=times,
        rho=rho,
        env_energy=env_energy,
        beta_star=beta_star,
        heat_flux=heat_flux,
        schedule=sched,
        segment_slices=tuple(slices),
        segment_rates=tuple(seg_rates),
    )
