"""Piecewise unitary joint evolution with cached thermodynamic observables.

A schedule is an ordered list of segments tiling [0, tau]; the environment
Hamiltonian is fixed for the whole schedule while the system and coupling
terms may change per segment (or vary continuously via callables).

A constant segment is solved in closed form from one eigendecomposition
H = V diag(w) V^dag: the state at t_start + k dt is V (rho0 o a_k a_k^dag) V^dag
with rho0 = V^dag rho(t_start) V and phases a_k = exp(-i w k dt), so every grid
point is exact to rounding, with nothing accumulated over the steps.  The
environment energy and the heat flux come straight from rho0 and the phases;
the joint states themselves are built only when ``Trajectory.rho`` is read.
A continuously driven segment applies exp(-i H(t + dt/2) dt) per substep,
which is unitary to rounding and second-order accurate.  Its midpoint
Hamiltonians are assembled and exponentiated as stacks, a bounded chunk of
substeps at a time, by a Taylor series with scaling and squaring (no
eigendecomposition), leaving two matrix products per substep in the loop.  Its
heat flux needs only h_int: I x h_env commutes with h_sys x I and with itself,
so the rate operator is -i [I x h_env, h_int(t)].
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, IO, Sequence, Union

import numpy as np

from .errors import InvalidInput, InvalidSchedule
from .linalg import BipartiteState, HermitianMatrix, _dag, _expi, _ptrace_stack, _sym
from .thermo import GibbsSolver, _as_real, _entropy_from_eigs, _solver

# Segment endpoints may disagree with their neighbours by at most this much.
_TILE_TOL = 1e-12

HamiltonianTerm = Union[HermitianMatrix, Callable[[float], HermitianMatrix]]


def _coerce_term(term) -> HamiltonianTerm:
    if callable(term):
        return term
    if isinstance(term, HermitianMatrix):
        return term
    return HermitianMatrix(term)


def _term_value(term: HamiltonianTerm, t: float) -> HermitianMatrix:
    value = term(t) if callable(term) else term
    return value if isinstance(value, HermitianMatrix) else HermitianMatrix(value)


def _term_at(term: HamiltonianTerm, t: float, dim: int, name: str) -> np.ndarray:
    """The raw (dim, dim) value of ``term`` at time t."""
    value = _term_value(term, t)
    if value.dim != dim:
        raise InvalidSchedule(
            f"{name} at t={t} is {value.dim}x{value.dim}, expected {dim}x{dim}"
        )
    return value.mat


def _term_stack(term: HamiltonianTerm, times, dim: int, name: str) -> np.ndarray:
    """``term`` at each time as an (n, dim, dim) stack; a fixed term is one row."""
    if callable(term):
        return np.stack([_term_at(term, float(t), dim, name) for t in times])
    return term.mat[None]


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
        try:
            object.__setattr__(self, "t_start", _as_real(self.t_start, "segment t_start"))
            object.__setattr__(self, "t_end", _as_real(self.t_end, "segment t_end"))
        except InvalidInput as exc:
            raise InvalidSchedule(str(exc)) from None
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
        self.d_s = _term_value(segments[0].h_sys, segments[0].t_start).dim
        for i, seg in enumerate(segments):
            if i:
                _term_at(seg.h_sys, seg.t_start, self.d_s, "h_sys")
            _term_at(seg.h_int, seg.t_start, self.d_s * self.d_e, "h_int")

    @property
    def tau(self) -> float:
        return self.segments[-1].t_end

    @property
    def gibbs(self) -> GibbsSolver:
        """The one thermal solver for H_E, built on first use and cached on h_env."""
        return _solver(self.h_env)

    @cached_property
    def _env_term(self) -> np.ndarray:
        """I x h_env on the joint space."""
        return np.kron(np.eye(self.d_s), self.h_env.mat)

    def total_hamiltonian(self, t: float, segment: Segment | None = None) -> np.ndarray:
        """Raw d_s*d_e Hamiltonian h_sys x I + I x h_env + h_int at time t."""
        if segment is None:
            segment = self._segment_for(t)
        return self._hamiltonians(segment, (t,))[0]

    def _hamiltonians(self, segment: Segment, times) -> np.ndarray:
        """Raw Hamiltonians of ``segment`` at each time as an (n, d, d) stack.

        Each callable term is evaluated once per time; a segment without one
        gives a single row.
        """
        d = self.d_s * self.d_e
        hs = _term_stack(segment.h_sys, times, self.d_s, "h_sys")
        hi = _term_stack(segment.h_int, times, d, "h_int")
        sys_term = (hs[:, :, None, :, None] * np.eye(self.d_e)[:, None, :]).reshape(-1, d, d)
        return sys_term + self._env_term + hi

    def _segment_for(self, t: float) -> Segment:
        for seg in self.segments:
            if seg.t_start - _TILE_TOL <= t <= seg.t_end + _TILE_TOL:
                return seg
        raise InvalidInput(f"time {t} outside the schedule span [0, {self.tau}]")


# Complex entries per temporary when grid points are processed in batches.
# Temporaries this small are served again from memory the allocator keeps;
# grid-sized ones take fresh pages on every call, and materializing a whole
# segment at once was measured slower than a per-step loop at d >= 16.
_CHUNK_ENTRIES = 1 << 13


def _batches(start: int, stop: int, width: int):
    """Consecutive [k0, k1) ranges of rows of ``width`` entries each."""
    rows = max(1, _CHUNK_ENTRIES // width)
    for k0 in range(start, stop, rows):
        yield k0, min(k0 + rows, stop)


class _Eigenframe:
    """A constant segment in the eigenbasis of its Hamiltonian H = V diag(w) V^dag.

    The state k steps of dt into the segment is V (rho0 o a_k a_k^dag) V^dag
    with rho0 = V^dag rho_start V and a_k = exp(-i (w - w_0) k dt); the shift
    by w_0 cancels in a_k a_k^dag and keeps the phase arguments small on
    offset or wide spectra.
    """

    def __init__(self, h: np.ndarray, rho_start: np.ndarray, dt: float, steps: int):
        w, self.vecs = np.linalg.eigh(h)
        self.freqs = w - w[0]
        self.rho0 = self.vecs.conj().T @ rho_start @ self.vecs
        self.dt = dt
        self.steps = steps
        # a_k = a_{qm} a_r for k = qm + r: a table of m ~ sqrt(steps) rows a_r
        # and one of a_{qm} per batch replace a complex exponential per grid
        # point and level, at one rounding per entry, never accumulated.
        self._m = max(1, math.isqrt(steps))
        self._low = self._exp(np.arange(self._m))
        # The end state seeds the next segment and is stored, not recomputed.
        self.end = _sym(self._states(steps, steps + 1)[0])

    def _exp(self, k: np.ndarray) -> np.ndarray:
        return np.exp(-1j * np.multiply.outer(k * self.dt, self.freqs))

    def _phases(self, start: int, stop: int) -> np.ndarray:
        """Rows a_k for k in [start, stop)."""
        q0, q1 = start // self._m, (stop - 1) // self._m + 1
        high = self._exp(np.arange(q0, q1) * self._m)
        a = (high[:, None, :] * self._low).reshape(-1, len(self.freqs))
        return a[start - q0 * self._m:stop - q0 * self._m]

    def expectations(self, ops: np.ndarray) -> np.ndarray:
        """tr[rho_k A] at k = 0..steps for each A, given as V^dag A V in an (m, d, d) stack.

        tr[rho_k A] = sum_ij a_i (rho0 o A~^T)_ij conj(a_j): an (n, d) @ (d, d)
        product per operator, never a state.
        """
        weights = self.rho0 * ops.transpose(0, 2, 1)
        out = np.empty((len(ops), self.steps + 1))
        for k0, k1 in _batches(0, self.steps + 1, len(self.freqs)):
            a = self._phases(k0, k1)
            out[:, k0:k1] = np.einsum("mkj,kj->mk", a @ weights, a.conj()).real
        return out

    def _states(self, start: int, stop: int) -> np.ndarray:
        a = self._phases(start, stop)
        n, d = a.shape
        mixed = self.rho0 * (a[:, :, None] * a.conj()[:, None, :])
        # V X V^dag = (X V^dag)^dag V^dag for Hermitian X: two (n d, d) @ (d, d)
        # products rather than 2n small ones.
        vh = self.vecs.conj().T
        half = (mixed.reshape(n * d, d) @ vh).reshape(n, d, d)
        return (half.conj().transpose(0, 2, 1).reshape(n * d, d) @ vh).reshape(n, d, d)

    def fill(self, out: np.ndarray) -> None:
        """Write the states at k = 1..steps into out[1:]; out[0] is the start."""
        for k0, k1 in _batches(1, self.steps, out.shape[1] ** 2):
            out[k0:k1] = self._states(k0, k1)
        out[self.steps] = self.end


@dataclass(frozen=True)
class Trajectory:
    """Thermodynamic observables on the time grid, joint states on demand.

    ``heat_flux`` holds dQ/dt = -d/dt tr[rho_E H_E]; at interior segment
    boundaries, where the generator may jump, the cached value is the
    right-limit and per-segment rates are kept separately for quadrature.
    ``initial`` and ``final`` are stored, with the environment energy and
    beta* of each in ``env_energy[0]``, ``env_energy[-1]`` and
    ``beta_star_ends``.  The (K+1, d, d) stack ``rho`` and the grid
    ``beta_star`` are built the first time they are read.
    """

    d_s: int
    d_e: int
    times: np.ndarray
    env_energy: np.ndarray
    beta_star_ends: tuple    # (beta*_0, beta*_tau) of the stored endpoint marginals
    heat_flux: np.ndarray
    schedule: HamiltonianSchedule
    segment_slices: tuple    # slice into the grid per segment, endpoints inclusive
    segment_rates: tuple     # d/dt tr[rho_E H_E] per segment grid point
    initial: BipartiteState
    final: BipartiteState
    _segment_states: tuple   # per segment: an _Eigenframe, or the driven (n+1, d, d) stack

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def rho(self) -> np.ndarray:
        """(K+1, d, d) complex joint states, read-only, built on first access."""
        d = self.d_s * self.d_e
        rho = np.empty((len(self.times), d, d), dtype=complex)
        rho[0] = self.initial.mat
        for sl, src in zip(self.segment_slices, self._segment_states):
            if isinstance(src, np.ndarray):
                rho[sl] = src
            else:
                src.fill(rho[sl])
        rho.setflags(write=False)
        return rho

    @cached_property
    def beta_star(self) -> np.ndarray:
        """(K+1,) beta* on the grid, read-only: the endpoint pair, and the
        interior from ``env_energy`` in one array solve on first access."""
        beta = np.empty(len(self.times))
        beta[0], beta[-1] = self.beta_star_ends
        beta[1:-1] = self.schedule.gibbs.solve_beta_many(self.env_energy[1:-1])
        beta.setflags(write=False)
        return beta

    def state(self, k: int) -> BipartiteState:
        """The joint state at grid point k, built alone without the stack."""
        k = range(len(self.times))[k]
        mat = self.initial.mat
        for sl, src in zip(self.segment_slices, self._segment_states):
            if sl.start < k < sl.stop:
                i = k - sl.start
                if isinstance(src, np.ndarray):
                    mat = src[i]
                else:
                    mat = src.end if i == src.steps else src._states(i, i + 1)[0]
                break
        return BipartiteState._trusted(self.d_s, self.d_e, mat)

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
        mi = s_sys + self.env_entropies() - self.joint_entropies()
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


def _rate_operator(h: np.ndarray, env_term: np.ndarray) -> np.ndarray:
    # tr[rho * R] with R = -i [I x H_E, H] equals d/dt tr[rho_E H_E]; h may be
    # an (n, d, d) stack, and any term commuting with I x H_E may be left out.
    return -1j * (env_term @ h - h @ env_term)


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
    r = _rate_operator(h_total.mat, np.kron(np.eye(rho.d_s), h_env.mat))
    return float(np.einsum("ij,ji->", rho.state.mat, r).real)


def _constant_segment(sched: HamiltonianSchedule, seg: Segment, rho_start: np.ndarray,
                      dt: float, steps: int):
    """Closed-form segment: its eigenframe, env energies and energy rates."""
    frame = _Eigenframe(sched.total_hamiltonian(seg.t_start, seg), rho_start, dt, steps)
    env = frame.vecs.conj().T @ sched._env_term @ frame.vecs
    # V^dag R V for R = -i [I x H_E, H]: H is diagonal in this frame, so the
    # commutator scales each entry by a level difference.
    rate = -1j * env * (frame.freqs[None, :] - frame.freqs[:, None])
    energies, rates = frame.expectations(np.stack([env, rate]))
    return frame, energies, rates


def _driven_segment(sched: HamiltonianSchedule, seg: Segment, rho_start: np.ndarray,
                    dt: float, times: np.ndarray):
    """Midpoint-propagated segment: its state stack, env energies and energy rates."""
    steps = len(times) - 1
    d = rho_start.shape[0]
    stack = np.empty((steps + 1, d, d), dtype=complex)
    stack[0] = rho_start
    for k0, k1 in _batches(0, steps, d * d):
        mids = seg.t_start + (np.arange(k0, k1) + 0.5) * dt
        u = _expi(sched._hamiltonians(seg, mids), dt)
        uh = _dag(u)
        for i in range(k0, k1):
            stack[i + 1] = u[i - k0] @ stack[i] @ uh[i - k0]
    stack[-1] = _sym(stack[-1])
    stack.setflags(write=False)
    energies = sched.gibbs.mean_energy(_ptrace_stack(stack, sched.d_s, sched.d_e, "E"))
    rates = np.empty(steps + 1)
    for k0, k1 in _batches(0, steps + 1, d * d):
        h_int = _term_stack(seg.h_int, times[k0:k1], d, "h_int")
        r = _rate_operator(h_int, sched._env_term)
        rates[k0:k1] = np.einsum("kij,kji->k", stack[k0:k1], r).real
    return stack, energies, rates


def evolve(initial: BipartiteState, sched: HamiltonianSchedule,
           steps_per_segment: int) -> Trajectory:
    """Propagate the joint state over the schedule grid.

    Each constant segment costs one eigendecomposition of its Hamiltonian
    and no per-step loop: environment energy and heat flux at its grid
    points are evaluated in closed form, exact to rounding with no error
    accumulated over the steps.  Time-dependent segments use the midpoint
    Hamiltonian per substep, assembled and exponentiated (Taylor series with
    scaling and squaring) as stacks a bounded chunk of substeps at a time;
    their heat flux is evaluated from h_int alone, since only the coupling
    fails to commute with I x H_E.  At the two endpoints the environment
    energy is ``mean_energy`` of the stored marginal and beta* is solved from
    it here, as ``build_bound_report`` solves beta*_0; the interior beta*
    grid is solved only when ``Trajectory.beta_star`` is first read.  Joint
    states are kept per segment and assembled into ``Trajectory.rho`` only
    when it is read.
    """
    if not isinstance(initial, BipartiteState):
        raise InvalidInput("evolve expects a BipartiteState initial condition")
    if initial.d_s != sched.d_s or initial.d_e != sched.d_e:
        raise InvalidInput(
            f"initial state dims ({initial.d_s},{initial.d_e}) do not match "
            f"schedule dims ({sched.d_s},{sched.d_e})"
        )
    if isinstance(steps_per_segment, bool) or \
            not isinstance(steps_per_segment, (int, np.integer)):
        raise InvalidInput(
            f"steps_per_segment must be an integer, got {steps_per_segment!r}"
        )
    steps = int(steps_per_segment)
    if steps < 1:
        raise InvalidInput("steps_per_segment must be at least 1")

    total = len(sched.segments) * steps
    times = np.empty(total + 1)
    times[0] = 0.0
    env_energy = np.empty(total + 1)
    heat_flux = np.empty(total + 1)

    rho = initial.state.mat
    slices, seg_rates, seg_states = [], [], []
    for j, seg in enumerate(sched.segments):
        dt = (seg.t_end - seg.t_start) / steps
        sl = slice(j * steps, (j + 1) * steps + 1)
        times[sl.start + 1:sl.stop] = seg.t_start + np.arange(1, steps + 1) * dt
        times[sl.stop - 1] = seg.t_end  # pin the endpoint against rounding drift
        if seg.is_constant:
            src, energies, rates = _constant_segment(sched, seg, rho, dt, steps)
            rho = src.end
        else:
            src, energies, rates = _driven_segment(sched, seg, rho, dt, times[sl])
            rho = src[-1]
        # Later segments overwrite shared boundaries.
        env_energy[sl] = energies
        heat_flux[sl] = -rates
        slices.append(sl)
        seg_rates.append(rates)
        seg_states.append(src)

    # Each endpoint's energy and beta* from its stored marginal, as bounds has it.
    final = BipartiteState._trusted(sched.d_s, sched.d_e, rho)
    gibbs = sched.gibbs
    env_energy[0], env_energy[-1] = (gibbs.mean_energy(s.rho_env.mat) for s in (initial, final))
    for arr in (times, env_energy, heat_flux):
        arr.setflags(write=False)
    return Trajectory(
        d_s=sched.d_s,
        d_e=sched.d_e,
        times=times,
        env_energy=env_energy,
        beta_star_ends=(gibbs.solve_beta(env_energy[0]), gibbs.solve_beta(env_energy[-1])),
        heat_flux=heat_flux,
        schedule=sched,
        segment_slices=tuple(slices),
        segment_rates=tuple(seg_rates),
        initial=initial,
        final=final,
        _segment_states=tuple(seg_states),
    )
