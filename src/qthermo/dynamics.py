"""Piecewise unitary joint evolution with cached thermodynamic observables.

A schedule is an ordered list of segments tiling [0, tau]; the environment
Hamiltonian is fixed for the whole schedule while the system and coupling
terms may change per segment (or vary continuously via callables).

A constant segment is solved in closed form from one eigendecomposition
H = V diag(w) V^dag: the state at t_start + k dt is V (rho0 o a_k a_k^dag) V^dag
with rho0 = V^dag rho(t_start) V and phases a_k = exp(-i w k dt), so every grid
point is exact to rounding, with nothing accumulated over the steps.  The
environment energy and the heat flux come straight from rho0 and the phases;
they, like the joint states, are built only when first read.
A continuously driven segment applies exp(-i H(t + dt/2) dt) per substep,
which is unitary to rounding and second-order accurate.  Its midpoint
Hamiltonians are assembled and exponentiated as stacks, a bounded chunk of
substeps at a time, by a Taylor series with scaling and squaring (no
eigendecomposition); the chunk's propagators from its first state are
blocked prefix products, about 2 sqrt(n) batched products for n substeps, and
no loop runs per substep.  Its heat flux needs only h_int: I x h_env commutes
with h_sys x I and with itself, so the rate operator is -i [I x h_env, h_int(t)].
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, IO, Sequence, Union

import numpy as np

from .errors import InvalidInput, InvalidSchedule, NumericalError
from .linalg import (BipartiteState, HermitianMatrix, _as_int, _dag, _expect, _expi, _kron,
                     _ptrace_stack, _sym)
from .thermo import GibbsSolver, _as_real, _entropy_from_eigs, _mean_energy, _solver

# Segment endpoints may disagree with their neighbours by at most this much.
_TILE_TOL = 1e-12

HamiltonianTerm = Union[HermitianMatrix, Callable[[float], HermitianMatrix]]


def _term_value(term: HamiltonianTerm, t: float) -> HermitianMatrix:
    return HermitianMatrix._of(term(t) if callable(term) else term)


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
    if not callable(term):
        return term.mat[None]
    out = np.empty((len(times), dim, dim), dtype=complex)
    for i, t in enumerate(times):
        out[i] = _term_at(term, float(t), dim, name)
    return out


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
        for name in ("h_sys", "h_int"):
            term = getattr(self, name)
            object.__setattr__(self, name, term if callable(term) else HermitianMatrix._of(term))

    @property
    def is_constant(self) -> bool:
        return not (callable(self.h_sys) or callable(self.h_int))


class HamiltonianSchedule:
    """Contiguous segments sharing one time-independent environment term."""

    def __init__(self, h_env: HermitianMatrix, segments: Sequence[Segment]):
        h_env = HermitianMatrix._of(h_env)
        segments = tuple(segments)
        if not segments:
            raise InvalidSchedule("schedule needs at least one segment")
        for seg in segments:
            _expect(seg, Segment, "each schedule segment")
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
        return _kron(np.eye(self.d_s)[None], self.h_env.mat[None])[0]

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
        try:
            with np.errstate(over="raise"):
                return sys_term + self._env_term + hi
        except FloatingPointError:
            raise NumericalError(f"segment propagation: H on [{segment.t_start}, "
                                 f"{segment.t_end}] overflows the float range") from None

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


# Both segment kinds, _Eigenframe and _Driven, are built as Kind(sched, seg,
# rho_start, dt, steps) and answer steps, end, _states(start, stop) for the
# states at k in [start, stop), and observables(times) for the grid.
class _Eigenframe:
    """A constant segment in the eigenbasis of its Hamiltonian H = V diag(w) V^dag.

    The state k steps of dt into the segment is V (rho0 o a_k a_k^dag) V^dag
    with rho0 = V^dag rho_start V and a_k = exp(-i (w - w_0) k dt); the shift
    by w_0 cancels in a_k a_k^dag and keeps the phase arguments small on
    offset or wide spectra.
    """

    def __init__(self, sched: HamiltonianSchedule, seg: Segment, rho_start: np.ndarray,
                 dt: float, steps: int):
        w, self.vecs = np.linalg.eigh(sched.total_hamiltonian(seg.t_start, seg))
        if not (np.isfinite(w).all() and float(w[-1]) - float(w[0]) < np.inf):
            raise NumericalError(f"segment propagation: the spectrum of H on "
                                 f"[{seg.t_start}, {seg.t_end}] or its width is not finite")
        self.freqs = w - w[0]
        self.rho0 = self.vecs.conj().T @ rho_start @ self.vecs
        self.dt = dt
        self.steps = steps
        self._env_term = sched._env_term
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

    def _states(self, start: int, stop: int) -> np.ndarray:
        a = self._phases(start, stop)
        n, d = a.shape
        mixed = self.rho0 * (a[:, :, None] * a.conj()[:, None, :])
        # V X V^dag = (X V^dag)^dag V^dag for Hermitian X: two (n d, d) @ (d, d)
        # products rather than 2n small ones.
        vh = self.vecs.conj().T
        half = (mixed.reshape(n * d, d) @ vh).reshape(n, d, d)
        return (half.conj().transpose(0, 2, 1).reshape(n * d, d) @ vh).reshape(n, d, d)

    def observables(self, times: np.ndarray):
        """Env energies and energy rates at the segment's grid points, never a state.

        tr[rho_k A] = sum_ij a_i (rho0 o A~^T)_ij conj(a_j), A~ = V^dag A V.  For E~ of I x H_E,
        W = rho0 o E~^T is Hermitian and -i [I x H_E, H] is E~ o (-i (f_j - f_i)); so one
        product x = (a W) o conj(a) per batch, times the columns (1, f), gives
        E_k = Re sum_j x_kj and R_k = -2 Im sum_j x_kj f_j."""
        weights = self.rho0 * (self.vecs.conj().T @ self._env_term @ self.vecs).T
        one_f = np.stack([np.ones_like(self.freqs), self.freqs], axis=1).astype(complex)
        out = np.empty((2, self.steps + 1))
        for k0, k1 in _batches(0, self.steps + 1, len(self.freqs)):
            a = self._phases(k0, k1)
            xf = ((a @ weights) * a.conj()) @ one_f
            out[0, k0:k1], out[1, k0:k1] = xf[:, 0].real, -2.0 * xf[:, 1].imag
        return out


def _prefix_products(u: np.ndarray) -> np.ndarray:
    """P_j = U_j ... U_0 for each row j of an (n, d, d) stack.

    A blocked prefix (Blelloch, CMU-CS-90-190, 1990): the rows are cut into
    blocks of width isqrt(n), padded with identities; the running products
    within every block take one batched product per position, then each block
    is multiplied, in order, by the total product of the blocks before it.
    """
    n, d = u.shape[:2]
    width = math.isqrt(n)
    p = np.empty((-(-n // width), width, d, d), dtype=complex)
    flat = p.reshape(-1, d, d)
    flat[:n], flat[n:] = u, np.eye(d)
    for i in range(1, width):
        p[:, i] = p[:, i] @ p[:, i - 1]
    for j in range(1, len(p)):
        p[j] = (p[j].reshape(-1, d) @ p[j - 1, -1]).reshape(width, d, d)
    return flat[:n]


class _Driven:
    """A driven segment as its midpoint-propagated (steps+1, d, d) state stack."""

    def __init__(self, sched: HamiltonianSchedule, seg: Segment, rho_start: np.ndarray,
                 dt: float, steps: int):
        d = rho_start.shape[0]
        stack = np.empty((steps + 1, d, d), dtype=complex)
        stack[0] = rho_start
        for k0, k1 in _batches(0, steps, d * d):
            mids = seg.t_start + (np.arange(k0, k1) + 0.5) * dt
            p = _prefix_products(_expi(sched._hamiltonians(seg, mids), dt))
            stack[k0 + 1:k1 + 1] = (p.reshape(-1, d) @ stack[k0]).reshape(-1, d, d) @ _dag(p)
        stack[-1] = _sym(stack[-1])
        stack.setflags(write=False)
        self.sched, self.seg, self.stack = sched, seg, stack
        self.steps, self.end = steps, stack[-1]

    def _states(self, start: int, stop: int) -> np.ndarray:
        return self.stack[start:stop]

    def observables(self, times: np.ndarray):
        """Env energies and energy rates at the segment's grid points."""
        sched, stack = self.sched, self.stack
        d = stack.shape[1]
        energies = sched.gibbs.mean_energy(_ptrace_stack(stack, sched.d_s, sched.d_e, "E"))
        rates = np.empty(len(times))
        for k0, k1 in _batches(0, len(times), d * d):
            # R = -i (X^dag - X) for X = h_int (I x H_E), so tr[rho R] = -2 Im tr[rho X].
            h_int = _term_stack(self.seg.h_int, times[k0:k1], d, "h_int")
            x = (h_int.reshape(-1, d) @ sched._env_term).reshape(-1, d, d)
            rates[k0:k1] = -2.0 * np.einsum("kij,kji->k", stack[k0:k1], x).imag
        return energies, rates


@dataclass(frozen=True)
class Trajectory:
    """Thermodynamic observables on the time grid, built on first read.

    ``initial`` and ``final`` are stored, with the environment energy and
    beta* of each in ``env_energy_ends`` and ``beta_star_ends``.  The grid
    arrays ``env_energy`` and ``heat_flux`` (dQ/dt = -d/dt tr[rho_E H_E]) and
    the per-segment ``segment_rates`` are built together from the segment
    states on first read; at interior segment boundaries, where the generator
    may jump, ``heat_flux`` holds the right-limit.  The stack ``rho`` and the
    grid ``beta_star`` are likewise built on first read.
    """

    d_s: int
    d_e: int
    times: np.ndarray
    env_energy_ends: tuple   # (E_0, E_tau): tr[rho_E H_E] of the stored endpoint marginals
    beta_star_ends: tuple    # (beta*_0, beta*_tau) solved from env_energy_ends
    schedule: HamiltonianSchedule
    segment_slices: tuple    # slice into the grid per segment, endpoints inclusive
    initial: BipartiteState
    final: BipartiteState
    _segment_states: tuple   # per segment: an _Eigenframe or a _Driven

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def rho(self) -> np.ndarray:
        """(K+1, d, d) complex joint states, read-only, built on first access."""
        d = self.d_s * self.d_e
        rho = np.empty((len(self.times), d, d), dtype=complex)
        rho[0] = self.initial.mat
        for sl, src in zip(self.segment_slices, self._segment_states):
            for k0, k1 in _batches(1, src.steps, d * d):
                rho[sl.start + k0:sl.start + k1] = src._states(k0, k1)
            rho[sl.stop - 1] = src.end
        rho.setflags(write=False)
        return rho

    @cached_property
    def _observables(self) -> tuple:
        """(env_energy, heat_flux, segment_rates), read-only, in one pass over the segments."""
        energy, flux, seg_rates = np.empty(len(self.times)), np.empty(len(self.times)), []
        for sl, src in zip(self.segment_slices, self._segment_states):
            energies, rates = src.observables(self.times[sl])
            # Later segments overwrite shared boundaries.
            energy[sl], flux[sl] = energies, -rates
            seg_rates.append(rates)
        energy[0], energy[-1] = self.env_energy_ends
        for arr in (energy, flux, *seg_rates):
            arr.setflags(write=False)
        return energy, flux, tuple(seg_rates)

    # Each read-only, from the one cached pass above.
    env_energy = property(lambda self: self._observables[0])
    heat_flux = property(lambda self: self._observables[1])
    segment_rates = property(lambda self: self._observables[2])

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
        cols = (self.times, self.env_energy, self.beta_star, self.heat_flux, s_sys, mi)
        for row in zip(*cols):
            writer.writerow([repr(float(x)) for x in row])


def env_energy_rate(rho: BipartiteState, h_total: HermitianMatrix,
                    h_env: HermitianMatrix) -> float:
    """Analytic d/dt tr[rho_E H_E] = tr[tr_S(-i [H_total, rho]) H_E].

    The heat flux is the negative of this value.
    """
    return _generator_rates(rho, h_total, h_env)[1]


def _generator_rates(rho: BipartiteState, h_total, h_env) -> tuple[np.ndarray, float]:
    """(tr_E rho', ``env_energy_rate``) from one rho' = -i [H_total, rho]."""
    _expect(rho, BipartiteState, "rho")
    h, r = HermitianMatrix._of(h_total, rho.dim).mat, rho.state.mat
    h_env = HermitianMatrix._of(h_env, rho.d_e)
    drho = (-1j * (h @ r - r @ h))[None]
    drho_sys, drho_env = (_ptrace_stack(drho, rho.d_s, rho.d_e, k)[0] for k in "SE")
    return drho_sys, float(_mean_energy(drho_env, h_env.mat))


def evolve(initial: BipartiteState, sched: HamiltonianSchedule,
           steps_per_segment: int) -> Trajectory:
    """Propagate the joint state over the schedule grid.

    Only what the final state needs is computed here.  Each constant segment
    costs one eigendecomposition of its Hamiltonian and no per-step loop; its
    ``_Eigenframe`` is kept.  Time-dependent segments use the midpoint
    Hamiltonian per substep, assembled and exponentiated (Taylor series with
    scaling and squaring) as stacks a bounded chunk of substeps at a time, and
    each chunk's states come from blocked prefix products of its propagators
    with no per-substep loop; their state stack is kept.  At the two
    endpoints the environment energy is ``mean_energy`` of the stored marginal
    and beta* is solved from it here and cached on the marginal, where
    ``build_bound_report`` reads beta*_0.  The grid observables are built
    from the kept states on first read: energy and heat flux exactly to
    rounding on constant segments, and from h_int alone on driven ones, since
    only the coupling fails to commute with I x H_E; then the interior beta*
    grid and ``Trajectory.rho``.
    """
    _expect(sched, HamiltonianSchedule, "sched")
    _expect(initial, BipartiteState, "initial", d_s=sched.d_s, d_e=sched.d_e)
    steps = _as_int(steps_per_segment, "steps_per_segment")
    if steps < 1:
        raise InvalidInput("steps_per_segment must be at least 1")
    total = len(sched.segments) * steps
    if total >= np.iinfo(np.intp).max:
        raise InvalidInput(f"steps_per_segment {steps} gives more grid points than NumPy can index")

    times = np.empty(total + 1)
    times[0] = 0.0

    rho = initial.state.mat
    slices, seg_states = [], []
    for j, seg in enumerate(sched.segments):
        dt = (seg.t_end - seg.t_start) / steps
        sl = slice(j * steps, (j + 1) * steps + 1)
        times[sl.start + 1:sl.stop] = seg.t_start + np.arange(1, steps + 1) * dt
        times[sl.stop - 1] = seg.t_end  # pin the endpoint against rounding drift
        src = (_Eigenframe if seg.is_constant else _Driven)(sched, seg, rho, dt, steps)
        rho = src.end
        slices.append(sl)
        seg_states.append(src)

    # Each endpoint's energy and beta* from its stored marginal, which caches beta*.
    final = BipartiteState._trusted(sched.d_s, sched.d_e, rho)
    (e0, b0), (e1, b1) = (sched.gibbs._endpoint(s.rho_env) for s in (initial, final))
    times.setflags(write=False)
    return Trajectory(
        d_s=sched.d_s,
        d_e=sched.d_e,
        times=times,
        env_energy_ends=(e0, e1),
        beta_star_ends=(b0, b1),
        schedule=sched,
        segment_slices=tuple(slices),
        initial=initial,
        final=final,
        _segment_states=tuple(seg_states),
    )
