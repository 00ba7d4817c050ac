"""Closed forms for a two-level environment and nonnegativity region maps.

A qubit environment with Hamiltonian diag(0, gap), ground state first, has
thermal states determined by a single polarization r(beta) = tanh(beta*gap/2).
States are parameterized as rho = (1/2)[[1+p, b], [conj(b), 1-p]] through
``EnvPoint``; trace distances and the sufficient nonnegativity condition then
reduce to elementary functions of (p, b), which this module exposes alongside
grid evaluation for region maps.  All formulas depend on the coherence only
through its magnitude, so grids scan (longitudinal, |coherence|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from .bounds import binary_entropy
from .errors import DomainError, InvalidInput, NumericalError
from .entropy_production import ConstantBeta, EnergyMatching
from .io import atomic_write_text
from .linalg import DensityMatrix, HermitianMatrix, _as_complex, _as_int, _as_real, _expect
from .thermo import _solver

# Slack on the Bloch-ball constraint longitudinal^2 + |coherence|^2 <= 1.
_BALL_TOL = 1e-12

# Agreement required between the closed-form polarization inverse and the
# generic thermal energy map inside example_distances.
_CONSISTENCY_TOL = 1e-9


def _as_gap(gap) -> float:
    """A level spacing as a float; anything but a positive finite real raises."""
    g = _as_real(gap, "gap")
    if g <= 0:
        raise InvalidInput(f"gap must be positive and finite, got {gap!r}")
    return g


def env_hamiltonian(gap: float) -> HermitianMatrix:
    """diag(0, gap) with the ground state first; gap must be positive."""
    gap = _as_gap(gap)
    return HermitianMatrix(np.diag([0.0, gap]))


def thermal_polarization(beta: float, gap: float) -> float:
    """Population asymmetry tanh(beta*gap/2) of the thermal qubit.

    Strictly increasing in beta, 0 at beta = 0, and +-1 at beta = +-inf
    (the ground and excited projectors).  The thermal state is
    (1/2) diag(1 + r, 1 - r).
    """
    gap = _as_gap(gap)
    return math.tanh(0.5 * _as_real(beta, "beta", inf=True) * gap)


def beta_from_polarization(r: float, gap: float) -> float:
    """Inverse of thermal_polarization; +-1 map to +-inf."""
    gap = _as_gap(gap)
    r = _as_real(r, "polarization")
    if not (-1.0 <= r <= 1.0):
        raise DomainError(f"polarization must lie in [-1, 1], got {r!r}")
    if r == 1.0:
        return math.inf
    if r == -1.0:
        return -math.inf
    return 2.0 * math.atanh(r) / gap


def _beta_star(p: float, gap: float) -> float:
    """beta* at longitudinal p; |p| past 1 within the Bloch slack is the edge state."""
    return beta_from_polarization(min(max(p, -1.0), 1.0), gap)


@dataclass(frozen=True)
class EnvPoint:
    """Qubit state (1/2)[[1+p, b], [conj(b), 1-p]] by Bloch coordinates.

    ``longitudinal`` is the population asymmetry p, ``coherence`` the
    off-diagonal b.  The Bloch constraint p^2 + |b|^2 <= 1 is enforced.
    """

    longitudinal: float
    coherence: complex = 0.0

    def __post_init__(self):
        p, b = _as_real(self.longitudinal, "longitudinal"), _as_complex(self.coherence, "coherence")
        r2 = p * p + b.real * b.real + b.imag * b.imag  # abs(b) raises OverflowError near inf
        if r2 > 1.0 + _BALL_TOL:
            raise InvalidInput(f"Bloch constraint violated: p^2 + |b|^2 = {r2:.6f} > 1")
        object.__setattr__(self, "longitudinal", p)
        object.__setattr__(self, "coherence", b)

    def density_matrix(self) -> DensityMatrix:
        p, b = self.longitudinal, self.coherence
        mat = 0.5 * np.array([[1.0 + p, b], [np.conj(b), 1.0 - p]], dtype=complex)
        return DensityMatrix(mat)


def env_point_of(rho: DensityMatrix) -> EnvPoint:
    """Bloch coordinates of a qubit density matrix."""
    rho = DensityMatrix._of(rho, 2)
    p = float((rho.mat[0, 0] - rho.mat[1, 1]).real)
    b = complex(2.0 * rho.mat[0, 1])
    # Rounding can push a pure state a hair outside the ball; renormalize.
    norm = math.sqrt(p * p + abs(b) * abs(b))
    if 1.0 < norm <= 1.0 + 1e-9:
        p, b = p / norm, b / norm
    return EnvPoint(longitudinal=p, coherence=b)


class ExampleDistances(NamedTuple):
    """Closed-form trace distances for the qubit-environment example."""

    initial_distance: float
    final_distance: float


def example_distances(initial: EnvPoint, final: EnvPoint, beta_tau: float,
                      gap: float) -> ExampleDistances:
    """Trace distances |a|/2 and sqrt((s - r(beta_tau))^2 + |b|^2)/2.

    ``initial_distance`` is the distance of the initial environment state to
    the thermal state at its own effective inverse temperature, which the
    coherence alone controls; ``final_distance`` is the distance of the
    final state to the thermal state at the assigned ``beta_tau``.  Both are
    validated through the generic thermal energy map: the Gibbs energy at
    each point's closed-form effective inverse temperature must reproduce
    its longitudinal coordinate as 1 - 2E/gap, which pins the
    ground-state-first basis convention.
    """
    _expect(initial, EnvPoint, "initial")
    _expect(final, EnvPoint, "final")
    solver = _solver(env_hamiltonian(gap))
    for pt in (initial, final):
        p = pt.longitudinal
        p_back = 1.0 - 2.0 * solver.energy(_beta_star(p, gap)) / gap
        if abs(p_back - p) > _CONSISTENCY_TOL:
            raise NumericalError(
                f"polarization round trip drifted: 1 - 2E(beta*)/gap = {p_back!r} "
                f"vs p = {p!r}"
            )
    r_tau = thermal_polarization(beta_tau, gap)
    final_distance = 0.5 * math.hypot(final.longitudinal - r_tau, abs(final.coherence))
    return ExampleDistances(
        initial_distance=0.5 * abs(initial.coherence),
        final_distance=final_distance,
    )


def region_rhs(initial: EnvPoint, beta0: float, gap: float) -> float:
    """Threshold 2*H2(|a|/2) + 2*D(gamma(beta*0) || gamma(beta0)).

    The square root of this value is the radius of the ball outside which
    the sufficient condition holds.
    """
    _expect(initial, EnvPoint, "initial")
    beta0 = _as_real(beta0, "beta0", inf=True)
    delta = 0.5 * abs(initial.coherence)
    beta_star0 = _beta_star(initial.longitudinal, gap)
    solver = _solver(env_hamiltonian(gap))
    mismatch = solver.gibbs_relative_entropy(beta_star0, beta0)
    return 2.0 * binary_entropy(delta) + 2.0 * mismatch


def region_lhs(final: EnvPoint, beta_tau: float, gap: float) -> float:
    """(s - r(beta_tau))^2 + |b|^2, four times the squared final distance."""
    _expect(final, EnvPoint, "final")
    d, b = final.longitudinal - thermal_polarization(beta_tau, gap), abs(final.coherence)
    return d * d + b * b


def region_condition(initial: EnvPoint, final: EnvPoint, beta0: float,
                     beta_tau: float, gap: float) -> bool:
    """Sufficient condition for nonnegative entropy production.

    True certifies nonnegativity for any unitary process with these
    environment marginals and assigned temperatures; False is inconclusive.
    Passing the final point's own effective inverse temperature as
    ``beta_tau`` cancels the longitudinal term, leaving |b|^2 >= rhs.
    """
    return region_lhs(final, beta_tau, gap) >= region_rhs(initial, beta0, gap)


BetaTauPolicy = Union[ConstantBeta, EnergyMatching]


@dataclass(frozen=True)
class RegionGrid:
    """Grid specification for a region map over final states (s, |b|).

    ``beta0`` is the assigned initial inverse temperature; the initial
    environment state has longitudinal ``initial_longitudinal`` (default:
    thermal at beta0, which zeroes the thermal-mismatch term) and coherence
    magnitude ``coherence_abs``.  ``beta_tau_policy`` fixes the final
    reference: a constant assignment, or energy matching in which each
    column's own effective temperature is used and the condition becomes
    independent of s.
    """

    gap: float
    beta0: float
    beta_tau_policy: BetaTauPolicy
    coherence_abs: float
    s_min: float
    s_max: float
    s_count: int
    b_min: float
    b_max: float
    b_count: int
    initial_longitudinal: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "gap", _as_gap(self.gap))
        object.__setattr__(self, "beta0", _as_real(self.beta0, "beta0", inf=True))
        if not isinstance(self.beta_tau_policy, (ConstantBeta, EnergyMatching)):
            raise InvalidInput("beta_tau_policy must be ConstantBeta or EnergyMatching")
        for name in ("s_count", "b_count"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, lo=1))
        reals = ("s_min", "s_max", "b_min", "b_max", "coherence_abs", "initial_longitudinal")
        for name in reals if self.initial_longitudinal is not None else reals[:-1]:
            object.__setattr__(self, name, _as_real(getattr(self, name), name))
        if self.s_min > self.s_max or self.b_min > self.b_max:
            raise InvalidInput("grid ranges must satisfy min <= max")
        if self.b_min < 0:
            raise InvalidInput("coherence magnitudes are nonnegative")
        if self.s_max - self.s_min == math.inf:  # b's width is at most b_max
            raise InvalidInput("the s axis width s_max - s_min must be finite")
        if self.coherence_abs < 0:
            raise InvalidInput("coherence_abs must be nonnegative")

    def initial_point(self) -> EnvPoint:
        p = self.initial_longitudinal
        if p is None:
            p = thermal_polarization(self.beta0, self.gap)
        return EnvPoint(longitudinal=p, coherence=self.coherence_abs)

    def s_values(self) -> np.ndarray:
        return self._axis(self.s_min, self.s_max, self.s_count)

    def b_values(self) -> np.ndarray:
        return self._axis(self.b_min, self.b_max, self.b_count)

    @staticmethod
    def _axis(lo: float, hi: float, count: int) -> np.ndarray:
        """``count`` points from lo to hi; one point is the midpoint, summed from halves."""
        return np.linspace(lo, hi, count) if count > 1 else np.array([0.5 * lo + 0.5 * hi])


class RegionCell(NamedTuple):
    """One grid cell of a region map."""

    s: float
    b_abs: float
    rhs: float
    holds: bool
    feasible: bool


@dataclass(frozen=True, eq=False)
class RegionMap:
    """Evaluated region map: ``holds`` and ``feasible`` as booleans on the s x b_abs grid."""

    s: np.ndarray
    b_abs: np.ndarray
    holds: np.ndarray
    feasible: np.ndarray
    metadata: dict

    @cached_property
    def cells(self) -> tuple:
        """RegionCells in row-major (s outer, b inner) order, built on first read."""
        rhs, b_abs = self.metadata["rhs"], self.b_abs.tolist()
        rows = zip(self.s.tolist(), self.holds.tolist(), self.feasible.tolist())
        return tuple(RegionCell(s, b, rhs, h, f) for s, holds, feasible in rows
                     for b, h, f in zip(b_abs, holds, feasible))

    def write_csv(self, path: str) -> None:
        atomic_write_text(path, self._csv_rows())

    def _csv_rows(self):
        """The CSV text, one s-row of cells at a time, so no more than a row is held."""
        rhs, flag = repr(self.metadata["rhs"]), ("false", "true")
        cols = [f"{b!r},{rhs}," for b in self.b_abs.tolist()]
        yield "s,b_abs,rhs,holds,feasible\n"
        for s, holds, feasible in zip(self.s.tolist(), self.holds, self.feasible):
            head = f"{s!r},"
            yield "".join([f"{head}{c}{flag[h]},{flag[f]}\n"
                           for c, h, f in zip(cols, holds.tolist(), feasible.tolist())])


def emit_region_map(grid: RegionGrid) -> RegionMap:
    """Evaluate the sufficient condition on every grid cell.

    The threshold is shared by all cells; under a constant assignment the
    holds-region is the outside of a ball centered at (r(beta_tau), 0),
    under energy matching it is the horizontal band |b| >= sqrt(rhs).
    Cells violating the Bloch constraint are marked infeasible but still
    evaluated when the condition is defined there; a square past the float range is +inf.
    """
    _expect(grid, RegionGrid, "grid")
    initial = grid.initial_point()
    rhs = region_rhs(initial, grid.beta0, grid.gap)
    constant = isinstance(grid.beta_tau_policy, ConstantBeta)
    r_tau = thermal_polarization(grid.beta_tau_policy.beta, grid.gap) if constant else None

    s, b = grid.s_values(), grid.b_values()
    with np.errstate(over="ignore"):
        col, bb = s[:, None], b * b
        feasible = col * col + bb <= 1.0 + _BALL_TOL
        if constant:
            holds = (col - r_tau) * (col - r_tau) + bb >= rhs
        else:
            # Energy matching cancels the longitudinal term; past |s| = 1 no state matches.
            holds = (np.abs(col) <= 1.0) & (bb >= rhs)

    beta_star0 = _beta_star(initial.longitudinal, grid.gap)
    metadata = {
        "gap": grid.gap,
        "beta0": grid.beta0,
        "beta_star_initial": beta_star0,
        "initial_longitudinal": initial.longitudinal,
        "coherence_abs": grid.coherence_abs,
        "policy": "constant" if constant else "energy_matching",
        "beta_tau": grid.beta_tau_policy.beta if constant else None,
        "ball_center_s": r_tau,
        "ball_radius": math.sqrt(rhs) if math.isfinite(rhs) else math.inf,
        "rhs": rhs,
        "s_min": grid.s_min, "s_max": grid.s_max, "s_count": grid.s_count,
        "b_min": grid.b_min, "b_max": grid.b_max, "b_count": grid.b_count,
    }
    return RegionMap(s=s, b_abs=b, holds=holds, feasible=feasible, metadata=metadata)
