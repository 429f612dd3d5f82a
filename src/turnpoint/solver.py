"""Turning-point solver: S-integral, delta-equivalent energy, self-consistent
ground and excited levels, and wavefunction construction for infinitely high
wells of arbitrary form.

The quantization branches are K*d = (2n-1)*pi (symmetric, cosine factor),
K*d = 2*n*pi (antisymmetric, sine factor) and K*d = n*pi (general, cosine for
odd n, sine for even n), with K = m1*sqrt(E) and d the turning-point width
evaluated at the same energy; the ground level E = 2*hbar^2 / (m*d^2) is
K*d = 2, the rung below them. Widths depend on the unknown energy, so every
level is a root of one residual, K*d - target (`_rung`), refined by Brent's
method rather than by fixed-point iteration (the right-hand sides need not
contract). Every bracket comes from one upward search,
`numerics.bracket_roots`. A level solve climbs from the bottom of the
energy window by tenfold steps (`numerics.solve_self_consistent`). A
spectrum solve (`_solve_spectrum`) does so for the lowest level only, and
climbs to each level above it from the level below, by doubling steps of
the last gap. Each level makes that one climb: where it fails, the level
fails with its message.

Wells without closed-form turning points (expressions, the step) find them
from sign changes of E - U(x) on a grid. U does not depend on E, so a
spectrum solve tabulates and indexes U once on each grid it scans, and
every trial energy reads its brackets from those tables (`_UTable`); only
the root refinements of the turning points (`numerics.bisect`) evaluate U
anew. The tables also prove most of a climb's energies below the level:
a turning point lies in its sign-change cell, so the distance between the
two cells' outer ends bounds d, and where that bound puts K*d - target
below zero the climb steps on without a turning-point solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import numerics, potentials
from .errors import (
    CONVERGENCE_ERRORS,
    AmbiguousWells,
    ConvergenceFailure,
    DegenerateNorm,
    InvalidEnergy,
    InvalidInput,
    InvalidLevel,
    InvalidRegion,
    NoBoundRegion,
    QuadratureDivergence,
)
from .numerics import Tolerances
from .potentials import PotentialSpec, TurningPoints, UnitSystem

VARIANTS = ("symmetric", "antisymmetric", "general")

_TINY_WIDTH = 1e-12  # widths below this many length scales count as no well
_SCAN_GRIDS = (256, 512, 1024, 2048, 4096)  # turning-point scans, coarse to fine


@dataclass(frozen=True)
class LevelSpec:
    n: int
    variant: str = "general"

    def __post_init__(self):
        if self.n < 1:
            raise InvalidLevel(f"quantum number must be >= 1, got {self.n}")
        if self.variant not in VARIANTS:
            raise InvalidLevel(f"unknown variant {self.variant!r}")

    @property
    def q(self) -> int:
        """Quantization multiple: K*d = q*pi."""
        if self.variant == "symmetric":
            return 2 * self.n - 1
        if self.variant == "antisymmetric":
            return 2 * self.n
        return self.n

    @property
    def uses_cosine(self) -> bool:
        if self.variant == "symmetric":
            return True
        if self.variant == "antisymmetric":
            return False
        return self.n % 2 == 1


@dataclass(frozen=True)
class EnergyLevel:
    level: LevelSpec
    energy: float
    tp: TurningPoints
    K: float
    residual: float  # |K*d - q*pi|


@dataclass(frozen=True)
class GroundState:
    """Zero-point level; energy is the positive magnitude of the bound value
    -2*hbar^2/(m*d^2), with `bound` preserving the sign convention."""

    energy: float
    tp: TurningPoints
    residual: float  # |E - 2 hbar^2 / (m d^2)|
    bound: bool = True


@dataclass(frozen=True)
class WaveFunctionDescriptor:
    level: LevelSpec
    tp: TurningPoints
    amplitude: float
    q_eval: Callable[[float], float]

    def trig_factor(self, x: float) -> float:
        phase = self.level.q * math.pi * (x - self.tp.x0) / self.tp.d
        return math.cos(phase) if self.level.uses_cosine else math.sin(phase)

    def __call__(self, x: float) -> float:
        return sample(self, [x])[0][1]


class _UTable:
    """U(x) of one (spec, units) on each scan grid lo + (hi - lo) * i / n_grid.

    U does not depend on E, so one table serves every turning-point scan
    of a spectrum solve. A grid is filled when a scan first needs it: from
    the spec's own tabulation (`PotentialSpec.tabulated`) at the points whose
    abscissae it holds bit for bit, every other point by one `evaluate_grid`
    call. Each neighbour pair on it is indexed by its range [low, high] of U,
    an empty one (+inf, -inf) where U is not finite. An IEEE subtraction
    keeps the exact sign and gives zero only at E = U, so E - U changes sign
    or meets zero across a pair exactly when low <= E <= high: a later energy
    compares itself with the ranges and applies `numerics.sign_changes`'
    rule, in Python floats, to the few pairs that match. On the wells that
    scan, expressions and the step, `evaluate_grid` gives NaN exactly where
    `evaluate` raises and its bits elsewhere, so the table gives exactly the
    cells `numerics.sign_changes` brackets over f(x) = E - U(x) evaluated
    point by point, NaN where that raises.
    """

    def __init__(self, spec: PotentialSpec, units: UnitSystem):
        self.spec, self.units = spec, units
        self.grids = {}  # n_grid -> (abscissae, U, low, high)

    def _fill(self, n_grid: int) -> tuple[list, list, np.ndarray, np.ndarray]:
        lo, hi = self.spec.span()
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are skipped points
            xs = lo + (hi - lo) * np.arange(n_grid + 1) / n_grid
        known = self.spec.tabulated()
        stride, rest = divmod(len(known[0]) - 1, n_grid) if known else (0, 0)
        if not stride or rest:
            u = self.spec.evaluate_grid(xs, self.units)
        else:  # where (hi - lo) * i overflows, the shared points need not be ours
            known_xs, u = (column[::stride] for column in known)
            stale = xs.view(np.int64) != known_xs.view(np.int64)
            if stale.any():
                u = u.copy()
                u[stale] = self.spec.evaluate_grid(xs[stale], self.units)
        finite = np.isfinite(u[:-1]) & np.isfinite(u[1:])
        low = np.where(finite, np.minimum(u[:-1], u[1:]), np.inf)
        high = np.where(finite, np.maximum(u[:-1], u[1:]), -np.inf)
        return xs.tolist(), u.tolist(), low, high

    def cells(self, E: float, n_grid: int) -> list[tuple[float, float, float, float]]:
        """(x_lo, x_hi, E - U(x_lo), E - U(x_hi)) of each sign-change pair on
        one grid, the fields of the `numerics.Bracket` over it."""
        if n_grid not in self.grids:
            self.grids[n_grid] = self._fill(n_grid)
        xs, u, low, high = self.grids[n_grid]
        out = []
        for i in ((low <= E) & (E <= high)).nonzero()[0].tolist():
            f_lo, f_hi = E - u[i], E - u[i + 1]  # may overflow to inf, a skipped point
            # a zero on the right is left to the next pair, except at the last point
            if math.isfinite(f_lo) and math.isfinite(f_hi) and (f_hi != 0.0 or (i == n_grid - 1 and f_lo != 0.0)):
                out.append((xs[i], xs[i + 1], f_lo, f_hi))
        return out

    def turning_cells(self, E: float) -> list[tuple[float, float, float, float]]:
        """The cells of the first scan grid that shows at least two, else of
        the finest: the next grid is scanned only when the last showed fewer
        (a turning point next to an open domain end may need a fine one)."""
        for n_grid in _SCAN_GRIDS:
            cells = self.cells(E, n_grid)
            if len(cells) >= 2:
                break
        return cells


def turning_points(
    spec: PotentialSpec,
    E: float,
    units: UnitSystem | None = None,
    tol: Tolerances | None = None,
    _table: _UTable | None = None,
) -> TurningPoints:
    """Turning points at energy E; closed form when available, else
    bracketed roots of f(x) = E - U(x), refined by `numerics.bisect`.

    The brackets come from sign changes of E - U on grids of 257, 513, ...
    up to 4097 points (`_UTable.turning_cells`). U on each grid is
    evaluated once and kept in `_table`, which a level solve shares across
    all its energies; without one, a table for this call alone is used. For
    a well mirrored about a pole (`axb`) the positive-side pair is returned
    (the mirrored well carries the same spectrum by symmetry).
    """
    units = units or UnitSystem()
    tol = tol or Tolerances()
    pairs = potentials.analytic_turning_points(spec, E, units)
    if pairs is not None:
        return pairs[-1]
    cells = (_table or _UTable(spec, units)).turning_cells(E)
    if len(cells) < 2:
        raise NoBoundRegion(f"found {len(cells)} turning point(s) at E={E}")
    if len(cells) > 2:
        raise AmbiguousWells(
            f"found {len(cells)} turning points at E={E}; narrow the domain"
        )

    def f(x: float) -> float:
        return E - potentials.evaluate(spec, x, units)

    x1 = numerics.bisect(f, numerics.Bracket(*cells[0]), tol)
    x2 = numerics.bisect(f, numerics.Bracket(*cells[1]), tol)
    return TurningPoints(x1, x2)


class _Shared:
    """What the level solves of one (spec, units, tol) share: the U table, the
    energy window [e_lo, e_hi] (one u_min scan of an expression), and the
    turning-point tolerance, far below energy_rel, as residuals inherit it."""

    def __init__(self, spec: PotentialSpec, units: UnitSystem, tol: Tolerances):
        if not math.isfinite(units.m1):  # every residual would be inf
            raise InvalidInput(f"sqrt(2 m)/hbar overflows for hbar={units.hbar} and mass={units.mass}")
        self.table = _UTable(spec, units)
        self.tp_tol = replace(tol, root_abs=min(tol.root_abs, 1e-14), root_rel=min(tol.root_rel, tol.energy_rel * 1e-3))
        floor, scale = potentials.u_min(spec), spec.energy_scale(units)
        self.e_lo, self.e_hi = floor + 1e-9 * scale, floor + 1e3 * scale
        if not self.e_lo < self.e_hi:
            raise ConvergenceFailure(
                f"u_min={floor} swamps the energy scale {scale}: the energy window "
                f"u_min + [1e-9, 1e3] * scale rounds to [{self.e_lo}, {self.e_hi}]"
            )


def s_integral(
    spec: PotentialSpec,
    E: float,
    units: UnitSystem | None = None,
    tol: Tolerances | None = None,
) -> float:
    """S = integral of U over [x1, x2], the area under the potential
    between the turning points."""
    units = units or UnitSystem()
    tol = tol or Tolerances()
    tp = turning_points(spec, E, units, tol)
    return numerics.integrate(lambda x: potentials.evaluate(spec, x, units), tp.x1, tp.x2, tol)


def delta_equivalent_energy(S: float, units: UnitSystem | None = None) -> float:
    """Bound-state energy -m*S^2/(2*hbar^2) of the equivalent delta well."""
    units = units or UnitSystem()
    if S < 0.0:
        raise InvalidEnergy(f"S must be non-negative, got {S}")
    return -units.mass * S * S / (2.0 * (units.hbar * units.hbar))


def _rung(
    spec: PotentialSpec, target: float, units: UnitSystem | None, tol: Tolerances | None,
    shared: _Shared | None, below: tuple[float, float, float] | None,
) -> tuple[float, TurningPoints, float]:
    """(E, turning points, K) at the root of K(E) * d(E) = target, the level
    equation of every rung, by one climb: with `below` = (E', residual at E',
    step) for a level E' below it, upward from E', else from e_lo. A
    residual that the bracket's refinement cannot evaluate fails the solve
    with a ConvergenceFailure naming its cause, as it would in the climb."""
    units = units or UnitSystem()
    tol = tol or Tolerances()
    shared = shared or _Shared(spec, units, tol)
    m1 = units.m1

    def residual(E: float) -> float:
        d = turning_points(spec, E, units, shared.tp_tol, shared.table).d  # InvalidEnergy below the minimum
        if d < _TINY_WIDTH * spec.scale(units):
            return -math.inf  # not evaluable: E below any admissible level
        return m1 * math.sqrt(E) * d - target

    def below_level(E: float) -> bool:
        # bisect keeps x1 and x2 in their cells, so d is at most the distance of
        # the outer cell ends; IEEE rounding is monotone, so the residual's own
        # operations on that distance bound the residual from above
        if not E > 0.0:
            return False
        cells = shared.table.turning_cells(E)
        return len(cells) == 2 and m1 * math.sqrt(E) * (cells[1][1] - cells[0][0]) - target < 0.0

    skip = None if spec.closed_form else below_level
    try:  # the climb itself raises only ConvergenceFailure
        if below is None:
            energy = numerics.solve_self_consistent(residual, shared.e_lo, shared.e_hi, tol, skip)
        else:
            bracket = numerics.bracket_roots(residual, *below, 2.0, skip)
            energy = numerics._refine(residual, bracket, tol, shared.e_hi - shared.e_lo)
    except CONVERGENCE_ERRORS:
        raise
    except numerics._EVAL_ERRORS as exc:
        raise ConvergenceFailure(f"refining the level's bracket raised {type(exc).__name__} ({exc})") from None
    return energy, turning_points(spec, energy, units, shared.tp_tol, shared.table), m1 * math.sqrt(energy)


def ground_state_energy(
    spec: PotentialSpec,
    units: UnitSystem | None = None,
    tol: Tolerances | None = None,
    _shared: _Shared | None = None,
) -> GroundState:
    """Self-consistent zero-point energy E = 2*hbar^2 / (m * d(E)^2), the rung
    K(E) * d(E) = 2 below the excited ladder; ConvergenceFailure unless
    |E - 2*hbar^2 / (m * d^2)| <= energy_rel * (1 + E)."""
    tol = tol or Tolerances()
    energy, tp, K = _rung(spec, 2.0, units, tol, _shared, None)
    residual = energy * abs(1.0 - (2.0 / (K * tp.d)) ** 2)  # 2 hbar^2 / (m d^2) = E * (2 / (K d))^2
    if residual > tol.energy_rel * (1.0 + energy):
        raise ConvergenceFailure(f"ground residual {residual} above tolerance at E={energy}")
    return GroundState(energy=energy, tp=tp, residual=residual)


def excited_energy(
    spec: PotentialSpec,
    level: LevelSpec,
    units: UnitSystem | None = None,
    tol: Tolerances | None = None,
    _shared: _Shared | None = None,
    _below: tuple[float, float, float] | None = None,
) -> EnergyLevel:
    """Self-consistent solve of K(E) * d(E) = q * pi for the given branch,
    climbing from `_below` as `_rung` does."""
    target = level.q * math.pi
    energy, tp, K = _rung(spec, target, units, tol, _shared, _below)
    return EnergyLevel(level=level, energy=energy, tp=tp, K=K, residual=abs(K * tp.d - target))


def _solve_spectrum(
    spec: PotentialSpec, levels: list[LevelSpec], units: UnitSystem, tol: Tolerances
) -> tuple[GroundState, list[EnergyLevel]]:
    """The ground level and `levels` of one well, in the order given, on one
    `_Shared`. Each distinct q is solved once, in ascending order, upward
    from the level below, stepping by the last gap (E_ground - E_lo for
    the lowest q). A level of an already solved q is a copy."""
    shared = _Shared(spec, units, tol)
    ground = ground_state_energy(spec, units, tol, _shared=shared)
    below, step, by_q = ground, ground.energy - shared.e_lo, {}
    for q in sorted({level.q for level in levels}):
        f_below = units.m1 * math.sqrt(below.energy) * below.tp.d - q * math.pi
        lv = excited_energy(spec, LevelSpec(q), units, tol, _shared=shared, _below=(below.energy, f_below, step))
        below, step, by_q[q] = lv, lv.energy - below.energy, lv
    return ground, [replace(by_q[level.q], level=level) for level in levels]


def q_function(
    spec: PotentialSpec,
    units: UnitSystem | None = None,
    tol: Tolerances | None = None,
    anchor: float | None = None,
) -> Callable[[float], float]:
    """Evaluator for Q(x) = m1 * integral of sqrt(U).

    Closed forms are used when the family has one (zero integration
    constant). Otherwise Q is computed by quadrature anchored at `anchor`
    (Q(anchor) = 0); the normalization amplitude absorbs the constant
    offset between the two conventions.
    """
    units = units or UnitSystem()
    tol = tol or Tolerances()
    if spec.closed_form:
        return lambda x: spec.q(x, units)
    if anchor is None:
        raise InvalidEnergy("numeric Q evaluator needs an anchor point")
    m1 = units.m1

    def sqrt_u(x: float) -> float:
        u = potentials.evaluate(spec, x, units)
        if u < 0.0:
            raise InvalidRegion(f"Q needs U >= 0 on the well, but U({x!r}) = {u!r} < 0")
        return math.sqrt(u)

    def numeric(x: float) -> float:
        # magnitude of the running integral: reproduces the even closed-form
        # antiderivatives on symmetric wells (anchor at the midpoint)
        if x == anchor:
            return 0.0
        if x > anchor:
            return m1 * numerics.integrate(sqrt_u, anchor, x, tol)
        return m1 * numerics.integrate(sqrt_u, x, anchor, tol)

    return numeric


def wavefunction(
    spec: PotentialSpec,
    level: LevelSpec,
    E: float,
    units: UnitSystem | None = None,
    tol: Tolerances | None = None,
) -> WaveFunctionDescriptor:
    """Un-normalized descriptor for psi_n on the well interval [x1, x2].

    A numeric Q takes sqrt(U), so a well whose minimum lies in [x1, x2]
    below 0 is refused here, whatever points `normalize` and `sample` take;
    a dip that the minimum scan misses is refused where a point lands in it."""
    units = units or UnitSystem()
    tol = tol or Tolerances()
    tp = turning_points(spec, E, units, tol)
    lowest = None if spec.closed_form else spec.min_point()
    if lowest and lowest[1] < 0.0 and tp.x1 <= lowest[0] <= tp.x2:
        raise InvalidRegion(f"Q needs U >= 0 on the well, but U({lowest[0]!r}) = {lowest[1]!r} < 0")
    q_eval = q_function(spec, units, tol, anchor=tp.x0)
    return WaveFunctionDescriptor(level=level, tp=tp, amplitude=1.0, q_eval=q_eval)


def normalize(desc: WaveFunctionDescriptor, tol: Tolerances | None = None) -> WaveFunctionDescriptor:
    """Scale the amplitude so that the norm over [x1, x2] is 1."""
    tol = tol or Tolerances()

    def density(x: float) -> float:
        return (desc.trig_factor(x) * math.exp(-desc.q_eval(x))) ** 2

    try:
        norm_sq = numerics.integrate(density, desc.tp.x1, desc.tp.x2, tol)
    except OverflowError as exc:  # exp(-Q) past the float range
        raise QuadratureDivergence(f"norm integrand is not finite on [{desc.tp.x1}, {desc.tp.x2}]: {exc}") from None
    if norm_sq < 1e-300:
        raise DegenerateNorm(f"norm integral {norm_sq} too small")
    return replace(desc, amplitude=1.0 / math.sqrt(norm_sq))


def sample(desc: WaveFunctionDescriptor, grid: list[float]) -> list[tuple[float, float]]:
    """Pointwise (x, psi(x)) over an ascending grid; zero outside the well.
    The one formula for psi: `desc(x)` is this at the one point x."""
    tp, level = desc.tp, desc.level
    x1, x2, x0, d = tp.x1, tp.x2, tp.x0, tp.d
    qpi, amp, q, exp = level.q * math.pi, desc.amplitude, desc.q_eval, math.exp
    trig = math.cos if level.uses_cosine else math.sin
    return [(x, amp * trig(qpi * (x - x0) / d) * exp(-q(x)) if x1 <= x <= x2 else 0.0) for x in grid]
