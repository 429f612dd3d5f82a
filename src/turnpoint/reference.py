"""Independent standard-QM oracle: Numerov shooting for bound states of the
same wells, plus the textbook step-potential reflection coefficient.

Every pass shoots from both walls and matches the shots at an interior
point: their sign changes plus the sign of their Wronskian count the box
eigenvalues below E, and the Wronskian, normalized, is a mismatch that is zero
at those eigenvalues and smooth in E. Counts isolate level k (0-based) in a
bracket whose ends count k and k + 1; Brent's method then finds the zero of
the mismatch matched near the right turning point. A level takes about 11
passes (2 counts and 9 mismatch evaluations). Shots run on y = c psi in one of
two kernels. A count's shots keep only the ratio y[i+1] / y[i] (Johnson 1977),
so they count sign changes over every pocket of a box and never overflow.
Brent's shots start 25 of action from the matching point, so they run y
itself, with no count, divide or rescale, and fall back to ratios only where y
overflows all the same. Every shot skips the tails where psi from the walls is
below rounding: beyond every pocket for a count, beyond the matching point for
Brent's. U is tabulated once per box, and a count's span once per rung.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import numerics, potentials
from .errors import ConvergenceFailure, DomainError, InvalidInput
from .potentials import PotentialSpec, UnitSystem


# A matching shot starts where its action, the sum of h kappa = h sqrt(2 m (U - E)) / hbar, to
# the matching point is this. Its (0, kick) start adds only the decaying solution, which shrinks
# by e^(-50) ~ 2e-22 on the way, as Numerov's growth per step, acosh(b / 2), is at least h kappa.
_SHOT_ACTION = 25.0


@dataclass(frozen=True)
class NumerovConfig:
    n_points: int = 4001
    box_padding: float = 5.0  # multiples of the classical width beyond each turning point
    energy_tol: float = 1e-9
    """Width of a level's last bracket, relative to 1 + |E|. c = 1 + h^2 g / 12 rounds:
    on isw:L=1 at 4001 points the recurrence is constant in E over about 2e-8, so a
    tighter tolerance buys passes, not accuracy."""

    def __post_init__(self):
        if self.n_points < 101 or self.n_points % 2 == 0:
            raise InvalidInput(f"n_points must be odd and >= 101, got {self.n_points}")
        if not (self.box_padding >= 0.0 and math.isfinite(self.box_padding)):
            raise InvalidInput(f"box_padding must be finite and >= 0, got {self.box_padding}")
        if not (self.energy_tol > 0.0 and math.isfinite(self.energy_tol)):
            raise InvalidInput(f"energy_tol must be positive and finite, got {self.energy_tol}")


@dataclass(frozen=True)
class ReferenceLevel:
    n_index: int  # 0-based; equals the node count
    energy: float
    node_count: int


def _potential_on_grid(spec: PotentialSpec, grid: np.ndarray, units: UnitSystem) -> np.ndarray:
    """U on the grid; endpoints where U is undefined act as hard walls
    (psi = 0 there, so the value never enters the recurrence). At an
    interior point where U is undefined, `evaluate` raises its own error."""
    u = np.empty(len(grid))
    u[1:-1] = spec.evaluate_grid(grid[1:-1], units)
    undefined = np.flatnonzero(np.isnan(u[1:-1]))
    if undefined.size:
        potentials.evaluate(spec, float(grid[1 + undefined[0]]), units)  # raises
    for i in (0, -1):
        try:
            u[i] = potentials.evaluate(spec, float(grid[i]), units)
        except DomainError:
            u[i] = 0.0  # wall point, psi pinned to zero
    return u


def numerov_integrate(
    spec: PotentialSpec,
    E: float,
    grid: np.ndarray,
    units: UnitSystem | None = None,
) -> np.ndarray:
    """Three-term Numerov recurrence left-to-right on a uniform grid.

    Starts from psi = 0 at the left edge with a small kick; rescales in
    place when the amplitude threatens overflow (output is unnormalized
    anyway). Deterministic for identical inputs.
    """
    units = units or UnitSystem()
    grid = np.asarray(grid, dtype=float)
    u = _potential_on_grid(spec, grid, units)
    return _recurrence(u, E, grid[1] - grid[0], units)


def _stencil(u: np.ndarray, E: float, h: float, units: UnitSystem) -> np.ndarray:
    """c = 1 + h^2 g / 12 with g = 2 m (E - U) / hbar^2 at each point."""
    return 1.0 + h * h * ((2.0 * units.mass / (units.hbar * units.hbar)) * (E - u)) / 12.0


def _recurrence(u: np.ndarray, E: float, h: float, units: UnitSystem) -> np.ndarray:
    """psi of `numerov_integrate` on the tabulated potential u:
    psi[i+1] = (a[i] psi[i] - c[i-1] psi[i-1]) / c[i+1] with a = 12 - 10 c."""
    c = _stencil(u, E, h, units)
    a = (12.0 - 10.0 * c).tolist()
    # numpy scalars keep numpy's inf/nan for a zero divisor, not ZeroDivisionError
    c = c.tolist() if c.all() else list(c)
    psi = np.zeros(len(u))
    psi[1] = 1e-6
    for i in range(1, len(u) - 1):
        psi[i + 1] = (a[i] * psi[i] - c[i - 1] * psi[i - 1]) / c[i + 1]
        if abs(psi[i + 1]) > 1e100:
            psi[: i + 2] /= 1e100
    return psi


def _shot(b: Iterable[float]) -> tuple[int, float, float]:
    """y[i+1] = b[i] y[i] - y[i-1] from y = 0, 1 over b, run as the ratio r = y[i+1] / y[i] = b[i] - 1 / r
    from r = inf (Johnson, J. Chem. Phys. 67, 4086, 1977): its sign changes, one at each r < 0 (a
    zero of y gives r = 0, then r = -inf; NaN carries no sign), and its last two values, rebuilt
    from the last r up to a common positive factor, at most 1 in size."""
    r, nodes = math.inf, 0
    for b_cur in b:
        try:
            r = b_cur - 1.0 / r
        except ZeroDivisionError:  # y[i] = 0, so y[i+1] = -y[i-1]
            r = -math.inf
        if r < 0.0:
            nodes += 1
    s = -1.0 if nodes % 2 else 1.0  # the sign of the last nonzero value, as y[1] > 0
    if abs(r) > 1.0:
        return nodes, s / r, s
    return nodes, (-s if r < 0.0 else s), s * abs(r)


def _ends(b: Iterable[float]) -> tuple[float, float]:
    """The same recurrence run on y itself: its last two values, signs and all. It counts nothing
    and never rescales, so it overflows where y grows past 1e308, as `_shot` never does."""
    y0, y1 = 0.0, 1.0
    for b_cur in b:
        y0, y1 = y1, b_cur * y1 - y0
    return y0, y1


def _weights(u: np.ndarray, E: float, h: float, units: UnitSystem) -> tuple[np.ndarray, np.ndarray]:
    """c of `_stencil` and the shots' b = (12 - 10 c) / c, where b[j] belongs to point j + 1."""
    c = _stencil(u, E, h, units)
    return c, (12.0 - 10.0 * c[1:-1]) / c[1:-1]


def _sine(c: np.ndarray, m: int, hk: float, l0: float, l1: float, r0: float, r1: float) -> float:
    """sin(theta_r - theta_l) of the angles theta = atan2(psi' / k, psi) at m + 1/2 (h k = hk) of
    the shots' values y = c psi at m and m + 1, each known up to a positive factor."""
    c0, c1 = c[m:m + 2].tolist()
    l0, l1, r0, r1 = l0 / c0, l1 / c1, r0 / c0, r1 / c1
    theta_l = math.atan2((l1 - l0) / hk, 0.5 * (l0 + l1))
    return math.sin(math.atan2((r1 - r0) / hk, 0.5 * (r0 + r1)) - theta_l)


def _match(u: np.ndarray, E: float, h: float, units: UnitSystem, m: int, hk: float) -> tuple[int, float]:
    """The shots from both walls, matched at m and m + 1: the number of box eigenvalues below E,
    and the mismatch `_sine` of their angles, zero exactly at the box's eigenvalues and smooth in E.
    The count is the shots' sign changes up to m + 1, plus 1 where W = l[m] r[m+1] - l[m+1] r[m]
    has the sign of l[m+1] r[m+1] (the discrete Pruefer index, Pryce 1993). The shots run on ratios
    of y = c psi; psi = y / c keeps its sign, as c > 0 on c[1:] at every E tried (see `box`)."""
    c, b = _weights(u, E, h, units)
    (nodes_l, l0, l1), (nodes_r, r2, r1) = _shot(memoryview(b[:m])), _shot(memoryview(b[:m:-1]))
    r0 = float(b[m]) * r1 - r2  # the right shot's step to m, whose sign change is not counted
    count = nodes_l + nodes_r + ((l0 * r1 - l1 * r0) * l1 * r1 > 0.0)  # on y: psi = y / c can underflow
    return count, _sine(c, m, hk, l0, l1, r0, r1)


def _mismatch(u: np.ndarray, E: float, h: float, units: UnitSystem, m: int, hk: float) -> float:
    """The mismatch of `_match` from `_ends` shots, which cost less per step: Brent's refinement
    trims its shots to _SHOT_ACTION of action, over which y stays far below overflow. Where an end
    value is not finite all the same, it is `_match`'s."""
    c, b = _weights(u, E, h, units)
    (l0, l1), (r2, r1) = _ends(memoryview(b[:m])), _ends(memoryview(b[:m:-1]))
    r0 = float(b[m]) * r1 - r2
    if not math.isfinite(l0 + l1 + r0 + r1):
        return _match(u, E, h, units, m, hk)[1]
    return _sine(c, m, hk, l0, l1, r0, r1)


def _live_span(u: np.ndarray, E: float, h: float, units: UnitSystem, first: int, last: int) -> tuple[int, int]:
    """[start, stop) of the box from _SHOT_ACTION of action at E left of point first to as much right of last."""
    action = np.cumsum(h * np.sqrt(np.maximum(2.0 * units.mass * (u - E), 0.0)) / units.hbar)
    start = max(int(np.searchsorted(action, action[first] - _SHOT_ACTION, "right")) - 1, 0)
    stop = min(int(np.searchsorted(action, action[last] + _SHOT_ACTION)) + 2, len(u))
    return start, stop


def _count_span(u: np.ndarray, E: float, h: float, units: UnitSystem) -> tuple[int, int]:
    """The live span of every point where U <= E but the one next to the right wall (so the span has
    the 4 points `_match` needs). It holds the span of every lower E: fewer points are live there,
    and the action from them to the walls grows faster."""
    live = np.flatnonzero(u[1:-2] <= E) + 1
    return _live_span(u, E, h, units, live[0], live[-1]) if live.size else (0, len(u))


def _count(u: np.ndarray, E: float, h: float, units: UnitSystem, span: tuple[int, int]) -> int:
    """Box eigenvalues below E, from shots over span, the `_count_span` of E or of an energy above
    it; any m will do."""
    start, stop = span
    return _match(u[start:stop], E, h, units, (stop - start - 1) // 2, 1.0)[0]


def _build_grid(
    spec: PotentialSpec, E: float, config: NumerovConfig, units: UnitSystem
) -> np.ndarray:
    """Integration box: a finite domain, whose ends are walls; a padded
    turning-point box for soft wells; else the domain cut at -100 and 100."""
    dom = spec.domain()
    walled = math.isfinite(dom.lo) and math.isfinite(dom.hi)
    pairs = None if walled else potentials.analytic_turning_points(spec, E, units)
    if pairs is None:
        return np.linspace(*spec.span(), config.n_points)
    tp = pairs[-1]
    lo = max(tp.x1 - config.box_padding * tp.d, dom.lo)
    hi = min(tp.x2 + config.box_padding * tp.d, dom.hi)
    # inverse-square poles: clip where U is ~1e4 times the scan energy so the
    # stencil stays stable (h^2 * g moderate); psi is pinned to zero there. Taken
    # as c / x^2 = cap unless that is past the left turning point (parab, u0 >> cap)
    if spec.pole_coeff is not None:
        cap = 1e4 * max(E, 1.0)
        clip = math.sqrt(spec.pole_coeff / cap)
        if not clip < tp.x1:
            clip = potentials.analytic_turning_points(spec, cap, units)[-1].x1
        lo = max(lo, clip)
    return np.linspace(lo, hi, config.n_points)


def shoot_bound_states(
    spec: PotentialSpec,
    n_max: int,
    config: NumerovConfig | None = None,
    units: UnitSystem | None = None,
) -> list[ReferenceLevel]:
    """Lowest n_max standard eigenvalues, 0-based by node count."""
    config = config or NumerovConfig()
    units = units or UnitSystem()
    if n_max < 1:
        raise InvalidInput(f"n_max must be >= 1, got {n_max}")
    floor = potentials.u_min(spec)
    scale = spec.energy_scale(units)
    tol = numerics.Tolerances(root_abs=config.energy_tol, root_rel=config.energy_tol)
    # U per box, keyed by the endpoints' bits: levels that stop on the same
    # rung of the expansion ladder floor + scale * 2^j share its box
    tables: dict[bytes, np.ndarray] = {}
    e_lo, e_hi = floor + 1e-9 * scale, floor + scale

    def box(E: float) -> tuple[np.ndarray, float, tuple[int, int]]:
        # the rung's table, step and count span at E, which every count on the rung reuses
        grid = _build_grid(spec, E, config, units)
        key = grid[[0, -1]].tobytes()
        if key not in tables:
            u = tables[key] = _potential_on_grid(spec, grid, units)
            # c grows with E: where it is not positive at the floor, psi flips sign at
            # every E (c[0] multiplies the pinned psi = 0)
            c = _stencil(u, e_lo, grid[1] - grid[0], units)
            i = int(np.argmin(c[1:])) + 1
            if not c[i] > 0.0:
                raise ConvergenceFailure(f"Numerov coefficient c = 1 + h^2 g / 12 is {c[i]} at x = {grid[i]}")
        u, h = tables[key], grid[1] - grid[0]
        return u, h, _count_span(u, E, h, units)

    levels: list[ReferenceLevel] = []
    u, h, span = box(e_hi)
    lo, n_lo, n_top = e_lo, 0, _count(u, e_hi, h, units, span)
    expansions = 0
    for k in range(n_max):
        # climb the ladder until the box counts more than k levels; every
        # rung below the previous level's stopping rung counts at most k - 1,
        # so the climb resumes there
        last = u
        while n_top <= k:
            e_hi = floor + (e_hi - floor) * 2.0
            expansions += 1
            if expansions > 60:
                raise ConvergenceFailure(f"could not bracket reference level {k}")
            u, h, span = box(e_hi)
            n_top = _count(u, e_hi, h, units, span)
        # the last level's upper end starts this one if it counts k levels, in
        # a new box too; else the floor does
        if n_lo != k or (k > 0 and u is not last and _count(u, lo, h, units, span) != k):
            lo, n_lo = e_lo, 0
        # isolate: counts narrow [lo, hi] until they read k and k + 1
        hi, n_hi = e_hi, n_top
        while hi - lo > config.energy_tol * (1.0 + abs(lo)) and (n_lo, n_hi) != (k, k + 1):
            mid = 0.5 * (lo + hi)
            n_mid = _count(u, mid, h, units, span)
            if n_mid > k:
                hi, n_hi = mid, n_mid
            else:
                lo, n_lo = mid, n_mid
        energy = 0.5 * (lo + hi)
        if hi - lo > config.energy_tol * (1.0 + abs(lo)):
            # refine: Brent on the mismatch at the last interior point below lo
            # (else the lowest), which is allowed all over [lo, hi]
            m = int(np.flatnonzero(u[1:-1] <= max(lo, u[1:-1].min()))[-1]) + 1
            m = min(max(m, 2), len(u) - 4)
            hk = h * math.sqrt(2.0 * units.mass * (hi - floor)) / units.hbar
            # shots start _SHOT_ACTION from m and m + 1 at E = hi, where kappa is smallest
            start, stop = _live_span(u, hi, h, units, m, m)
            shots = u[start:stop]
            f = lambda E: _mismatch(shots, E, h, units, m - start, hk)
            f_lo, f_hi = f(lo), f(hi)
            # no sign change (rounding): refine on the counts
            if not f_lo * f_hi < 0.0:
                f, f_lo, f_hi = (lambda E: _count(u, E, h, units, span) - k - 0.5), -0.5, 0.5
            energy = numerics.bisect(f, numerics.Bracket(lo, hi, f_lo, f_hi), tol)
        levels.append(ReferenceLevel(n_index=k, energy=energy, node_count=k))
        lo, n_lo = hi, n_hi
    return levels


def standard_step_R(E: float, U0: float, units: UnitSystem | None = None) -> float:
    """Textbook step reflection: R = ((K - K2)/(K + K2))^2 above the step,
    R = 1 at or below it. K = m1*sqrt(E) and K2 = m1*sqrt(E - U0) share m1,
    which cancels, so R is computed without it and holds where m1 is inf;
    `units` is accepted for symmetry with the other step formulas."""
    if not (E > 0.0 and math.isfinite(E)):
        raise InvalidInput(f"E must be positive, got {E}")
    if not (U0 > 0.0 and math.isfinite(U0)):
        raise InvalidInput(f"U0 must be positive, got {U0}")
    if E <= U0:
        return 1.0
    k, k2 = math.sqrt(E), math.sqrt(E - U0)
    return ((k - k2) / (k + k2)) ** 2
