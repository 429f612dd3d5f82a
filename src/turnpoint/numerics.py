"""Shared numerical kernel: root bracketing and refinement, quadrature, and the
self-consistent scalar-equation solver behind every implicit energy formula.

Every root is refined inside a sign-change bracket by Brent's method
(`bisect`), never by an open Newton or secant iteration: the integrands and
residuals here have kinks (|x|) and poles (cot^2). Brent's interpolation
steps converge superlinearly on smooth stretches, and its bisection steps
keep the bracket and bound the work where interpolation fails.

Brackets of x come from one sign-change rule, `sign_changes`, stated over a
scan given as arrays of abscissae and values with NaN at the points that
could not be evaluated. The solver's table of U keeps the rule without
the sweep: it indexes each neighbour pair by its range of U once, and at
an energy E takes the rule only on the pairs whose range holds E, which
give exactly these brackets of E - U. Brackets of an energy level come
from one upward search, `bracket_roots`: steps that grow from a point
below the level until the residual turns, and halve once they overshoot
the points where it can be evaluated. A caller that can prove the residual
negative more cheaply than evaluating it passes that test, and the search
steps over the points it proves without evaluating the residual there.
A level is one search, and a failed one names the window it searched.

Every integral (S, Q, the norm) is one globally adaptive Gauss-Kronrod 7-15
rule, `integrate`: open nodes need no code for walls or endpoint
singularities, and global halving resolves interior kinks (|x| in S). A
panel is halved at most 60 times and an integral takes at most 1000
panels; those, and narrow panels with too large an estimate, are its
QuadratureDivergence exits.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidInput,
    MaxIterationsExceeded,
    QuadratureDivergence,
    TurnpointError,
)

_EVAL_ERRORS = (TurnpointError, ArithmeticError, ValueError, OverflowError)

_BISECT_MAX_ITER = 200
_CLIMB_STEPS = 60
_QUAD_MAX_DEPTH = 60  # halvings of one panel
_QUAD_MAX_PANELS = 1000  # panels of one integral; converged ones have needed at most 58


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.f_lo) and math.isfinite(self.f_hi)):
            raise ValueError("bracket endpoint values must be finite")
        if math.copysign(1.0, self.f_lo) == math.copysign(1.0, self.f_hi) and self.f_lo != 0.0 and self.f_hi != 0.0:
            raise ValueError("bracket endpoints must differ in sign")


@dataclass(frozen=True)
class Tolerances:
    root_abs: float = 1e-12
    root_rel: float = 1e-10
    quad_rel: float = 1e-10
    energy_rel: float = 1e-10

    def __post_init__(self):
        for name in ("root_abs", "root_rel", "quad_rel", "energy_rel"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidInput(f"{name} must be positive and finite, got {value}")


def sign_changes(xs: Sequence[float], values: np.ndarray) -> list[Bracket]:
    """Brackets between neighbouring scan points where the values change sign.

    Non-finite values are skipped points: no bracket touches them. A pair
    whose left value is exactly zero gives a degenerate-width bracket
    against its nonzero neighbour; a zero on the right is left to the next
    pair, except at the last point, where it pairs with the one before.
    """
    sign = np.where(np.isfinite(values), np.sign(values), np.nan)
    right = sign[1:]
    # a NaN sign makes the product NaN, and NaN <= 0 is false
    idx = ((sign[:-1] * right <= 0.0) & (right != 0.0)).nonzero()[0].tolist()
    if values[-1] == 0.0 and math.isfinite(values[-2]) and values[-2] != 0.0:
        idx.append(len(values) - 2)
    return [
        Bracket(float(xs[i]), float(xs[i + 1]), float(values[i]), float(values[i + 1]))
        for i in idx
    ]


def bisect(f: Callable[[float], float], b: Bracket, tol: Tolerances | None = None) -> float:
    """Root of f inside the bracket by Brent's method.

    Each step is an inverse quadratic interpolation or a secant step when
    that lands well inside the current bracket and shrinks the steps fast
    enough, and a bisection otherwise (Brent 1973, ch. 4; the zeroin form
    of Forsythe, Malcolm and Moler 1977). Every evaluation lies inside
    [b.lo, b.hi], the sign change stays bracketed, and the returned x lies
    in a bracket no wider than root_abs + root_rel * |x|.
    """
    tol = tol or Tolerances()
    if b.f_lo == 0.0:
        return b.lo
    if b.f_hi == 0.0:
        return b.hi
    # x: best estimate; c: the other end of the bracket; a: previous x
    a, fa = b.lo, b.f_lo
    x, fx = b.hi, b.f_hi
    c, fc = a, fa
    for _ in range(_BISECT_MAX_ITER):
        last_step = x - a
        if abs(fc) < abs(fx):
            a, fa = x, fx
            x, fx = c, fc
            c, fc = a, fa
        half_tol = 0.5 * (tol.root_abs + tol.root_rel * abs(x))
        half_width = 0.5 * (c - x)
        if abs(half_width) <= half_tol:
            return x
        step = half_width
        if abs(last_step) >= half_tol and abs(fa) > abs(fx):
            s = fx / fa
            if a == c:  # secant through x and c
                p, q = 2.0 * half_width * s, 1.0 - s
            else:  # inverse quadratic through a, x and c
                qa, r = fa / fc, fx / fc
                p = s * (2.0 * half_width * qa * (qa - r) - (x - a) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # take it only if it lands within 3/4 of the way to c and is
            # under half the last step; else bisect
            if p < 1.5 * half_width * q - 0.5 * abs(half_tol * q) and p < abs(0.5 * last_step * q):
                step = p / q
        a, fa = x, fx
        x += step if abs(step) >= half_tol else math.copysign(half_tol, half_width)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fc > 0.0):
            c, fc = a, fa
    raise MaxIterationsExceeded(f"root search did not converge on [{b.lo}, {b.hi}]")


def integrate(
    f: Callable[[float], float], a: float, b: float, tol: Tolerances | None = None
) -> float:
    """Integral of f over [a, b] by the globally adaptive Gauss-Kronrod 7-15
    rule of QUADPACK (Piessens et al. 1983).

    The panel with the largest estimate |K15 - G7| is halved until the
    estimates sum to at most quad_rel * |total|. f is never evaluated at a
    panel's ends, so walls and integrable endpoint singularities need no
    code of their own. Three exits raise QuadratureDivergence: a panel still
    the worst after _QUAD_MAX_DEPTH halvings, the most a panel may take; a
    halving past _QUAD_MAX_PANELS panels in all (an estimate that never
    shrinks, such as noise, would halve panel after panel without end);
    and panels too narrow to halve (their halves' outer nodes would round
    onto the ends) whose estimates sum to at least sqrt(quad_rel) * |total|.
    Intervals under about 120 ulps take the midpoint rule.
    """
    tol = tol or Tolerances()
    if not a < b:
        if a == b:
            return 0.0
        raise ValueError(f"integrate requires a <= b, got [{a}, {b}]")
    if _too_narrow(a, b):
        return (b - a) * f(0.5 * (a + b))
    value, err = _kronrod(f, a, b)
    total, active_err, narrow = value, err, []
    heap = [(-err, a, b, value, 0)]  # worst panel first
    while heap and active_err > tol.quad_rel * abs(total):
        neg_err, lo, hi, value, depth = heapq.heappop(heap)
        active_err += neg_err
        mid = 0.5 * (lo + hi)
        if _too_narrow(lo, mid) or _too_narrow(mid, hi):
            narrow.append((value, -neg_err))
            continue
        if depth == _QUAD_MAX_DEPTH:
            raise QuadratureDivergence(f"quadrature failed to converge on [{lo}, {hi}]")
        if len(heap) + len(narrow) + 2 > _QUAD_MAX_PANELS:
            raise QuadratureDivergence(f"quadrature needs more than {_QUAD_MAX_PANELS} panels on [{a}, {b}]")
        total -= value
        for left, right in ((lo, mid), (mid, hi)):
            value, err = _kronrod(f, left, right)
            heapq.heappush(heap, (-err, left, right, value, depth + 1))
            total, active_err = total + value, active_err + err
    total = math.fsum([panel[3] for panel in heap] + [value for value, _ in narrow])
    if narrow and math.fsum(err for _, err in narrow) >= math.sqrt(tol.quad_rel) * abs(total):
        raise QuadratureDivergence("singularity does not appear integrable")
    return total


# G7-K15 on [-1, 1]: 1 - x for the Kronrod nodes x > 0, descending, and the
# weights, the centre x = 0 last (every other Kronrod node is a Gauss node)
_OFFSETS = (0.00854462887918736, 0.05089208765724147, 0.13513557664023093, 0.25846881440060554,
            0.41391276453230885, 0.5941548486226028, 0.7922150449921015)
_WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
        0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0,
       0.4179591836734694)


def _too_narrow(a: float, b: float) -> bool:
    """True when the outermost node of [a, b] rounds onto an end."""
    offset = 0.5 * (b - a) * _OFFSETS[0]
    return not (a < a + offset and b - offset < b)


def _kronrod(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """K15 and |K15 - G7| on [a, b]. Nodes are placed from the nearer end,
    a + h (1 - x) or b - h (1 - x): c +- h x can round onto an end."""
    h = 0.5 * (b - a)
    centre = f(a + h)
    kronrod, gauss, absolute = _WGK[7] * centre, _WG[7] * centre, _WGK[7] * abs(centre)
    for j, offset in enumerate(_OFFSETS):
        left, right = f(a + h * offset), f(b - h * offset)
        kronrod += _WGK[j] * (left + right)
        gauss += _WG[j] * (left + right)
        absolute += _WGK[j] * (abs(left) + abs(right))
    err = abs(h * (kronrod - gauss))
    if not math.isfinite(err):
        raise QuadratureDivergence(f"integrand is not finite on [{a}, {b}]")
    # a difference within rounding of the |f| integral is noise that halving cannot
    # shrink: it counts as 0, or an integral that cancels to ~0 would halve forever
    return h * kronrod, (0.0 if err <= 50.0 * math.ulp(1.0) * h * absolute else err)


def solve_self_consistent(
    g: Callable[[float], float], e_lo: float, e_hi: float, tol: Tolerances | None = None,
    skip: Callable[[float], bool] | None = None,
) -> float:
    """Root E* of the residual g above e_lo with |g(E*)| <= energy_rel * (1 + E*).

    g must be negative, or not evaluable, below the root: every solver
    residual is. Levels sit near the low end of the window [e_lo, e_hi], so
    the bracket is the first sign change of a tenfold `bracket_roots` from
    e_lo whose first step is (e_hi - e_lo) * 1e-12, passed `skip`; e_hi only
    sets the scale (that step and `_refine`'s absolute tolerance), and the
    search may pass it. `_refine` then refines the root inside it. The root
    is the lowest sign change only at the resolution of that search: one
    tenfold step may pass over two of them.
    """
    tol = tol or Tolerances()
    return _refine(g, bracket_roots(g, e_lo, math.nan, (e_hi - e_lo) * 1e-12, 10.0, skip), tol, e_hi - e_lo)


def bracket_roots(
    g: Callable[[float], float], lo: float, f_lo: float, step: float, growth: float,
    skip: Callable[[float], bool] | None = None,
) -> Bracket:
    """The one upward bracket search of every level: the first sign change
    of g above lo, where g(lo) = f_lo < 0 or is NaN (not known). g at
    lo + step, then while g < 0 at the next step, growth times longer, from
    there. A point where g raises or is not finite is stepped over while no
    finite g is known (the bottom of a well too narrow to resolve). Above a
    finite g < 0 it stops the climb (the climb overshot the rim), as does a
    first finite g >= 0 (the level may sit just above the bottom): from
    then on each step is half the last, so the points close in on the stop.
    ConvergenceFailure after 60 points; its message names the window from
    lo to the highest point and counts, by cause, the points where g was
    evaluated and was not finite or raised.

    `skip`, where given, is a cheap test that holds only where g < 0 or g
    is not evaluable. The climb steps over the points where it holds, from
    the first on, without calling g, evaluates g at the last of them and
    climbs on from there with the points left; only if g there is not
    finite and < 0 does it start again from lo without `skip`. The bracket
    is the plain climb's, unless g is not evaluable at a point stepped over
    that lies above a finite g (or with f_lo finite), where the plain climb
    would have stopped; on a single well, where d(E) only grows, only a
    raise inside a turning-point refinement does that.
    """
    start, x, s, tried = lo, lo, step, 0
    while skip is not None and tried < _CLIMB_STEPS and skip(x + s):
        x, s, tried = x + s, s * growth, tried + 1
    if tried:
        try:
            f = g(x)
        except _EVAL_ERRORS:
            f = math.nan
        if -math.inf < f < 0.0:  # False for NaN
            lo, f_lo, step = x, f, s
        else:
            tried = 0
    top, stopped, causes = lo, False, {}
    for _ in range(tried, _CLIMB_STEPS):
        x = lo + step
        top = max(top, x)
        try:
            f = g(x)
            if not math.isfinite(f):
                raise ArithmeticError(f"residual {f}")
        except _EVAL_ERRORS as exc:
            causes.setdefault(type(exc).__name__, [0, str(exc)])[0] += 1
            if math.isfinite(f_lo):
                stopped = True
            else:
                lo = x
        else:
            if f < 0.0:
                lo, f_lo = x, f
            elif f_lo < 0.0:  # False for NaN
                return Bracket(lo, x, f_lo, f)
            else:
                stopped = True
        step *= 0.5 if stopped else growth
    details = ", ".join(f"{count} for {name} ({first})" for name, (count, first) in causes.items())
    skipped = f"; the climb skipped {sum(c for c, _ in causes.values())} of its {_CLIMB_STEPS} energies: {details}"
    raise ConvergenceFailure(f"no sign change of the residual on [{start}, {top}]" + (skipped if causes else ""))


def _refine(g: Callable[[float], float], bracket: Bracket, tol: Tolerances, window: float) -> float:
    """The root of g in the bracket by `bisect`, if |g| <= energy_rel * (1 + |E|)
    there, refined well past the interval tolerance so steep residuals still
    land: to energy_rel * 1e-5 of |E| or 1e-17 of the searched window's width
    (1e-14 of a level solve's energy scale), so levels far below it resolve."""
    root = bisect(g, bracket, replace(tol, root_abs=1e-17 * window, root_rel=max(tol.energy_rel * 1e-5, 1e-15)))
    residual = abs(g(root))
    if residual > tol.energy_rel * (1.0 + abs(root)):
        raise ConvergenceFailure(f"residual {residual} above tolerance at E={root}")
    return root
