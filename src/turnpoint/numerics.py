"""Shared numerical kernel: root bracketing and refinement, adaptive Simpson
quadrature tolerant of integrable endpoint singularities, and the
self-consistent scalar-equation solver behind every implicit energy formula.

Every root is refined inside a sign-change bracket by Brent's method
(`bisect`), never by an open Newton or secant iteration: the integrands and
residuals here have kinks (|x|) and poles (cot^2). Brent's interpolation
steps converge superlinearly on smooth stretches, and its bisection steps
keep the bracket and bound the work where interpolation fails.

Brackets come from one sign-change rule, `sign_changes`, applied to a scan
given as arrays of abscissae and values with NaN at the points that could
not be evaluated. `bracket_roots` scans a callable with it, on a uniform or
a geometric grid, and the solver applies it to E - U read from its
per-solve table of U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_EXPAND_FACTOR = 10.0
_MAX_EXPANSIONS = 12
_LADDER_STEPS = 13


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
    quad_max_depth: int = 60
    energy_rel: float = 1e-10

    def __post_init__(self):
        for name in ("root_abs", "root_rel", "quad_rel", "energy_rel"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidInput(f"{name} must be positive and finite, got {value}")
        if self.quad_max_depth < 10:
            raise InvalidInput("quad_max_depth must be >= 10")


def bracket_roots(
    f: Callable[[float], float], lo: float, hi: float, n_grid: int = 256, geometric: bool = False
) -> list[Bracket]:
    """Sign-change intervals of f, lowest first, on a scan of [lo, hi] in
    n_grid steps: uniform, or with geometric=True at lo and at
    lo + (hi - lo) * 10^-j for j = n_grid - 1, ..., 1, 0.

    The geometric scan takes f at hi only when the points below show no
    sign change: it is meant for residuals with a root near lo, which cost
    the most at the top of their window (an energy above a whole expression
    well runs every turning-point grid before it is refused).

    Points where f raises are skipped and split the scan. An empty list
    means no sign change was seen; that is not an error here.
    """
    if not lo < hi:
        raise ValueError(f"bracket_roots requires lo < hi, got [{lo}, {hi}]")
    if n_grid < 2:
        raise ValueError("n_grid must be >= 2")
    xs = _scan_points(lo, hi, n_grid, geometric)
    if not geometric:
        return sign_changes(xs, tabulate(f, xs))
    below = tabulate(f, xs[:-1])
    return sign_changes(xs[:-1], below) or sign_changes(xs[-2:], np.append(below[-1:], tabulate(f, xs[-1:])))


def _scan_points(lo: float, hi: float, n_grid: int, geometric: bool = False) -> list[float]:
    if geometric:
        return [lo] + [lo + (hi - lo) * 10.0 ** -j for j in range(n_grid - 1, -1, -1)]
    return [lo + (hi - lo) * i / n_grid for i in range(n_grid + 1)]


def tabulate(f: Callable[[float], float], xs: Sequence[float]) -> np.ndarray:
    """f at each x, NaN where f raises an evaluation error."""
    values = []
    for x in xs:
        try:
            values.append(f(x))
        except _EVAL_ERRORS:
            values.append(math.nan)
    return np.array(values, dtype=float)


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
    """Adaptive Simpson integral of f over [a, b].

    If f raises at an endpoint, the affected sub-interval is shrunk
    geometrically toward that endpoint (factor 0.5 per step) and slices
    are summed until the last slice contributes below quad_rel * |total|:
    integrable endpoint singularities converge, non-integrable ones raise
    QuadratureDivergence.
    """
    tol = tol or Tolerances()
    if not a < b:
        if a == b:
            return 0.0
        raise ValueError(f"integrate requires a <= b, got [{a}, {b}]")
    a_bad = not _evaluable(f, a)
    b_bad = not _evaluable(f, b)
    if not a_bad and not b_bad:
        return _adaptive_simpson(f, a, b, tol)
    # shrink away from singular endpoints, then sum geometric slices inward
    width = b - a
    inset = 0.25
    lo = a + width * inset if a_bad else a
    hi = b - width * inset if b_bad else b
    while not (_evaluable(f, lo) and _evaluable(f, hi)) :
        inset *= 0.5
        if inset < 1e-40:
            raise QuadratureDivergence("no evaluable core interval found")
        lo = a + width * inset if a_bad else a
        hi = b - width * inset if b_bad else b
    total = _adaptive_simpson(f, lo, hi, tol)
    if a_bad:
        total += _singular_tail(f, a, lo, tol, toward_lo=True, core=total)
    if b_bad:
        total += _singular_tail(f, hi, b, tol, toward_lo=False, core=total)
    return total


def _evaluable(f: Callable[[float], float], x: float) -> bool:
    try:
        return math.isfinite(f(x))
    except _EVAL_ERRORS:
        return False


def _singular_tail(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerances,
    toward_lo: bool,
    core: float,
) -> float:
    """Sum slices shrinking geometrically toward the singular endpoint."""
    total = 0.0
    width = b - a
    outer = b if toward_lo else a  # evaluable edge
    frac = 1.0
    max_slices = 400
    prev_slice = math.inf
    for _ in range(max_slices):
        frac *= 0.5
        inner = a + width * frac if toward_lo else b - width * frac
        singular_end = a if toward_lo else b
        if inner == outer or inner == singular_end:
            # slice width fell below one ulp of the endpoint; accept the sum
            # if the contributions were shrinking (integrable tail)
            if abs(prev_slice) < math.sqrt(tol.quad_rel) * max(abs(core) + abs(total), 1e-300):
                return total
            raise QuadratureDivergence("endpoint singularity does not appear integrable")
        lo, hi = (inner, outer) if toward_lo else (outer, inner)
        slice_value = _adaptive_simpson(f, lo, hi, tol)
        total += slice_value
        outer = inner
        prev_slice = slice_value
        scale = abs(core) + abs(total)
        if abs(slice_value) <= tol.quad_rel * max(scale, 1e-300):
            return total
    raise QuadratureDivergence("endpoint singularity does not appear integrable")


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: Tolerances) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # tolerance scale from a 16-panel composite: the crude 3-point estimate
    # can be spuriously tiny when the samples straddle the integrand's nodes
    n = 16
    h = (b - a) / n
    samples = [fa] + [f(a + h * i) for i in range(1, n)] + [fb]
    composite = h / 3.0 * sum(
        w * v for w, v in zip([1] + [4, 2] * (n // 2 - 1) + [4, 1], samples)
    )
    scale = max(abs(whole), abs(composite), 1e-300)
    # force the first levels of subdivision: oscillatory integrands whose
    # nodes sit on the dyadic sample points would otherwise be accepted as 0
    return _simpson_rec(
        f, a, b, fa, fm, fb, whole, tol.quad_rel * scale, tol.quad_max_depth, tol, force=6
    )


def _simpson_rec(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    eps: float,
    depth: int,
    tol: Tolerances,
    force: int = 0,
) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if (force <= 0 and abs(delta) <= 15.0 * eps) or m <= a or b <= m:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureDivergence(f"quadrature failed to converge on [{a}, {b}]")
    return (
        _simpson_rec(f, a, m, fa, flm, fm, left, eps / 2.0, depth - 1, tol, force - 1)
        + _simpson_rec(f, m, b, fm, frm, fb, right, eps / 2.0, depth - 1, tol, force - 1)
    )


def _skip_causes(g: Callable[[float], float], xs: Sequence[float]) -> str:
    """Why g could not be evaluated at some of xs, for a failure message:
    each error type in order of first appearance, with its count and the
    message of its first occurrence. Runs only after a search has failed."""
    causes: dict[str, list] = {}
    for x in xs:
        try:
            g(x)
        except _EVAL_ERRORS as exc:
            causes.setdefault(type(exc).__name__, [0, str(exc)])[0] += 1
    if not causes:
        return ""
    skipped = sum(count for count, _ in causes.values())
    details = ", ".join(f"{count} for {name} ({first})" for name, (count, first) in causes.items())
    return f"; the first scan skipped {skipped} of its {len(xs)} energies: {details}"


def _scanned_bracket(g: Callable[[float], float], e_lo: float, e_hi: float, n_grid: int) -> Bracket:
    """The lowest sign change of g on a uniform n_grid scan of [e_lo, hi],
    with hi = e_hi first and then expanded geometrically upward
    (hi <- 10 * hi) at most 12 times before ConvergenceFailure. Its message
    names the errors that made points of the first scan unusable (found by
    scanning it again, so a success pays nothing)."""
    hi = e_hi
    for _ in range(_MAX_EXPANSIONS + 1):
        brackets = bracket_roots(g, e_lo, hi, n_grid)
        if brackets:
            return brackets[0]
        hi *= _EXPAND_FACTOR
    raise ConvergenceFailure(
        f"no sign change of the residual on [{e_lo}, {hi}]"
        + _skip_causes(g, _scan_points(e_lo, e_hi, n_grid))
    )


def solve_self_consistent(
    g: Callable[[float], float],
    e_lo: float,
    e_hi: float,
    tol: Tolerances | None = None,
    n_grid: int = 64,
) -> float:
    """Root E* of the residual g on [e_lo, e_hi] with |g(E*)| <= energy_rel * (1 + E*).

    Levels sit near the low end of the window, so the bracket comes from a
    14-point geometric scan up from e_lo (`bracket_roots` with
    geometric=True), its lowest sign change; only when it sees none does
    the uniform scan of `_scanned_bracket` run, with its upward expansion
    and its failure message. `bisect` then refines the root inside the
    bracket. The root is the lowest sign change only at the resolution of
    the scan that found it: a bracket of the geometric scan may span up to
    nine tenths of the window.
    """
    tol = tol or Tolerances()
    brackets = bracket_roots(g, e_lo, e_hi, _LADDER_STEPS, geometric=True)
    bracket = brackets[0] if brackets else _scanned_bracket(g, e_lo, e_hi, n_grid)
    # refine well past the interval tolerance so steep residuals still land
    tight = Tolerances(
        root_abs=1e-14,
        root_rel=max(tol.energy_rel * 1e-4, 1e-15),
        quad_rel=tol.quad_rel,
        quad_max_depth=tol.quad_max_depth,
        energy_rel=tol.energy_rel,
    )
    root = bisect(g, bracket, tight)
    residual = abs(g(root))
    if residual > tol.energy_rel * (1.0 + abs(root)):
        raise ConvergenceFailure(
            f"residual {residual} above tolerance at E={root}"
        )
    return root
