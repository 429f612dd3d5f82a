"""Potential data model: unit system, built-in families, closed-form
turning points and action integrals, and pointwise evaluation.

Each built-in family is a dataclass that writes U once, as the numpy formula
`evaluate_grid` (the pointwise `evaluate` is it at one point), and knows its
domain, minimum, length and energy scales, and, where they exist, its closed-form
turning points and Q(x) antiderivative, a known ground-energy estimate and the
inverse-square pole the Numerov box must avoid; everything else falls back to the
numeric kernel. Infinite walls are represented by DomainError outside the finite
domain, never by a sentinel infinity, so quadrature and bracketing never sample it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from . import expressions
from .errors import DomainError, InvalidEnergy, InvalidInput, SpecParseError


@dataclass(frozen=True)
class UnitSystem:
    """hbar and particle mass; natural units hbar = m = 1 by default."""

    hbar: float = 1.0
    mass: float = 1.0
    m1: float = field(init=False, repr=False, compare=False)  # sqrt(2 m) / hbar, wavenumber per sqrt(energy)

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise InvalidInput(f"hbar must be positive, got {self.hbar}")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise InvalidInput(f"mass must be positive, got {self.mass}")
        object.__setattr__(self, "m1", math.sqrt(2.0 * self.mass) / self.hbar)


@dataclass(frozen=True)
class Domain:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidInput(f"domain requires lo < hi, got [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi


@dataclass(frozen=True)
class TurningPoints:
    """Roots x1 < x2 of E = U(x) with midpoint x0 and width d = x2 - x1."""

    x1: float
    x2: float

    def __post_init__(self):
        if not self.x1 < self.x2:
            raise InvalidEnergy(f"turning points must satisfy x1 < x2, got {self.x1}, {self.x2}")

    @property
    def x0(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @property
    def d(self) -> float:
        return self.x2 - self.x1


@dataclass(frozen=True)
class PotentialSpec:
    """Base of the well families: a family is a frozen dataclass whose fields
    are its parameters, and it overrides `evaluate_grid` and the defaults
    below that do not fit it; `evaluate` follows from those."""

    kind = "abstract"
    closed_form = False  # closed-form turning points and Q
    pole_coeff = None  # c of a c / x^2 pole at x = 0, where the Numerov box is clipped

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidInput(f"{self.kind}: parameter {f.name} must be positive, got {value}")

    def evaluate_grid(self, xs: np.ndarray, units: UnitSystem) -> np.ndarray:
        """U at the points xs, the family's one formula; relied on only inside the domain, off any pole."""
        raise NotImplementedError

    def evaluate(self, x: float, units: UnitSystem) -> float:
        """Pointwise U(x), `evaluate_grid` at the one point x. Raises DomainError
        outside the open domain, at a pole at x = 0 and where U is not finite."""
        dom = self.domain()
        if not dom.contains(x):
            raise DomainError(f"x={x} outside the {self.kind} domain ({dom.lo}, {dom.hi})")
        if x == 0.0 and self.pole_coeff is not None:
            raise DomainError("pole at x=0")
        with np.errstate(all="ignore"):
            u = float(self.evaluate_grid(np.array([x], dtype=float), units)[0])
        if not math.isfinite(u):
            raise DomainError(f"U({x}) = {u} is not finite")
        return u

    def domain(self) -> Domain:
        """The domain on which the potential may be evaluated."""
        return Domain(-math.inf, math.inf)

    def u_min(self) -> float:
        """Infimum of U over the domain."""
        return 0.0

    def min_point(self) -> tuple[float, float] | None:
        """(x, U(x)) at a point where U takes `u_min`, where one is known."""
        return None

    def tabulated(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(xs, `evaluate_grid` at xs) on the points xs = lo + (hi - lo) * i / n,
        i = 0..n, of the span, where the family keeps such a table, else None."""
        return None

    def scale(self, units: UnitSystem) -> float:
        """A length scale for bracket initialization; order of magnitude only."""
        return 1.0

    def energy_scale(self, units: UnitSystem) -> float:
        """hbar^2 / (m w^2) for the length scale w, floored at 1e-12: the unit
        of the energy brackets of the level solves and the Numerov oracle."""
        if not math.isfinite(units.hbar * units.hbar):
            raise InvalidInput(f"hbar={units.hbar}: hbar^2 overflows")
        try:
            w = self.scale(units)
        except ArithmeticError as exc:
            raise InvalidInput(f"{self.kind}: no length scale for these units ({exc})") from None
        denom = units.mass * w * w
        if not (denom and math.isfinite(units.hbar * units.hbar / denom)):
            raise InvalidInput(f"{self.kind}: length scale {w} gives no finite energy scale hbar^2/(m w^2)")
        return max(units.hbar * units.hbar / denom, 1e-12)

    def ground_estimate(self, units: UnitSystem) -> float | None:
        """A known variational upper bound on the ground energy, or None."""
        return None

    def turning_points(self, E: float, units: UnitSystem) -> tuple[TurningPoints, ...] | None:
        """Closed-form turning points for E above the minimum, or None."""
        return None

    def q(self, x: float, units: UnitSystem) -> float | None:
        """Closed-form Q(x) = m1 * integral of sqrt(U) with zero constant, or None."""
        return None

    def span(self) -> tuple[float, float]:
        """The domain, an infinite end cut at -100 or 100, for grids over all of it."""
        dom = self.domain()
        return (dom.lo if math.isfinite(dom.lo) else -100.0, dom.hi if math.isfinite(dom.hi) else 100.0)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class InfiniteSquareWell(PotentialSpec):
    L: float
    kind = "isw"
    closed_form = True

    def evaluate_grid(self, xs, units):
        return np.zeros(len(xs))

    def domain(self):
        return Domain(0.0, self.L)

    def scale(self, units):
        return self.L

    def turning_points(self, E, units):
        return (TurningPoints(0.0, self.L),)

    def q(self, x, units):
        # closed interval: the turning points sit exactly on the walls
        if not 0.0 <= x <= self.L:
            raise DomainError(f"x={x} outside the square well [0, {self.L}]")
        return 0.0


@dataclass(frozen=True)
class HarmonicOscillator(PotentialSpec):
    omega: float
    kind = "sho"
    closed_form = True

    def evaluate_grid(self, xs, units):
        return 0.5 * units.mass * self.omega ** 2 * xs * xs

    def scale(self, units):
        return math.sqrt(units.hbar / (units.mass * self.omega))

    def turning_points(self, E, units):
        x2 = math.sqrt(2.0 * E / (units.mass * self.omega ** 2))
        return (TurningPoints(-x2, x2),)

    def q(self, x, units):
        a = units.mass * self.omega / (2.0 * units.hbar)
        return a * x * x


@dataclass(frozen=True)
class TrigWell(PotentialSpec):
    """U(x) = U0 * cot^2(pi x / a) on (0, a)."""

    u0: float
    a: float
    kind = "trig"
    closed_form = True

    def evaluate_grid(self, xs, units):
        return self.u0 * (np.cos(np.pi * xs / self.a) / np.sin(np.pi * xs / self.a)) ** 2

    def domain(self):
        return Domain(0.0, self.a)

    def scale(self, units):
        return self.a

    def turning_points(self, E, units):
        # arccot on (0, pi/2) for the positive root
        t = math.atan(1.0 / math.sqrt(E / self.u0))
        x_lo = self.a / math.pi * t
        return (TurningPoints(x_lo, self.a - x_lo),)

    def q(self, x, units):
        if not 0.0 < x < self.a:
            raise DomainError(f"x={x} outside the trig well (0, {self.a})")
        return units.m1 * math.sqrt(self.u0) * self.a / math.pi * math.log(math.sin(math.pi * x / self.a))


@dataclass(frozen=True)
class VWell(PotentialSpec):
    """U(x) = U0 |x|."""

    u0: float
    kind = "vwell"
    closed_form = True

    def evaluate_grid(self, xs, units):
        return self.u0 * np.abs(xs)

    def scale(self, units):
        return (units.hbar * units.hbar / (units.mass * self.u0)) ** (1.0 / 3.0)

    def ground_estimate(self, units):
        # 1.5 * (1/(2 pi))^(1/3) ~= 0.813 in units of (hbar^2 U0^2 / m)^(1/3)
        try:
            unit = (units.hbar * units.hbar * self.u0 ** 2 / units.mass) ** (1.0 / 3.0)
        except OverflowError:  # U0^2 alone: the same unit is hbar^2 / (m w^2) for the length scale w
            w = self.scale(units)
            unit = units.hbar * units.hbar / (units.mass * w * w)
        return 1.5 * (0.5 / math.pi) ** (1.0 / 3.0) * unit

    def turning_points(self, E, units):
        x2 = E / self.u0
        return (TurningPoints(-x2, x2),)

    def q(self, x, units):
        # even extension of the x > 0 antiderivative keeps the cosine states symmetric
        return units.m1 * math.sqrt(self.u0) * (2.0 / 3.0) * abs(x) ** 1.5


@dataclass(frozen=True)
class ParabolicWell(PotentialSpec):
    """U(x) = U0 (a/x - x/a)^2 on x > 0."""

    u0: float
    a: float
    kind = "parab"
    closed_form = True

    @property
    def pole_coeff(self):
        return self.u0 * self.a ** 2

    def evaluate_grid(self, xs, units):
        return self.u0 * (self.a / xs - xs / self.a) ** 2

    def domain(self):
        return Domain(0.0, math.inf)

    def scale(self, units):
        return self.a

    def turning_points(self, E, units):
        r = math.sqrt(E / self.u0)
        s = math.sqrt(E / self.u0 + 4.0)
        return (TurningPoints(0.5 * self.a * (s - r), 0.5 * self.a * (s + r)),)

    def q(self, x, units):
        if x <= 0.0:
            raise DomainError(f"x={x} outside the parabolic well (x > 0)")
        return units.m1 * math.sqrt(self.u0) * (self.a * math.log(x) - x * x / (2.0 * self.a))


@dataclass(frozen=True)
class QuadraticInverse(PotentialSpec):
    """U(x) = a x^2 + b / x^2, mirrored wells on either side of the pole."""

    a: float
    b: float
    kind = "axb"
    closed_form = True

    @property
    def pole_coeff(self):
        return self.b

    def evaluate_grid(self, xs, units):
        return self.a * xs * xs + self.b / (xs * xs)

    def u_min(self):
        return 2.0 * math.sqrt(self.a * self.b)

    def scale(self, units):
        return (self.b / self.a) ** 0.25

    def turning_points(self, E, units):
        delta = E * E - 4.0 * self.a * self.b
        if delta <= 0.0:
            raise InvalidEnergy(f"E={E}: discriminant E^2 - 4ab = {delta} <= 0")
        # x^2 = (E -+ sqrt(delta)) / (2a); the smaller root as 2b / (E + sqrt(delta)),
        # as the difference cancels when E^2 >> 4ab
        inner = math.sqrt(2.0 * self.b / (E + math.sqrt(delta)))
        outer = math.sqrt((E + math.sqrt(delta)) / (2.0 * self.a))
        return (TurningPoints(-outer, -inner), TurningPoints(inner, outer))

    def q(self, x, units):
        if x == 0.0:
            raise DomainError("pole at x=0")
        a, b = self.a, self.b
        root = math.sqrt(a * x ** 4 + b)
        return 0.5 * units.m1 * (root - math.sqrt(b) * math.log((math.sqrt(b) + root) / (math.sqrt(a) * x * x)))


@dataclass(frozen=True)
class Step(PotentialSpec):
    """U = 0 for x < 0, U = U0 for x >= 0."""

    u0: float
    kind = "step"

    def evaluate_grid(self, xs, units):
        return np.where(xs < 0.0, 0.0, self.u0)

    def energy_scale(self, units):
        raise InvalidInput("the step potential has no bound levels; use the scatter subcommand")


@dataclass(frozen=True)
class Expression(PotentialSpec):
    """U(x) given by an expression AST on a finite domain."""

    ast: expressions.ExprAst
    dom: Domain
    source: str = ""
    compiled: Callable[[float], float] = field(init=False, repr=False, compare=False)
    compiled_grid: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    kind = "expr"

    def __post_init__(self):
        if not (math.isfinite(self.dom.lo) and math.isfinite(self.dom.hi)):
            raise InvalidInput(f"expression domain must be finite, got [{self.dom.lo}, {self.dom.hi}]")
        object.__setattr__(self, "compiled", expressions.compile(self.ast))
        object.__setattr__(self, "compiled_grid", expressions.compile_grid(self.ast))

    def __reduce__(self):
        # closures do not pickle; the copy compiles its own
        return (Expression, (self.ast, self.dom, self.source))

    def evaluate(self, x, units):
        if not self.dom.contains(x):
            raise DomainError(f"x={x} outside the expression domain [{self.dom.lo}, {self.dom.hi}]")
        return self.compiled(x)

    def evaluate_grid(self, xs, units):
        return self._inside(xs, self.compiled_grid(xs))

    def _inside(self, xs, u):
        return np.where((self.dom.lo < xs) & (xs < self.dom.hi), u, math.nan)

    @cached_property
    def _grid(self):
        """The one tabulation of U: xs = lo + (hi - lo) * i / 512, i = 0..512,
        `compiled_grid` there, and that masked to the open domain."""
        lo, hi = self.dom.lo, self.dom.hi
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN abscissae are not evaluable
            xs = lo + (hi - lo) * np.arange(513) / 512
        u = self.compiled_grid(xs)
        return xs, u, self._inside(xs, u)

    def tabulated(self):
        xs, _, inside = self._grid
        return xs, inside

    def domain(self):
        return self.dom

    def u_min(self):
        return self.min_point()[1]

    def min_point(self):
        """The first point of smallest U on the 511 points lo + (hi - lo) * i / 512,
        i = 1..511, of the tabulation, as a running min keeps; `u_min` is its U."""
        xs, u, _ = self._grid
        xs, u = xs[1:512], u[1:512]
        if np.isnan(u).all():
            raise DomainError("expression potential not evaluable anywhere on its domain")
        i = np.nanargmin(u)
        return float(xs[i]), float(u[i])

    def scale(self, units):
        return (self.dom.hi - self.dom.lo) / 10.0

    def to_dict(self):
        return {"kind": "expr", "source": self.source, "domain": {"lo": self.dom.lo, "hi": self.dom.hi}}


# the families `parse_potential_spec` knows by name, besides `expr`
FAMILIES = (InfiniteSquareWell, HarmonicOscillator, TrigWell, VWell, ParabolicWell, QuadraticInverse, Step)
_FAMILIES = {cls.kind: cls for cls in FAMILIES}


def evaluate(spec: PotentialSpec, x: float, units: UnitSystem | None = None) -> float:
    """Pointwise U(x). Raises DomainError outside the domain or at a pole."""
    return spec.evaluate(x, units or UnitSystem())


def u_min(spec: PotentialSpec) -> float:
    """Infimum of U over the domain (closed form for built-ins)."""
    return spec.u_min()


def analytic_turning_points(
    spec: PotentialSpec, E: float, units: UnitSystem | None = None
) -> tuple[TurningPoints, ...] | None:
    """Closed-form turning points, or None when no closed form exists: one
    pair for single wells, the mirrored (negative-side, positive-side) pairs
    for QuadraticInverse."""
    # closed forms only: an expression's minimum is a 511-point scan
    if spec.closed_form and E <= u_min(spec):
        raise InvalidEnergy(f"E={E} at or below the well minimum")
    return spec.turning_points(E, units or UnitSystem())


def parse_potential_spec(text: str) -> PotentialSpec:
    """Parse `family:key=value[,key=value...]` or `expr:<expression>;domain=<lo>..<hi>`."""
    text = text.strip()
    if ":" not in text:
        raise SpecParseError(f"missing ':' in potential spec {text!r}")
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    if family == "expr":
        expr_src, _, dom_part = rest.partition(";")
        dom_part = dom_part.strip()
        if not dom_part.lower().startswith("domain="):
            raise SpecParseError("expr spec requires ';domain=<lo>..<hi>'")
        span = dom_part[len("domain="):]
        if ".." not in span:
            raise SpecParseError(f"malformed domain {span!r}, expected <lo>..<hi>")
        lo_text, _, hi_text = span.partition("..")
        try:
            lo, hi = float(lo_text), float(hi_text)
        except ValueError:
            raise SpecParseError(f"non-numeric domain bounds in {span!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SpecParseError(f"domain bounds must be finite, got {span!r}")
        if not lo < hi:
            raise SpecParseError(f"empty domain [{lo}, {hi}]")
        ast = expressions.parse(expr_src)
        return Expression(ast=ast, dom=Domain(lo, hi), source=expr_src.strip())
    if family not in _FAMILIES:
        raise SpecParseError(f"unknown potential family {family!r}")
    cls = _FAMILIES[family]
    keys = [f.name.lower() for f in fields(cls)]
    params: dict[str, float] = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise SpecParseError(f"malformed parameter {item!r}, expected key=value")
        key, _, value = item.partition("=")
        key = key.strip().lower()
        if key not in keys:
            raise SpecParseError(f"unknown parameter {key!r} for family {family!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise SpecParseError(f"non-numeric value {value!r} for {key!r}") from None
    missing = [k for k in keys if k not in params]
    if missing:
        raise SpecParseError(f"family {family!r} missing parameters: {', '.join(missing)}")
    try:
        return cls(*(params[k] for k in keys))
    except InvalidInput as exc:
        raise SpecParseError(str(exc)) from None
