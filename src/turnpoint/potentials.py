"""Potential data model: unit system, built-in families, closed-form
turning points and action integrals, and pointwise evaluation.

Built-in families carry the closed-form turning points and Q(x)
antiderivatives where they exist; everything else falls back to the
numeric kernel. Infinite walls are represented by DomainError outside
the finite domain, never by a sentinel infinity, so quadrature and
bracketing never sample infinite values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

from . import expressions
from .errors import DomainError, InvalidEnergy, InvalidInput, SpecParseError


@dataclass(frozen=True)
class UnitSystem:
    """hbar and particle mass; natural units hbar = m = 1 by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise InvalidInput(f"hbar must be positive, got {self.hbar}")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise InvalidInput(f"mass must be positive, got {self.mass}")

    @property
    def m1(self) -> float:
        """sqrt(2 m) / hbar, the wavenumber scale per unit sqrt(energy)."""
        return math.sqrt(2.0 * self.mass) / self.hbar


@dataclass(frozen=True)
class Domain:
    lo: float
    hi: float
    kind: str = "finite"  # finite | half_line_positive | full_line

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidInput(f"domain requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.kind == "half_line_positive" and self.lo != 0.0:
            raise InvalidInput("half_line_positive domain must start at 0")

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
    """Base for the tagged union of potential descriptions."""

    kind = "abstract"

    def _check_positive(self, **params: float) -> None:
        for name, value in params.items():
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidInput(f"{self.kind}: parameter {name} must be positive, got {value}")


@dataclass(frozen=True)
class InfiniteSquareWell(PotentialSpec):
    L: float
    kind = "isw"

    def __post_init__(self):
        self._check_positive(L=self.L)


@dataclass(frozen=True)
class HarmonicOscillator(PotentialSpec):
    omega: float
    kind = "sho"

    def __post_init__(self):
        self._check_positive(omega=self.omega)


@dataclass(frozen=True)
class TrigWell(PotentialSpec):
    """U(x) = U0 * cot^2(pi x / a) on (0, a)."""

    u0: float
    a: float
    kind = "trig"

    def __post_init__(self):
        self._check_positive(u0=self.u0, a=self.a)


@dataclass(frozen=True)
class VWell(PotentialSpec):
    """U(x) = U0 |x|."""

    u0: float
    kind = "vwell"

    def __post_init__(self):
        self._check_positive(u0=self.u0)


@dataclass(frozen=True)
class ParabolicWell(PotentialSpec):
    """U(x) = U0 (a/x - x/a)^2 on x > 0."""

    u0: float
    a: float
    kind = "parab"

    def __post_init__(self):
        self._check_positive(u0=self.u0, a=self.a)


@dataclass(frozen=True)
class QuadraticInverse(PotentialSpec):
    """U(x) = a x^2 + b / x^2, mirrored wells on either side of the pole."""

    a: float
    b: float
    kind = "axb"

    def __post_init__(self):
        self._check_positive(a=self.a, b=self.b)


@dataclass(frozen=True)
class Step(PotentialSpec):
    """U = 0 for x < 0, U = U0 for x >= 0."""

    u0: float
    kind = "step"

    def __post_init__(self):
        self._check_positive(u0=self.u0)


@dataclass(frozen=True)
class Expression(PotentialSpec):
    """U(x) given by an expression AST on a finite domain."""

    ast: expressions.ExprAst
    dom: Domain
    source: str = ""
    compiled: Callable[[float], float] = field(init=False, repr=False, compare=False)
    kind = "expr"

    def __post_init__(self):
        if not (math.isfinite(self.dom.lo) and math.isfinite(self.dom.hi)):
            raise InvalidInput(f"expression domain must be finite, got [{self.dom.lo}, {self.dom.hi}]")
        object.__setattr__(self, "compiled", expressions.compile(self.ast))

    def __reduce__(self):
        # closures do not pickle; the copy compiles its own
        return (Expression, (self.ast, self.dom, self.source))


def domain_of(spec: PotentialSpec) -> Domain:
    """The domain on which the potential may be evaluated."""
    if isinstance(spec, InfiniteSquareWell):
        return Domain(0.0, spec.L, "finite")
    if isinstance(spec, TrigWell):
        return Domain(0.0, spec.a, "finite")
    if isinstance(spec, (ParabolicWell,)):
        return Domain(0.0, math.inf, "half_line_positive")
    if isinstance(spec, Expression):
        return spec.dom
    return Domain(-math.inf, math.inf, "full_line")


def evaluate(spec: PotentialSpec, x: float, units: UnitSystem | None = None) -> float:
    """Pointwise U(x). Raises DomainError outside the domain or at a pole."""
    units = units or UnitSystem()
    if isinstance(spec, InfiniteSquareWell):
        if not 0.0 < x < spec.L:
            raise DomainError(f"x={x} outside the square well (0, {spec.L})")
        return 0.0
    if isinstance(spec, HarmonicOscillator):
        return 0.5 * units.mass * spec.omega ** 2 * x * x
    if isinstance(spec, TrigWell):
        if not 0.0 < x < spec.a:
            raise DomainError(f"x={x} outside the trig well (0, {spec.a})")
        s = math.sin(math.pi * x / spec.a)
        if s == 0.0:
            raise DomainError(f"cot pole at x={x}")
        c = math.cos(math.pi * x / spec.a)
        return spec.u0 * (c / s) ** 2
    if isinstance(spec, VWell):
        return spec.u0 * abs(x)
    if isinstance(spec, ParabolicWell):
        if x <= 0.0:
            raise DomainError(f"x={x} outside the parabolic well (x > 0)")
        return spec.u0 * (spec.a / x - x / spec.a) ** 2
    if isinstance(spec, QuadraticInverse):
        if x == 0.0:
            raise DomainError("pole at x=0")
        return spec.a * x * x + spec.b / (x * x)
    if isinstance(spec, Step):
        return 0.0 if x < 0.0 else spec.u0
    if isinstance(spec, Expression):
        if not spec.dom.contains(x):
            raise DomainError(f"x={x} outside the expression domain [{spec.dom.lo}, {spec.dom.hi}]")
        return spec.compiled(x)
    raise TypeError(f"unknown potential spec {spec!r}")


def u_min(spec: PotentialSpec) -> float:
    """Infimum of U over the domain (closed form for built-ins)."""
    if isinstance(spec, QuadraticInverse):
        return 2.0 * math.sqrt(spec.a * spec.b)
    if isinstance(spec, Expression):
        lo, hi = spec.dom.lo, spec.dom.hi
        best = math.inf
        n = 512
        for i in range(1, n):
            x = lo + (hi - lo) * i / n
            try:
                best = min(best, spec.compiled(x))
            except Exception:
                continue
        if not math.isfinite(best):
            raise DomainError("expression potential not evaluable anywhere on its domain")
        return best
    # isw, sho, trig, vwell, parab and step all bottom out at zero
    return 0.0


def characteristic_width(spec: PotentialSpec, units: UnitSystem) -> float:
    """A length scale for bracket initialization; order of magnitude only."""
    if isinstance(spec, InfiniteSquareWell):
        return spec.L
    if isinstance(spec, HarmonicOscillator):
        return math.sqrt(units.hbar / (units.mass * spec.omega))
    if isinstance(spec, TrigWell):
        return spec.a
    if isinstance(spec, VWell):
        return (units.hbar ** 2 / (units.mass * spec.u0)) ** (1.0 / 3.0)
    if isinstance(spec, ParabolicWell):
        return spec.a
    if isinstance(spec, QuadraticInverse):
        return (spec.b / spec.a) ** 0.25
    if isinstance(spec, Expression):
        return (spec.dom.hi - spec.dom.lo) / 10.0
    return 1.0


def analytic_turning_points(
    spec: PotentialSpec, E: float, units: UnitSystem | None = None
) -> tuple[TurningPoints, ...] | None:
    """Closed-form turning points, or None when no closed form exists.

    Returns one pair for single wells and the mirrored (negative-side,
    positive-side) pairs for QuadraticInverse. Width is always |x2 - x1|.
    """
    units = units or UnitSystem()
    if isinstance(spec, (Step, Expression)):
        return None
    if E <= u_min(spec):
        raise InvalidEnergy(f"E={E} at or below the well minimum")
    if isinstance(spec, InfiniteSquareWell):
        return (TurningPoints(0.0, spec.L),)
    if isinstance(spec, HarmonicOscillator):
        x2 = math.sqrt(2.0 * E / (units.mass * spec.omega ** 2))
        return (TurningPoints(-x2, x2),)
    if isinstance(spec, TrigWell):
        # arccot on (0, pi/2) for the positive root
        t = math.atan(1.0 / math.sqrt(E / spec.u0))
        x_lo = spec.a / math.pi * t
        return (TurningPoints(x_lo, spec.a - x_lo),)
    if isinstance(spec, VWell):
        x2 = E / spec.u0
        return (TurningPoints(-x2, x2),)
    if isinstance(spec, ParabolicWell):
        r = math.sqrt(E / spec.u0)
        s = math.sqrt(E / spec.u0 + 4.0)
        return (TurningPoints(0.5 * spec.a * (s - r), 0.5 * spec.a * (s + r)),)
    if isinstance(spec, QuadraticInverse):
        delta = E * E - 4.0 * spec.a * spec.b
        if delta <= 0.0:
            raise InvalidEnergy(f"E={E}: discriminant E^2 - 4ab = {delta} <= 0")
        inner = math.sqrt((E - math.sqrt(delta)) / (2.0 * spec.a))
        outer = math.sqrt((E + math.sqrt(delta)) / (2.0 * spec.a))
        return (TurningPoints(-outer, -inner), TurningPoints(inner, outer))
    raise TypeError(f"unknown potential spec {spec!r}")


def analytic_q(spec: PotentialSpec, x: float, units: UnitSystem | None = None) -> float | None:
    """Closed-form Q(x) = m1 * integral of sqrt(U) with zero constant.

    Returns None when no closed form exists (Expression, Step). The
    normalization amplitude absorbs the arbitrary constant, so no anchoring
    is applied.
    """
    units = units or UnitSystem()
    m1 = units.m1
    if isinstance(spec, InfiniteSquareWell):
        # closed interval: the turning points sit exactly on the walls
        if not 0.0 <= x <= spec.L:
            raise DomainError(f"x={x} outside the square well [0, {spec.L}]")
        return 0.0
    if isinstance(spec, HarmonicOscillator):
        a = units.mass * spec.omega / (2.0 * units.hbar)
        return a * x * x
    if isinstance(spec, TrigWell):
        if not 0.0 < x < spec.a:
            raise DomainError(f"x={x} outside the trig well (0, {spec.a})")
        return m1 * math.sqrt(spec.u0) * spec.a / math.pi * math.log(math.sin(math.pi * x / spec.a))
    if isinstance(spec, VWell):
        # even extension of the x > 0 antiderivative keeps the cosine states symmetric
        return m1 * math.sqrt(spec.u0) * (2.0 / 3.0) * abs(x) ** 1.5
    if isinstance(spec, ParabolicWell):
        if x <= 0.0:
            raise DomainError(f"x={x} outside the parabolic well (x > 0)")
        return m1 * math.sqrt(spec.u0) * (spec.a * math.log(x) - x * x / (2.0 * spec.a))
    if isinstance(spec, QuadraticInverse):
        if x == 0.0:
            raise DomainError("pole at x=0")
        a, b = spec.a, spec.b
        root = math.sqrt(a * x ** 4 + b)
        return 0.5 * m1 * (root - math.sqrt(b) * math.log((math.sqrt(b) + root) / (math.sqrt(a) * x * x)))
    return None


_FAMILY_KEYS = {
    "isw": ("InfiniteSquareWell", ("l",)),
    "sho": ("HarmonicOscillator", ("omega",)),
    "trig": ("TrigWell", ("u0", "a")),
    "vwell": ("VWell", ("u0",)),
    "parab": ("ParabolicWell", ("u0", "a")),
    "axb": ("QuadraticInverse", ("a", "b")),
    "step": ("Step", ("u0",)),
}

_FAMILY_BUILDERS = {
    "isw": lambda p: InfiniteSquareWell(L=p["l"]),
    "sho": lambda p: HarmonicOscillator(omega=p["omega"]),
    "trig": lambda p: TrigWell(u0=p["u0"], a=p["a"]),
    "vwell": lambda p: VWell(u0=p["u0"]),
    "parab": lambda p: ParabolicWell(u0=p["u0"], a=p["a"]),
    "axb": lambda p: QuadraticInverse(a=p["a"], b=p["b"]),
    "step": lambda p: Step(u0=p["u0"]),
}


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
        return Expression(ast=ast, dom=Domain(lo, hi, "finite"), source=expr_src.strip())
    if family not in _FAMILY_KEYS:
        raise SpecParseError(f"unknown potential family {family!r}")
    _, keys = _FAMILY_KEYS[family]
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
        return _FAMILY_BUILDERS[family](params)
    except InvalidInput as exc:
        raise SpecParseError(str(exc)) from None


def spec_to_dict(spec: PotentialSpec) -> dict:
    """JSON-friendly echo of a potential spec."""
    if isinstance(spec, Expression):
        return {
            "kind": "expr",
            "source": spec.source,
            "domain": {"lo": spec.dom.lo, "hi": spec.dom.hi},
        }
    doc: dict = {"kind": spec.kind}
    for f in fields(spec):
        doc[f.name] = getattr(spec, f.name)
    return doc
