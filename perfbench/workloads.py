"""Seeded request streams for the three benchmark workloads.

Every stream is an endless iterator of `Request`s drawn from
`random.Random(f"{workload}:{seed}")`, so one seed always gives the same
requests. Requests come in blocks whose mix is fixed and only the order and
the parameters are drawn, so two seeds put the same load on each layer and
run-to-run spread comes from timing, not from a lucky draw of cheap inputs.
The program under test sees only the argv lists; the `well` a request
carries is for the output checker.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("closed-form", "expr-solve", "oracle-compare")

FAMILY_KEYS = {
    "isw": ("L",),
    "sho": ("omega",),
    "trig": ("u0", "a"),
    "vwell": ("u0",),
    "parab": ("u0", "a"),
    "axb": ("a", "b"),
}
FAMILIES = tuple(FAMILY_KEYS)
VARIANTS = ("symmetric", "antisymmetric", "general")

# Expression templates: each has a built-in twin or exact roots of U = E,
# named by the family the checker uses for its exact answers.
EXPR_TEMPLATES = ("quad", "absv", "quartic", "parab", "axb")
_SYMMETRIC = EXPR_TEMPLATES[:3]

# The CLI's energy window is u_min + 1e3 * hbar^2 / (m * (width / 10)^2).
# Energies above U at the domain edge have no turning points, and each such
# scan point costs the full 257..4097-point grid doubling in turning_points.
# rho = (U(edge) - floor) / (window height) sets that wasted share, and with
# it the cost: a symmetric request makes about 656k U evaluations at
# rho = 0.41, 595k at 0.48, 522k at 0.55 and 366k at 0.72, whatever the
# template; below about 0.1 the ground-state bracket search runs out of
# evaluable points and fails. 0.41 is the ROADMAP reference case
# `expr:0.5*x^2;domain=-12..12` (about 328k U evaluations per level). At a
# fixed rho a symmetric solve is scale-invariant in c, so a request's cost is
# set by its template and its rho. The rhos are close together so that the
# costs of the dearer half of the requests, where the median and the tail
# latency fall, are close too, and those two order statistics move little
# when host contention changes the number of requests in a run.
_WINDOW = 1e5
_RHOS = (0.41, 0.48, 0.55)

# Approximate seconds per request of the current program; sizes the traced
# run, never the measurement itself.
NOMINAL_REQUEST_S = {
    "closed-form": 0.005,
    "expr-solve": 1.0,
    "oracle-compare": 0.85,
}
BLOCK = {"closed-form": 10, "expr-solve": 4, "oracle-compare": 6}


@dataclass(frozen=True)
class Well:
    """A well the checker can solve exactly: a family name and its parameters."""

    family: str
    params: tuple[tuple[str, float], ...]

    @property
    def p(self) -> dict[str, float]:
        return dict(self.params)


@dataclass(frozen=True)
class Request:
    """One request: CLI argv for `cli.main`, and what the checker needs."""

    op: str  # solve | wavefunction | scatter | compare
    argv: tuple[str, ...]
    well: Well | None = None
    hbar: float = 1.0
    mass: float = 1.0


# The untimed warm-up request: a cheap one of the workload's kind, the same
# for every seed, so set-up time does not depend on the seed.
WARMUP = {
    "closed-form": Request("solve", ("solve", "--potential", "sho:omega=1", "--n-max", "1"),
                           Well("sho", (("omega", 1.0),))),
    "expr-solve": Request("solve", ("solve", "--potential", "expr:0.5*x^2;domain=-30..30",
                                    "--n-max", "1", "--variant", "general"), Well("quad", (("c", 0.5),))),
    "oracle-compare": Request("compare", ("compare", "--potential", "isw:L=1", "--n-max", "1",
                                          "--variant", "general"), Well("isw", (("L", 1.0),))),
}


def _num(x: float) -> float:
    """Round to 6 significant digits, so the text in argv is the exact value."""
    return float(f"{x:.6g}")


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return _num(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _units(rng: random.Random) -> tuple[float, float]:
    return _logu(rng, 0.7, 1.4), _logu(rng, 0.7, 1.4)


def _unit_args(hbar: float, mass: float) -> list[str]:
    return ["--hbar", repr(hbar), "--mass", repr(mass)]


def _builtin_well(rng: random.Random, family: str) -> tuple[Well, str]:
    params = tuple((k, _logu(rng, 0.5, 2.0)) for k in FAMILY_KEYS[family])
    text = family + ":" + ",".join(f"{k}={v!r}" for k, v in params)
    return Well(family, params), text


def stream(workload: str, seed: int) -> Iterator[Request]:
    """Endless request stream of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closed-form":
        return _closed_form(rng)
    if workload == "expr-solve":
        return _expr_solve(rng)
    if workload == "oracle-compare":
        return _oracle_compare(rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- closed-form: CLI over the six built-in families ------------------------


def _closed_form(rng: random.Random) -> Iterator[Request]:
    while True:
        ops = ["solve"] * 7 + ["wavefunction"] * 2 + ["scatter"]
        rng.shuffle(ops)
        for op in ops:
            hbar, mass = _units(rng)
            if op == "scatter":
                u0 = _logu(rng, 0.5, 2.0)
                argv = [
                    "scatter", "--u0", repr(u0),
                    "--e-min", repr(_num(u0 * rng.uniform(0.05, 0.5))),
                    "--e-max", repr(_num(u0 * rng.uniform(2.0, 10.0))),
                    "--e-count", str(rng.randint(50, 500)),
                    "--x", repr(_num(rng.uniform(0.0, 1.0))),
                ]
                yield Request("scatter", tuple(argv + _unit_args(hbar, mass)), None, hbar, mass)
                continue
            well, text = _builtin_well(rng, rng.choice(FAMILIES))
            argv = [op, "--potential", text, *_unit_args(hbar, mass)]
            if op == "solve":
                argv += ["--n-max", str(rng.randint(1, 5)),
                         "--variant", rng.choice(VARIANTS + ("all",))]
            else:
                n = rng.randint(1, 4)
                argv += ["--n", str(n), "--n-max", str(n), "--variant", rng.choice(VARIANTS),
                         "--samples", str(rng.randint(201, 2001))]
            yield Request(op, tuple(argv), well, hbar, mass)


# -- expression wells -------------------------------------------------------


def _u(template: str, p: dict[str, float], x: float) -> float:
    if template == "quad":
        return p["c"] * x * x
    if template == "absv":
        return p["c"] * abs(x)
    if template == "quartic":
        return p["c"] * x ** 4
    if template == "parab":
        return p["u0"] * (p["a"] / x - x / p["a"]) ** 2
    return p["a"] * x * x + p["b"] / (x * x)  # axb


def _x_min(template: str, p: dict[str, float]) -> float:
    """Location of the minimum of U (0 for the symmetric templates)."""
    if template == "parab":
        return p["a"]
    if template == "axb":
        return (p["b"] / p["a"]) ** 0.25
    return 0.0


def _expr_params(rng: random.Random, template: str) -> dict[str, float]:
    if template == "parab":
        return {"u0": _logu(rng, 0.5, 2.0), "a": _logu(rng, 0.7, 1.5)}
    if template == "axb":
        return {"a": _logu(rng, 0.5, 2.0), "b": _logu(rng, 0.5, 2.0)}
    return {"c": _logu(rng, 0.5, 2.0)}


def _expr_source(template: str, p: dict[str, float]) -> str:
    if template == "quad":
        return f"{p['c']!r}*x^2"
    if template == "absv":
        return f"{p['c']!r}*abs(x)"
    if template == "quartic":
        return f"{p['c']!r}*x^4"
    if template == "parab":
        return f"{p['u0']!r}*({p['a']!r}/x - x/{p['a']!r})^2"
    return f"{p['a']!r}*x^2+{p['b']!r}/x^2"


def _domain(template: str, p: dict[str, float], edge: float) -> tuple[float, float]:
    if template in ("parab", "axb"):
        return 0.0, edge
    return -edge, edge


def _edge_for_rho(template: str, p: dict[str, float], rho: float) -> float:
    """Domain edge at which U(edge) - floor = rho * window height."""
    x0 = _x_min(template, p)
    floor = _u(template, p, x0) if x0 > 0.0 else 0.0

    def excess(edge: float) -> float:
        lo, hi = _domain(template, p, edge)
        return _u(template, p, edge) - floor - rho * _WINDOW / (hi - lo) ** 2

    lo, hi = max(x0, 1e-3) * 1.0001, 1e4
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return _num(hi)


def _expr_spec(template: str, p: dict[str, float], lo: float, hi: float) -> str:
    return f"expr:{_expr_source(template, p)};domain={lo!r}..{hi!r}"


def _expr_well(template: str, p: dict[str, float]) -> Well:
    return Well(template, tuple(sorted(p.items())))


def _expr_solve(rng: random.Random) -> Iterator[Request]:
    while True:
        # three blocks form a Latin square: in each block the three symmetric
        # templates take the three rhos, and over the three blocks every
        # template meets every rho once. A symmetric request's cost is set by
        # its pair, so whole blocks put a fixed load on each layer. Each block
        # adds one cheap one-sided well, whose inner root is found even above
        # U(edge), so its rho hardly matters. Sorted by cost, a block is the
        # one-sided well and then the symmetric ones, so the median and the
        # tail request are symmetric ones
        templates = rng.sample(_SYMMETRIC, len(_SYMMETRIC))
        rhos = rng.sample(_RHOS, len(_RHOS))
        for shift in rng.sample(range(len(_RHOS)), len(_RHOS)):
            slots = [(t, rhos[(i + shift) % len(_RHOS)]) for i, t in enumerate(templates)]
            slots.append((rng.choice(EXPR_TEMPLATES[len(_SYMMETRIC):]), rng.choice(_RHOS)))
            rng.shuffle(slots)
            for template, rho in slots:
                p = _expr_params(rng, template)
                lo, hi = _domain(template, p, _edge_for_rho(template, p, rho))
                argv = ("solve", "--potential", _expr_spec(template, p, lo, hi),
                        "--n-max", "1", "--variant", "general")
                yield Request("solve", argv, _expr_well(template, p))


# -- oracle-compare: CLI compare against the Numerov reference --------------


def _oracle_compare(rng: random.Random) -> Iterator[Request]:
    while True:
        # each family once per block; n_max mostly 3 so the median and the
        # tail order statistic sit inside one cost mode
        families = list(FAMILIES)
        rng.shuffle(families)
        n_maxes = [2, 3, 3, 3, 3, 4]
        rng.shuffle(n_maxes)
        for family, n_max in zip(families, n_maxes):
            hbar, mass = _units(rng)
            well, text = _builtin_well(rng, family)
            argv = ["compare", "--potential", text, *_unit_args(hbar, mass),
                    "--n-max", str(n_max), "--variant", "general"]
            yield Request("compare", tuple(argv), well, hbar, mass)
