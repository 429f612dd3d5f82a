"""Output checks against exact answers computed here, not by turnpoint.

A check raises `CheckFailure` with the reason; the runner counts it as a
failed request and goes on. Tolerances are fixed here, before any run:

- `REL` (1e-8, a hundred times the CLI's default energy tolerance) for level
  energies, widths, midpoints and residuals;
- `EXACT` (1e-12) for quantities the program computes by a closed formula
  (scattering coefficients, the variational estimate, rel_diff);
- `ORACLE_REL` (1e-3) for the 4001-point Numerov reference against exact
  spectra, whose discretisation error on these families is 1e-9..2e-4;
- `NORM_ABS` (2e-2) for the trapezoid norm of the sampled wavefunction, the
  error of a 200-point rule on the highest-q state generated.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Request, Well

REL = 1e-8
EXACT = 1e-12
ORACLE_REL = 1e-3
NORM_ABS = 2e-2

_Q = {"symmetric": lambda n: 2 * n - 1, "antisymmetric": lambda n: 2 * n, "general": lambda n: n}


class CheckFailure(Exception):
    """A request's output disagrees with the exact answer."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _close(got: float, want: float, rel: float, what: str, scale: float | None = None) -> None:
    tol = rel * (abs(want) if scale is None else scale)
    _require(
        isinstance(got, (int, float)) and abs(got - want) <= tol,
        f"{what}: got {got!r}, expected {want!r} (tolerance {tol:.3g})",
    )


def _reject_constant(name: str):
    raise CheckFailure(f"non-standard JSON constant {name}")


def strict_json(text: str) -> dict:
    """`json.loads` that refuses NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not valid JSON: {exc}") from None


# -- exact answers ----------------------------------------------------------


def roots(well: Well, E: float, mass: float) -> tuple[float, float]:
    """Turning points x1 < x2 of U(x) = E (the positive-side pair for axb)."""
    f, p = well.family, well.p
    if f == "isw":
        return 0.0, p["L"]
    if f == "sho":
        x = math.sqrt(2.0 * E / (mass * p["omega"] ** 2))
        return -x, x
    if f == "quad":
        x = math.sqrt(E / p["c"])
        return -x, x
    if f == "trig":
        x = p["a"] / math.pi * math.atan(math.sqrt(p["u0"] / E))
        return x, p["a"] - x
    if f in ("vwell", "absv"):
        x = E / p.get("u0", p.get("c"))
        return -x, x
    if f == "quartic":
        x = (E / p["c"]) ** 0.25
        return -x, x
    if f == "parab":
        s = math.sqrt(E / p["u0"])
        r = math.sqrt(s * s + 4.0)
        return 0.5 * p["a"] * (r - s), 0.5 * p["a"] * (r + s)
    if f == "axb":
        disc = math.sqrt(E * E - 4.0 * p["a"] * p["b"])
        return math.sqrt((E - disc) / (2.0 * p["a"])), math.sqrt((E + disc) / (2.0 * p["a"]))
    raise ValueError(f"no exact roots for {f!r}")


def closed_energy(well: Well, hbar: float, mass: float, q: int | None) -> float | None:
    """Closed-form turning-point level (ground for q None), or None where the
    self-consistent equation has none (trig, axb, quartic)."""
    f, p = well.family, well.p
    if f == "quad":  # c*x^2 is the oscillator with omega = sqrt(2c/m)
        f, p = "sho", {"omega": math.sqrt(2.0 * p["c"] / mass)}
    if f == "absv":
        f, p = "vwell", {"u0": p["c"]}
    if f == "isw":
        L = p["L"]
        return 2.0 * hbar ** 2 / (mass * L * L) if q is None else (q * math.pi * hbar / L) ** 2 / (2.0 * mass)
    if f == "sho":
        return 0.5 * hbar * p["omega"] if q is None else q * math.pi * hbar * p["omega"] / 4.0
    if f == "vwell":
        u0 = p["u0"]
        if q is None:
            return (hbar ** 2 * u0 ** 2 / (2.0 * mass)) ** (1.0 / 3.0)
        return (q * math.pi * hbar * u0 / (2.0 * math.sqrt(2.0 * mass))) ** (2.0 / 3.0)
    if f == "parab":
        u0, a = p["u0"], p["a"]
        if q is None:
            return hbar * math.sqrt(2.0 * u0 / mass) / a
        return q * math.pi * hbar * math.sqrt(u0) / (a * math.sqrt(2.0 * mass))
    return None


# The first zeros of Ai' (even vwell states) and of Ai (odd ones), as
# `mpmath.airyaizero(j, derivative=1)` and `airyaizero(j)` give them; a
# table keeps mpmath out of the measured process and its peak memory.
AIRY_ZEROS = {
    1: (-1.0187929716474710, -3.2481975821798366, -4.8200992111787360),
    0: (-2.3381074104597670, -4.0879494441309706, -5.5205598280955510),
}


def exact_spectrum(well: Well, hbar: float, mass: float, k: int) -> float:
    """k-th (0-based) eigenvalue of the Schrodinger equation in the well."""
    f, p = well.family, well.p
    if f == "isw":
        return (k + 1) ** 2 * math.pi ** 2 * hbar ** 2 / (2.0 * mass * p["L"] ** 2)
    if f == "sho":
        return (k + 0.5) * hbar * p["omega"]
    if f == "trig":  # Poschl-Teller: u0*cot^2 = u0*csc^2 - u0
        u0, a = p["u0"], p["a"]
        g = 2.0 * mass * u0 * a * a / (hbar * math.pi) ** 2
        lam = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * g))
        return (hbar * math.pi / a) ** 2 / (2.0 * mass) * (k + lam) ** 2 - u0
    if f == "vwell":  # even states at zeros of Ai', odd ones at zeros of Ai
        z = -AIRY_ZEROS[1 if k % 2 == 0 else 0][k // 2]
        return z * (hbar ** 2 * p["u0"] ** 2 / (2.0 * mass)) ** (1.0 / 3.0)
    if f in ("parab", "axb"):  # radial oscillator A*x^2 + B/x^2 on x > 0
        if f == "parab":
            A, B, shift = p["u0"] / p["a"] ** 2, p["u0"] * p["a"] ** 2, -2.0 * p["u0"]
        else:
            A, B, shift = p["a"], p["b"], 0.0
        omega = math.sqrt(2.0 * A / mass)
        ell = 0.5 * (-1.0 + math.sqrt(1.0 + 8.0 * mass * B / hbar ** 2))
        return hbar * omega * (2 * k + ell + 1.5) + shift
    raise ValueError(f"no exact spectrum for {f!r}")


# -- per-document checks ----------------------------------------------------


def check_level(well: Well, hbar: float, mass: float, q: int | None,
                E: float, d: float, x0: float, what: str) -> None:
    """A turning-point level: exact width and midpoint at E, the level's own
    equation satisfied with the exact width, and the closed form if any."""
    _require(isinstance(E, (int, float)) and E > 0.0, f"{what}: bad energy {E!r}")
    x1, x2 = roots(well, E, mass)
    width = x2 - x1
    _close(d, width, REL, f"{what} width")
    _close(x0, 0.5 * (x1 + x2), REL, f"{what} midpoint", scale=width)
    if q is None:
        residual = E - 2.0 * hbar ** 2 / (mass * width * width)
        _require(abs(residual) <= REL * (1.0 + E), f"{what}: exact-root residual {residual:.3g}")
    else:
        residual = math.sqrt(2.0 * mass * E) / hbar * width - q * math.pi
        _require(abs(residual) <= REL * q * math.pi, f"{what}: exact-root residual {residual:.3g}")
    closed = closed_energy(well, hbar, mass, q)
    if closed is not None:
        _close(E, closed, REL, f"{what} energy")


def _variants(argv: tuple[str, ...]) -> tuple[str, ...]:
    v = _flag(argv, "--variant", "all")
    return ("symmetric", "antisymmetric", "general") if v == "all" else (v,)


def _flag(argv: tuple[str, ...], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def check_solve(req: Request, doc: dict) -> None:
    well, hbar, mass = req.well, req.hbar, req.mass
    _require(set(doc) >= {"potential", "units", "ground_state", "levels"}, "solve: missing keys")
    kind = "expr" if req.argv[2].startswith("expr:") else well.family
    _require(doc["potential"]["kind"] == kind, f"solve: potential kind {doc['potential']['kind']!r}")
    _require(doc["units"] == {"hbar": hbar, "mass": mass}, f"solve: units {doc['units']!r}")
    gs = doc["ground_state"]
    _require(gs["bound"] is True, "solve: ground state not bound")
    check_level(well, hbar, mass, None, gs["energy"], gs["d"], gs["x0"], "ground")
    n_max = int(_flag(req.argv, "--n-max", "3"))
    variants = _variants(req.argv)
    levels = doc["levels"]
    _require(len(levels) == n_max * len(variants), f"solve: {len(levels)} levels")
    for i, lv in enumerate(levels):
        n = i // len(variants) + 1
        _require(lv["n"] == n and lv["variant"] in variants, f"solve: level {i} is {lv['n']}/{lv['variant']}")
        q = _Q[lv["variant"]](n)
        what = f"n={n} {lv['variant']}"
        check_level(well, hbar, mass, q, lv["energy"], lv["d"], lv["x0"], what)
        _close(lv["K"], math.sqrt(2.0 * mass * lv["energy"]) / hbar, REL, f"{what} K")
    for i in range(0, len(levels), len(variants)):
        group = [lv["energy"] for lv in levels[i:i + len(variants)]]
        _require(group == sorted(group), "solve: levels not sorted within n")
    _require(len({(lv["n"], lv["variant"]) for lv in levels}) == len(levels), "solve: repeated level")


def check_wavefunction(req: Request, text: str) -> None:
    well, hbar, mass = req.well, req.hbar, req.mass
    samples = int(_flag(req.argv, "--samples", "201"))
    n = int(_flag(req.argv, "--n", "1"))
    q = _Q[_flag(req.argv, "--variant", "symmetric")](n)
    lines = text.split("\n")
    _require(lines[0] == "x,psi" and lines[-1] == "", "wavefunction: bad CSV framing")
    rows = [line.split(",") for line in lines[1:-1]]
    _require(len(rows) == samples and all(len(r) == 2 for r in rows), "wavefunction: bad row count")
    xs = np.array([float(r[0]) for r in rows])
    psi = np.array([float(r[1]) for r in rows])
    _require(bool(np.all(np.isfinite(psi))), "wavefunction: non-finite psi")
    lo, hi = xs[0], xs[-1]
    grid = lo + (hi - lo) * np.arange(samples) / (samples - 1)
    _require(bool(np.all(np.abs(xs - grid) <= EXACT * (hi - lo))), "wavefunction: grid not uniform")
    # the grid spans [x1 - 0.1 d, x2 + 0.1 d]; K d = q pi then fixes the energy
    d = (hi - lo) / 1.2
    x1, x2 = lo + 0.1 * d, hi - 0.1 * d
    E = (q * math.pi * hbar / d) ** 2 / (2.0 * mass)
    check_level(well, hbar, mass, q, E, d, 0.5 * (x1 + x2), f"wavefunction n={n}")
    # psi vanishes at the turning points, so a sample there may round either way
    inside = (xs >= x1) & (xs <= x2)
    zero = np.abs(psi) <= EXACT * np.max(np.abs(psi))
    _require(bool(np.all(zero[~inside])), "wavefunction: nonzero outside the well")
    y, t = psi[inside] ** 2, xs[inside]
    norm = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(t)))
    _require(abs(norm - 1.0) <= NORM_ABS, f"wavefunction: norm {norm}")
    signs = np.sign(psi[~zero])
    nodes = int(np.sum(signs[1:] != signs[:-1]))
    _require(nodes == q - 1, f"wavefunction: {nodes} nodes, expected {q - 1}")


def check_scatter(req: Request, doc: dict) -> None:
    hbar, mass = req.hbar, req.mass
    u0 = float(_flag(req.argv, "--u0", "nan"))
    x = float(_flag(req.argv, "--x", "0"))
    energies = np.linspace(float(_flag(req.argv, "--e-min", "nan")),
                           float(_flag(req.argv, "--e-max", "nan")),
                           int(_flag(req.argv, "--e-count", "0")))
    records = doc["records"]
    _require(doc["u0"] == u0 and doc["x"] == x, "scatter: echo mismatch")
    _require(len(records) == len(energies), f"scatter: {len(records)} records")
    m1 = math.sqrt(2.0 * mass) / hbar
    for rec, E in zip(records, energies):
        E = float(E)
        _require(rec["E"] == E, f"scatter: energy {rec['E']!r} != {E!r}")
        _close(rec["T0"] + rec["R"], 1.0, EXACT, f"scatter E={E} T0+R")
        if E >= u0:
            _require(rec["regime"] == ("above_barrier" if E > u0 else "at_barrier"), "scatter: regime")
            _close(rec["R"], u0 / (4.0 * E + u0), EXACT, f"scatter E={E} R")
            _close(rec["T_at_x"], rec["T0"] * math.exp(-2.0 * m1 * math.sqrt(u0) * x), EXACT,
                   f"scatter E={E} T(x)")
            k, k2 = math.sqrt(E), math.sqrt(E - u0)
            _close(rec["standard_R"], ((k - k2) / (k + k2)) ** 2, EXACT, f"scatter E={E} standard R",
                   scale=1.0)
            _require("raw_subbarrier_R" not in rec, "scatter: raw R above the barrier")
        else:
            _require(rec["regime"] == "below_barrier", "scatter: regime")
            _require(rec["R"] == 1 and rec["T0"] == 0 and rec["T_at_x"] == 0, "scatter: below-barrier R, T")
            _require(rec["standard_R"] == 1, "scatter: below-barrier standard R")
            se, su = math.sqrt(E), math.sqrt(u0)
            raw = rec["raw_subbarrier_R"]
            _require(raw["non_physical"] is True, "scatter: raw R not flagged")
            _close(raw["value"], (E + (se - su) ** 2) / (E + (se + su) ** 2), EXACT, f"scatter E={E} raw R")


def check_compare(req: Request, doc: dict) -> None:
    check_solve(req, doc)
    well, hbar, mass = req.well, req.hbar, req.mass
    n_max = int(_flag(req.argv, "--n-max", "3"))
    rows = doc["comparison"]
    _require(len(rows) == 1 + n_max, f"compare: {len(rows)} rows")
    ours = [doc["ground_state"]["energy"]] + sorted(lv["energy"] for lv in doc["levels"])
    for i, row in enumerate(rows):
        k = max(i - 1, 0)
        _require(row["reference_node_count"] == k, f"compare: row {i} node count")
        _close(row["reference_value"], exact_spectrum(well, hbar, mass, k), ORACLE_REL,
               f"compare: Numerov level {k}")
        _require(row["erbil_value"] == ours[i], f"compare: row {i} value differs from the solve")
        _close(row["rel_diff"], abs(row["erbil_value"] - row["reference_value"]) / abs(row["reference_value"]),
               EXACT, f"compare: row {i} rel_diff")
    if well.family == "vwell":
        scale = (hbar ** 2 * well.p["u0"] ** 2 / mass) ** (1.0 / 3.0)
        _close(doc["known_ground_state_estimate"]["value"], 1.5 * (0.5 / math.pi) ** (1.0 / 3.0) * scale,
               EXACT, "compare: variational estimate")


def check(req: Request, outcome) -> None:
    """Check one request's outcome: ("ok", output) or ("raised", exception)."""
    try:
        _check(req, outcome)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # a malformed document
        raise CheckFailure(f"{req.op}: malformed output: {exc!r}") from None


def _check(req: Request, outcome) -> None:
    status, value = outcome
    _require(status == "ok", f"{req.op}: raised {value!r}")
    code, out = value
    _require(code == 0, f"{req.op}: exit code {code}")
    if req.op == "wavefunction":
        check_wavefunction(req, out)
        return
    doc = strict_json(out)
    {"solve": check_solve, "scatter": check_scatter, "compare": check_compare}[req.op](req, doc)

