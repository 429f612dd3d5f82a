"""Command-line surface: solve / wavefunction / scatter / compare.

stdout carries only the emitted document (JSON or CSV); stderr carries
diagnostics and the rendered comparison table. Exit codes: 0 success,
2 spec/expression parse error, 3 convergence failure, 4 invalid physical
input.

Floats are written with 17 significant digits, and NaN is refused. Every
JSON object is emitted through one `%` template per shape (indent, keys,
value types), and a wavefunction CSV row through one `%`: both give the
text of the value-by-value rendering.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import reference, scattering, solver
from .errors import (
    CONVERGENCE_ERRORS,
    ConvergenceFailure,
    ExpressionSyntaxError,
    InvalidInput,
    InvalidRegion,
    SpecParseError,
    TurnpointError,
)
from .numerics import Tolerances
from .potentials import PotentialSpec, UnitSystem, parse_potential_spec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_INVALID = 4

# cap on wavefunction rows and scatter records, both built as Python lists
MAX_SAMPLES = 1_000_000

_PARSE_ERRORS = (SpecParseError, ExpressionSyntaxError)


@dataclass
class RunConfig:
    potential: PotentialSpec
    units: UnitSystem = field(default_factory=UnitSystem)
    tolerances: Tolerances = field(default_factory=Tolerances)
    n_max: int = 3
    variant: str = "all"  # symmetric | antisymmetric | general | all

    def __post_init__(self):
        if self.n_max < 1:
            raise InvalidInput(f"n_max must be >= 1, got {self.n_max}")
        if self.variant not in (*solver.VARIANTS, "all"):
            raise InvalidInput(f"unknown variant {self.variant!r}")

    @property
    def variants(self) -> tuple[str, ...]:
        return solver.VARIANTS if self.variant == "all" else (self.variant,)


def format_float(value: float) -> str:
    """17-significant-digit, locale-independent rendering (exact round trip)."""
    if value != value:
        raise ValueError("refusing to serialize NaN")
    return format(value, ".17g")


# json.dumps(value, ensure_ascii=False) without building an encoder per call
_json_string = json.JSONEncoder(ensure_ascii=False).encode


# (indent, keys, value types) of a non-empty dict -> its `%` template
_TEMPLATES: dict[tuple, str] = {}


def _template(indent: int, keys: tuple, types: tuple) -> str:
    """A dict's text at `indent`: %.17g for a Python float, %s for any other value's text."""
    for k in keys:
        if not isinstance(k, str):  # 1, 1.0 and True are one dict key but print apart
            raise TypeError(f"cannot serialize a {type(k).__name__} key")
    pad, inner = "  " * indent, "  " * (indent + 1)
    fields = [f'{inner}"{k}": '.replace("%", "%%") + ("%.17g" if t is float else "%s")
              for k, t in zip(keys, types)]
    return "{\n" + ",\n".join(fields) + "\n" + pad + "}"


def to_json(value, indent: int = 0) -> str:
    """Minimal JSON emitter with stable key order and .17g floats.

    Every non-empty dict is emitted through one `%` template per (indent,
    keys, value types), kept in `_TEMPLATES`: a Python float fills a %.17g
    field, which gives `format_float`'s text, and every other value,
    np.float64 included, its own `to_json` text. A NaN is refused with
    `format_float`'s ValueError, and a key that is no str with a TypeError.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        values = tuple(value.values())
        shape = (indent, tuple(value), tuple(map(type, values)))
        template = _TEMPLATES.get(shape)
        if template is None:
            template = _TEMPLATES[shape] = _template(*shape)
        # a NaN goes to to_json, whose format_float refuses it
        return template % tuple([v if type(v) is float and v == v else to_json(v, indent + 1) for v in values])
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = "  " * (indent + 1)
        items = [inner + to_json(v, indent + 1) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _solve_levels(config: RunConfig) -> tuple[solver.GroundState, list[solver.EnergyLevel]]:
    wanted = [solver.LevelSpec(n, v) for n in range(1, config.n_max + 1) for v in config.variants]
    ground, levels = solver._solve_spectrum(config.potential, wanted, config.units, config.tolerances)
    levels.sort(key=lambda lv: (lv.level.n, lv.energy))  # stable: variant order breaks ties
    for lv in levels:  # the ground's check is the solver's own
        if lv.residual > config.tolerances.energy_rel * (1.0 + lv.level.q * math.pi):
            raise ConvergenceFailure(f"residual {lv.residual} above configured tolerance; refusing to emit")
    return ground, levels


def _level_record(lv: solver.EnergyLevel) -> dict:
    return {
        "n": lv.level.n,
        "variant": lv.level.variant,
        "energy": lv.energy,
        "K": lv.K,
        "d": lv.tp.d,
        "x0": lv.tp.x0,
        "residual": lv.residual,
    }


def run_solve(config: RunConfig) -> dict:
    ground, levels = _solve_levels(config)
    return {
        "potential": config.potential.to_dict(),
        "units": {"hbar": config.units.hbar, "mass": config.units.mass},
        "ground_state": {
            "energy": ground.energy,
            "d": ground.tp.d,
            "x0": ground.tp.x0,
            "bound": ground.bound,
            "residual": ground.residual,
        },
        "levels": [_level_record(lv) for lv in levels],
    }


def run_wavefunction(config: RunConfig, n: int, variant: str, samples: int) -> str:
    """CSV document `x,psi` with `samples` rows spanning [x1-0.1d, x2+0.1d]."""
    if n > config.n_max:
        raise InvalidInput(f"n={n} exceeds n_max={config.n_max}")
    if variant not in solver.VARIANTS:
        raise InvalidInput(f"wavefunction needs a concrete variant, got {variant!r}")
    if samples < 1:
        raise InvalidInput(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise InvalidInput(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    level = solver.LevelSpec(n, variant)
    result = solver.excited_energy(config.potential, level, config.units, config.tolerances)
    desc = solver.wavefunction(
        config.potential, level, result.energy, config.units, config.tolerances
    )
    desc = solver.normalize(desc, config.tolerances)
    tp = desc.tp
    lo, hi = tp.x1 - 0.1 * tp.d, tp.x2 + 0.1 * tp.d
    if samples == 1:
        grid = [lo]
    else:
        grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    rows = solver.sample(desc, grid)
    for x, psi in rows:  # format_float's refusal; %.17g is its text
        if x != x or psi != psi:
            raise ValueError("refusing to serialize NaN")
    return "x,psi\n" + "".join(["%.17g,%.17g\n" % row for row in rows])


def run_scatter(u0: float, energies: list[float], x_probe: float, units: UnitSystem) -> dict:
    if not u0 > 0.0:
        raise InvalidInput(f"u0 must be positive, got {u0}")
    if x_probe < 0.0:
        raise InvalidRegion(f"x probe must be >= 0, got {x_probe}")
    if not math.isfinite(x_probe):
        raise InvalidRegion(f"x probe must be finite, got {x_probe}")
    records = []
    for E in energies:
        coeffs = scattering.match_coefficients(E, u0, units)
        record = {
            "E": E,
            "regime": coeffs.regime,
            "R": coeffs.R,
            "T0": coeffs.T0,
            "T_at_x": coeffs.transmission(x_probe),  # 0 below the barrier, where T0 = 0
            "standard_R": reference.standard_step_R(E, u0, units),
        }
        if E <= u0:
            record["raw_subbarrier_R"] = {
                "value": scattering.raw_subbarrier_R(E, u0),
                "non_physical": True,
            }
        records.append(record)
    return {
        "u0": u0,
        "units": {"hbar": units.hbar, "mass": units.mass},
        "x": x_probe,
        "records": records,
    }


def run_compare(config: RunConfig) -> dict:
    """Solve document extended with sorted-order pairing against the
    Numerov reference; indices are explicit on both sides because the
    variant indexing and the node-count indexing disagree."""
    doc = run_solve(config)
    ground, levels = doc["ground_state"], doc["levels"]
    erbil_rows = [(f"n={lv['n']}", lv["variant"], lv["energy"]) for lv in levels]
    erbil_rows.sort(key=lambda row: row[2])
    ref_levels = reference.shoot_bound_states(config.potential, max(len(erbil_rows), 1), units=config.units)

    def row(index: str, variant: str, erbil_value: float, ref: reference.ReferenceLevel) -> dict:
        rel_diff = abs(erbil_value - ref.energy) / max(abs(ref.energy), 1e-300)
        return {
            "label": f"{index} {variant}".strip(),
            "erbil_index": index,
            "erbil_variant": variant,
            "reference_node_count": ref.node_count,
            "erbil_value": erbil_value,
            "reference_value": ref.energy,
            "rel_diff": rel_diff,
        }

    # the zero-point level and the lowest true eigenvalue share node count 0,
    # so both the ground row and the first sorted excited row pair with it
    ground_row = row("ground", "-", ground["energy"], ref_levels[0])
    ground_row["ratio_reference_over_erbil"] = (
        ref_levels[0].energy / ground["energy"] if ground["energy"] else math.inf
    )
    comparison = [ground_row]
    comparison += [
        row(index, variant, value, ref)
        for (index, variant, value), ref in zip(erbil_rows, ref_levels)
    ]
    doc["comparison"] = comparison
    estimate = config.potential.ground_estimate(config.units)
    if estimate is not None:
        doc["known_ground_state_estimate"] = {"method": "variational", "value": estimate}
    return doc


def render_comparison_table(doc: dict) -> str:
    header = f"{'label':<24} {'node':>4} {'erbil':>22} {'reference':>22} {'rel_diff':>12}"
    lines = [header, "-" * len(header)]
    for row in doc["comparison"]:
        lines.append(
            f"{row['label']:<24} {row['reference_node_count']:>4} "
            f"{row['erbil_value']:>22.12g} {row['reference_value']:>22.12g} "
            f"{row['rel_diff']:>12.4g}"
        )
    return "\n".join(lines)


# every key some subcommand reads from a config file; any other key is refused
_FILE_KEYS = frozenset({
    "out", "hbar", "mass", "potential", "n_max", "variant", "tol_energy", "tol_quad",
    "samples", "u0", "energy", "e_min", "e_max", "e_count", "x",
})


def _read_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SpecParseError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip().lower().replace("-", "_")
                if key not in _FILE_KEYS:
                    raise SpecParseError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise SpecParseError(f"cannot read config file {path}: {exc}") from None
    return values


def _add_level_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--potential", help="potential spec, e.g. sho:omega=1 or 'expr:0.5*x^2;domain=-10..10'")
    p.add_argument("--n-max", type=int)
    p.add_argument("--variant", choices=[*solver.VARIANTS, "all"])
    p.add_argument("--tol-energy", type=float)
    p.add_argument("--tol-quad", type=float)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file; flags override")
    p.add_argument("--hbar", type=float)
    p.add_argument("--mass", type=float)
    p.add_argument("--out", help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turnpoint",
        description="Turning-point solver for 1D wells, with a Numerov reference and step scattering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="ground and excited energies")
    p_wf = sub.add_parser("wavefunction", help="normalized wavefunction samples as CSV")
    p_sc = sub.add_parser("scatter", help="step-potential coefficients")
    p_cmp = sub.add_parser("compare", help="side-by-side with the Numerov reference")
    for p in (p_solve, p_wf, p_cmp):
        _add_level_flags(p)
    for p in (p_solve, p_wf, p_sc, p_cmp):
        _add_common_flags(p)

    p_wf.add_argument("--n", type=int, default=1)
    p_wf.add_argument("--samples", type=int)

    p_sc.add_argument("--u0", type=float)
    p_sc.add_argument("--energy", action="append", type=float, help="single energy; repeatable")
    p_sc.add_argument("--e-min", type=float)
    p_sc.add_argument("--e-max", type=float)
    p_sc.add_argument("--e-count", type=int)
    p_sc.add_argument("--x", type=float, help="probe position in region II (default 0)")
    return parser


_PARSER = _build_parser()


def _setting(args: argparse.Namespace, file_values: dict[str, str], key: str, cast, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        try:
            return cast(file_values[key])
        except ValueError:
            raise SpecParseError(f"config file {args.config}: bad value {file_values[key]!r} for {key}") from None
    return default


def _units(args: argparse.Namespace, file_values: dict[str, str]) -> UnitSystem:
    return UnitSystem(
        hbar=_setting(args, file_values, "hbar", float, 1.0),
        mass=_setting(args, file_values, "mass", float, 1.0),
    )


def _make_config(args: argparse.Namespace, file_values: dict[str, str]) -> RunConfig:
    spec_text = _setting(args, file_values, "potential", str, None)
    if not spec_text:
        raise SpecParseError("no potential given (use --potential or a config file)")
    energy_rel = _setting(args, file_values, "tol_energy", float, None)
    if energy_rel is None:
        env_tol = os.environ.get("TURNPOINT_TOL_ENERGY")
        if env_tol:
            try:
                energy_rel = float(env_tol)
            except ValueError:
                raise InvalidInput(
                    f"TURNPOINT_TOL_ENERGY is not a number: {env_tol!r}"
                ) from None
        else:
            energy_rel = 1e-10
    quad_rel = _setting(args, file_values, "tol_quad", float, 1e-10)
    return RunConfig(
        tolerances=Tolerances(energy_rel=energy_rel, quad_rel=quad_rel),
        units=_units(args, file_values),
        potential=parse_potential_spec(spec_text),
        n_max=_setting(args, file_values, "n_max", int, 3),
        variant=_setting(args, file_values, "variant", str, "all"),
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(args: argparse.Namespace) -> int:
    file_values = _read_config_file(args.config) if args.config else {}
    out_path = _setting(args, file_values, "out", str, None)

    if args.command == "scatter":
        units = _units(args, file_values)
        u0 = _setting(args, file_values, "u0", float, None)
        if u0 is None:
            raise InvalidInput("scatter requires --u0")
        energies = list(_setting(
            args, file_values, "energy", lambda text: [float(t) for t in text.split(",") if t.strip()], []
        ))
        e_min = _setting(args, file_values, "e_min", float, None)
        e_max = _setting(args, file_values, "e_max", float, None)
        e_count = _setting(args, file_values, "e_count", int, None)
        checked = [("--u0", u0), ("--e-min", e_min), ("--e-max", e_max)]
        for flag, value in checked + [("--energy", E) for E in energies]:
            if value is not None and not math.isfinite(value):
                raise InvalidInput(f"{flag} must be finite, got {value}")
        if e_min is not None or e_max is not None or e_count is not None:
            if None in (e_min, e_max, e_count) or e_count < 2 or not e_min < e_max:
                raise InvalidInput("energy range needs --e-min < --e-max and --e-count >= 2")
            if e_count > MAX_SAMPLES:
                raise InvalidInput(f"e-count must be <= {MAX_SAMPLES}, got {e_count}")
            energies += np.linspace(e_min, e_max, e_count).tolist()
        if not energies:
            raise InvalidInput("scatter requires --energy or an --e-min/--e-max/--e-count range")
        if any(E <= 0.0 for E in energies):
            raise InvalidInput("all energies must be positive")
        x_probe = _setting(args, file_values, "x", float, 0.0)
        doc = run_scatter(u0, energies, x_probe, units)
        _emit(to_json(doc) + "\n", out_path)
        return EXIT_OK

    config = _make_config(args, file_values)

    if args.command == "solve":
        _emit(to_json(run_solve(config)) + "\n", out_path)
    elif args.command == "wavefunction":
        variant = config.variant if config.variant != "all" else "symmetric"
        samples = _setting(args, file_values, "samples", int, 201)
        _emit(run_wavefunction(config, args.n, variant, samples), out_path)
    else:
        doc = run_compare(config)
        print(render_comparison_table(doc), file=sys.stderr)
        _emit(to_json(doc) + "\n", out_path)
    return EXIT_OK


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    # argparse takes a word that starts with '-' and is no plain negative number for
    # a flag: pass `--x -1e-3` as `--x=-1e-3`, but not after --help or `--`
    words: list[str] = []
    for word in sys.argv[1:] if argv is None else argv:
        flag = words[-1] if words else ""
        if word.startswith("-") and flag.startswith("--") and "=" not in flag \
                and not "--help".startswith(flag) and _is_number(word):
            words[-1] = f"{flag}={word}"
        else:
            words.append(word)
    args = _PARSER.parse_args(words)
    try:
        return _dispatch(args)
    except _PARSE_ERRORS as exc:
        print(f"turnpoint: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CONVERGENCE_ERRORS as exc:
        print(f"turnpoint: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except TurnpointError as exc:
        print(f"turnpoint: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
