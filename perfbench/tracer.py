"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of the turnpoint modules with
timing and counting wrappers, by setting the module attributes; `restore`
puts the original objects back. Calls inside a module go through its
globals, so `solve_self_consistent -> bracket_roots` is seen as well.

Spans (request, span id, parent id, name, start, end) are kept for each
request, each `cli.main` call, each level solve and each Numerov level, in
memory, and written out by `dump` when the run ends. The per-point calls
(`potentials.evaluate`, `expressions.evaluate`, the functions handed to
`bracket_roots`, `bisect` and `integrate`) only add to counters.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

clock = time.perf_counter

# module, attribute, and whether a call is work the CLI hands off to the
# solver, reference or scattering layers (subtracted from cli.self_ms)
_TIMED = (
    ("solver", "turning_points", True),
    ("solver", "wavefunction", True),
    ("solver", "normalize", True),
    ("solver", "sample", True),
    ("potentials", "u_min", False),
    ("potentials", "parse_potential_spec", False),
    ("reference", "standard_step_R", True),
    ("scattering", "match_coefficients", True),
    ("scattering", "transmission_at", True),
    ("scattering", "raw_subbarrier_R", True),
)
_LEVELS = ("ground_state_energy", "excited_energy")


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps the layer names (cli, solver, numerics, potentials,
        expressions, reference, scattering) to the imported modules."""
        self.mod = modules
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self.requests = 0
        self.out_bytes = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._ext_depth = 0
        self._ext_secs = 0.0
        # potentials.evaluate: calls, seconds, seconds inside Numerov passes,
        # seconds spent in expressions.evaluate beneath it
        self._u = [0, 0.0, 0.0, 0.0]
        self._u_depth = [0]
        self._in_pass = [False]
        self._last_grid = None
        self._passes: list[tuple[float, float, bool]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.requests, sid, parent, name, clock(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = clock()
        self._stack.pop()

    def begin_request(self) -> int:
        return self._open("request")

    def end_request(self, sid: int, out_bytes: int) -> None:
        self._close(sid)
        self.requests += 1
        self.out_bytes += out_bytes

    # -- installation --------------------------------------------------------

    def _set(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        m = self.mod
        for mod_name, attr, external in _TIMED:
            self._set(m[mod_name], attr, self._timed(getattr(m[mod_name], attr), f"{mod_name}.{attr}", external))
        # cli imported the parser by name; both names get the same accounting
        self._set(m["cli"], "parse_potential_spec",
                  self._timed(m["cli"].parse_potential_spec, "potentials.parse_potential_spec", False))
        self._set(m["cli"], "main", self._cli_main(m["cli"].main))
        for attr in _LEVELS:
            self._set(m["solver"], attr, self._level(getattr(m["solver"], attr), f"solver.{attr}"))
        for attr in ("bracket_roots", "bisect", "integrate"):
            self._set(m["numerics"], attr, self._counted_f(getattr(m["numerics"], attr), f"numerics.{attr}"))
        self._set(m["potentials"], "evaluate", self._u_evaluate(m["potentials"].evaluate))
        self._set(m["expressions"], "evaluate", self._x_evaluate(m["expressions"].evaluate))
        self._set(m["reference"], "numerov_integrate", self._numerov(m["reference"].numerov_integrate))
        self._set(m["reference"], "shoot_bound_states", self._shoot(m["reference"].shoot_bound_states))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @property
    def u_evals(self) -> int:
        """`potentials.evaluate` calls seen so far."""
        return self._u[0]

    # -- wrappers ------------------------------------------------------------

    def _external(self, dt: float, outer: bool) -> None:
        self._ext_depth -= 1
        if outer:
            self._ext_secs += dt

    def _timed(self, orig, name: str, external: bool):
        calls, secs = self.calls, self.secs

        def wrapper(*args, **kwargs):
            outer = external and self._ext_depth == 0
            self._ext_depth += external
            t = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = clock() - t
                calls[name] += 1
                secs[name] += dt
                if external:
                    self._external(dt, outer)

        return wrapper

    def _cli_main(self, orig):
        def main(argv=None):
            sid = self._open("cli.main")
            self._ext_secs = 0.0
            t = clock()
            try:
                return orig(argv)
            finally:
                dt = clock() - t
                self._close(sid)
                self.calls["cli.main"] += 1
                self.secs["cli.self"] += dt - self._ext_secs

        return main

    def _level(self, orig, name: str):
        calls, secs, u = self.calls, self.secs, self._u

        def level(*args, **kwargs):
            outer = self._ext_depth == 0
            self._ext_depth += 1
            before = (u[0], calls["numerics.bracket_roots"], calls["bisect.f"], calls["solver.turning_points"])
            sid = self._open(name)
            t = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = clock() - t
                self._close(sid)
                after = (u[0], calls["numerics.bracket_roots"], calls["bisect.f"], calls["solver.turning_points"])
                for key, b, a in zip(("level.u", "level.scans", "level.bisect_f", "level.tp"), before, after):
                    calls[key] += a - b
                calls["level"] += 1
                secs["level"] += dt
                self._external(dt, outer)

        return level

    def _counted_f(self, orig, name: str):
        """Wrap the function argument too: scan points and skips for
        bracket_roots, f evaluations for bisect and integrate."""
        calls, secs = self.calls, self.secs
        short = name.split(".")[1]
        evals, skipped = short + ".f", short + ".skipped"

        def wrapper(f, *args, **kwargs):
            def counted(x):
                calls[evals] += 1
                try:
                    v = f(x)
                except Exception:
                    calls[skipped] += 1
                    raise
                if not math.isfinite(v):
                    calls[skipped] += 1
                return v

            t = clock()
            try:
                out = orig(counted, *args, **kwargs)
            finally:
                calls[name] += 1
                secs[name] += clock() - t
            if short == "bracket_roots" and out:
                calls["bracket_roots.hit"] += 1
            return out

        return wrapper

    def _u_evaluate(self, orig):
        u, depth, in_pass = self._u, self._u_depth, self._in_pass

        def evaluate(spec, x, units=None):
            depth[0] += 1
            t = clock()
            try:
                return orig(spec, x, units)
            finally:
                dt = clock() - t
                depth[0] -= 1
                u[0] += 1
                u[1] += dt
                if in_pass[0]:
                    u[2] += dt

        return evaluate

    def _x_evaluate(self, orig):
        u, depth = self._u, self._u_depth

        def evaluate(ast, x):
            if not depth[0]:  # the u_min scan calls it directly
                return orig(ast, x)
            t = clock()
            try:
                return orig(ast, x)
            finally:
                u[3] += clock() - t

        return evaluate

    def _numerov(self, orig):
        def numerov_integrate(spec, E, grid, *args, **kwargs):
            same = grid is self._last_grid
            self._last_grid = grid
            self._in_pass[0] = True
            t = clock()
            try:
                return orig(spec, E, grid, *args, **kwargs)
            finally:
                end = clock()
                self._in_pass[0] = False
                self._passes.append((t, end, same))
                self.calls["reference.numerov_integrate"] += 1
                self.secs["reference.numerov_integrate"] += end - t

        return numerov_integrate

    def _shoot(self, orig):
        def shoot_bound_states(spec, n_max, *args, **kwargs):
            outer = self._ext_depth == 0
            self._ext_depth += 1
            self._passes, self._last_grid = [], None
            sid = self._open("reference.shoot_bound_states")
            t = clock()
            try:
                return orig(spec, n_max, *args, **kwargs)
            finally:
                dt = clock() - t
                self._close(sid)
                self._numerov_levels(sid)
                self.calls["reference.levels"] += n_max
                self._external(dt, outer)

        return shoot_bound_states

    def _numerov_levels(self, parent: int) -> None:
        """Split one shoot_bound_states call into Numerov level spans.

        A level widens its energy window on fresh grids, one pass each, then
        bisects on one frozen grid; a new grid after a run of passes on one
        grid starts the next level. Single-use grids are expansion passes.
        """
        runs: list[list] = []  # [first pass start, last pass end, passes]
        for start, end, same in self._passes:
            if same:
                runs[-1][1:] = [end, runs[-1][2] + 1]
            else:
                runs.append([start, end, 1])
        level_start = None
        for start, end, n in runs:
            level_start = start if level_start is None else level_start
            if n == 1:
                self.calls["reference.expansion_passes"] += 1
            else:
                self.spans.append([self.requests, len(self.spans), parent, "reference.level", level_start, end])
                level_start = None
        self._passes, self._last_grid = [], None

    # -- results -------------------------------------------------------------

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        c, s, u = self.calls, self.secs, self._u

        def per(a: float, b: float, scale: float = 1.0) -> float:
            return a / b * scale if b else 0.0

        levels = c["level"]
        return {
            "cli.self_ms": per(s["cli.self"], c["cli.main"], 1e3),
            "cli.out_bytes": per(self.out_bytes, self.requests),
            "solver.level_ms": per(s["level"], levels, 1e3),
            "solver.tp_calls_per_level": per(c["level.tp"], levels),
            "solver.tp_us": per(s["solver.turning_points"], c["solver.turning_points"], 1e6),
            "solver.wavefunction_ms": per(
                s["solver.wavefunction"] + s["solver.normalize"] + s["solver.sample"],
                c["solver.wavefunction"], 1e3),
            "numerics.scans_per_level": per(c["level.scans"], levels),
            "numerics.scan_hit_ratio": per(c["bracket_roots.hit"], c["numerics.bracket_roots"]),
            "numerics.skipped_frac": per(c["bracket_roots.skipped"], c["bracket_roots.f"]),
            "numerics.bisect_evals_per_level": per(c["level.bisect_f"], levels),
            "numerics.quad_evals_per_integrate": per(c["integrate.f"], c["numerics.integrate"]),
            "numerics.integrate_ms": per(s["numerics.integrate"], c["numerics.integrate"], 1e3),
            "potentials.u_evals_per_level": per(c["level.u"], levels),
            "potentials.u_evals_per_req": per(u[0], self.requests),
            "potentials.u_eval_us": per(u[1], u[0], 1e6),
            "potentials.u_min_ms": per(s["potentials.u_min"], c["potentials.u_min"], 1e3),
            "expressions.parse_us": per(
                s["potentials.parse_potential_spec"], c["potentials.parse_potential_spec"], 1e6),
            "expressions.eval_share": per(u[3], u[1]),
            "reference.passes_per_level": per(c["reference.numerov_integrate"], c["reference.levels"]),
            "reference.pass_ms": per(s["reference.numerov_integrate"], c["reference.numerov_integrate"], 1e3),
            "reference.grid_u_share": per(u[2], s["reference.numerov_integrate"]),
            "reference.expansion_frac": per(c["reference.expansion_passes"], c["reference.numerov_integrate"]),
            "scattering.match_us": per(
                s["scattering.match_coefficients"], c["scattering.match_coefficients"], 1e6),
            "trace.overhead_frac": 1.0 - per(untraced_s, traced_s),
        }

    def dump(self, path) -> None:
        doc = {
            "fields": ["request", "span", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(self.calls),
            "seconds": dict(self.secs),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
