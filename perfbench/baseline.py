"""Reproduce the ROADMAP aim-1 baseline with the layer tracer.

    python3 perfbench/baseline.py

Times three library calls plain (median of `REPEAT` calls) and counts the
`potentials.evaluate` calls they make with the wrappers of `tracer.py`:
an `expr:0.5*x^2;domain=-12..12` ground solve, the same solve on the
built-in `sho`, and the Numerov reference for five `sho` levels. Prints one
JSON object per case.
"""

from __future__ import annotations

import json
import statistics
import time

import run
from tracer import Tracer

REPEAT = 3


def main() -> None:
    mod = run.bootstrap()
    potentials, solver, reference = mod["potentials"], mod["solver"], mod["reference"]
    cases = {
        "expr 0.5*x^2 ground": lambda: solver.ground_state_energy(
            potentials.parse_potential_spec("expr:0.5*x^2;domain=-12..12")),
        "sho ground": lambda: solver.ground_state_energy(potentials.HarmonicOscillator(1.0)),
        "Numerov sho 5 levels": lambda: reference.shoot_bound_states(potentials.HarmonicOscillator(1.0), 5),
    }
    for name, call in cases.items():
        call()  # warm-up
        times = []
        for _ in range(REPEAT):
            t = time.perf_counter()
            call()
            times.append(time.perf_counter() - t)
        tracer = Tracer(mod)
        tracer.install()
        try:
            call()
        finally:
            tracer.restore()
        print(json.dumps({"case": name, "seconds": statistics.median(times), "u_evals": tracer.u_evals}))


if __name__ == "__main__":
    main()
