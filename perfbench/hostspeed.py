"""The host's speed, sampled on the benchmark's thread while requests run.

On a shared host the load of other tenants slows this process by 10 to 90 %.
The slowdown changes from one quarter second to the next, and its mean over
a run drifts by 20 % or more between runs a few minutes apart, in wall and
CPU time alike. Raw times then differ more from run to run than a change
worth catching.

`Probe` times a fixed piece of pure-Python work (`_work`) every `PERIOD`
seconds from a SIGALRM handler. Contention slows some kinds of code more
than others, so the work mixes three kinds, in about equal time: building
a list of floats, calls with dictionary lookups, and bisection on a
formula evaluated by walking a small tree. The handler runs on the
benchmark's own thread, between the bytecodes of the request it
interrupts, so the probe meets the same contention as that request. No change to turnpoint can make
the probe faster or slower. A slowdown is a mean probe time over
`REFERENCE_S`, and a time divided by it is scaled to the probe's speed on
an idle host. `local_slowdown` takes the probes during one request and
`CONTEXT` on each side of it, so a request of a few milliseconds, which
few probes or none interrupt, gets the contention of the moment it ran.
The handler's own time is counted in `spent`, so the caller can take it
out of the request it interrupted.
"""

from __future__ import annotations

import math
import operator
import signal
import statistics
import time

clock = time.perf_counter

PERIOD = 0.02
CONTEXT = 10  # probes, 0.2 s
# the probe's time on an idle host, about the fastest probe seen on a shared
# 2-core VM (Python 3.11); it sets the scale of the times, not their spread
REFERENCE_S = 220e-6

_OPS = {"+": operator.add, "*": operator.mul, "^": operator.pow}
_TREE = ("+", ("*", 0.5, ("^", "x", 2.0)), ("*", 0.25, ("abs", "x")))


def _linear(x: float, coef: dict) -> float:
    return coef["a"] * x + coef["b"] if x > 0.0 else -x


def _walk(node, x: float) -> float:
    if node == "x":
        return x
    if isinstance(node, float):
        return node
    if node[0] == "abs":
        return abs(_walk(node[1], x))
    return _OPS[node[0]](_walk(node[1], x), _walk(node[2], x))


def _work() -> float:
    total = sum([math.sin(0.01 * i) * 1.5 for i in range(600)])
    coef = {"a": 1.5, "b": 0.25}
    for i in range(300):
        total += _linear(i * 0.1 - 3.0, coef) + math.sqrt(i + 1.0)
    lo, hi = 0.0, 3.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _walk(_TREE, mid) > 1.0 else (mid, hi)
    return total + lo


class Probe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler

    def _handler(self, signum, frame) -> None:
        t = clock()
        _work()
        dt = clock() - t
        self.samples.append(dt)
        self.spent += clock() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """Mean probe time over the reference; 1.0 before the first probe."""
        return statistics.fmean(self.samples) / REFERENCE_S if self.samples else 1.0

    def local_slowdown(self, first: int, end: int) -> float:
        """The slowdown over probes `first` to `end` (exclusive; the lengths
        of `samples` when a request started and ended) and `CONTEXT` on
        each side."""
        window = self.samples[max(0, first - CONTEXT):end + CONTEXT]
        return statistics.fmean(window) / REFERENCE_S if window else self.slowdown()
