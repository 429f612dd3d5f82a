"""turnpoint benchmark: one workload, one client, one thread, closed loop.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from `src/`. With
`--trace 0` the client sends the workload's requests to turnpoint in-process
in whole blocks, for about `--seconds` seconds of request time, checks every
output, and reports the end-to-end metrics, with times scaled to the host's
speed as `hostspeed.py` measures it. With `--trace 1` it runs a fixed number
of requests (set by the seed and `--seconds` only, so counts repeat exactly)
once plain and once with the layer wrappers of `tracer.py` installed, and
reports the per-layer metrics. The last line of stdout is the JSON result;
the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from hostspeed import Probe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("cli", "solver", "numerics", "potentials", "expressions", "reference", "scattering")
SETUP_SAMPLES = 3  # fresh processes before the measurement, and as many after it

clock = time.perf_counter


def bootstrap() -> dict:
    """Import turnpoint from the checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "turnpoint" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no turnpoint sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"turnpoint.{name}") for name in LAYERS}
    if Path(modules["cli"].__file__).resolve().parent != src / "turnpoint":
        raise SystemExit(f"perfbench: turnpoint was imported from {modules['cli'].__file__}")
    return modules


def execute(req, mod: dict):
    """One request, in-process: ("ok", (exit code, stdout)) or ("raised", exception)."""
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mod["cli"].main(list(req.argv))
        return "ok", (code, out.getvalue())
    except (Exception, SystemExit) as exc:  # argparse exits; count it, keep going
        return "raised", exc


def out_bytes(outcome) -> int:
    status, value = outcome
    return len(value[1].encode("utf-8")) if status == "ok" else 0


class Client:
    """Sends requests one at a time and keeps latencies and failures. With a
    running `Probe`, the probe's time inside a request is taken out of it,
    and `normalized` gives each latency over its local host slowdown."""

    def __init__(self, mod: dict, probe: Probe | None = None):
        self.mod = mod
        self.probe = probe
        self.latencies: list[float] = []
        self.probe_spans: list[tuple[int, int]] = []
        self.failures: list[str] = []
        self.busy = 0.0  # seconds of request time

    def send(self, req, tracer=None) -> None:
        sid = tracer.begin_request() if tracer else None
        spent = self.probe.spent if self.probe else 0.0
        first = len(self.probe.samples) if self.probe else 0
        t = clock()
        outcome = execute(req, self.mod)
        dt = clock() - t
        if self.probe:
            dt -= self.probe.spent - spent
            self.probe_spans.append((first, len(self.probe.samples)))
        if tracer:
            tracer.end_request(sid, out_bytes(outcome))
        self.latencies.append(dt)
        self.busy += dt
        try:
            checks.check(req, outcome)
        except checks.CheckFailure as exc:
            self.failures.append(f"{' '.join(req.argv)}: {exc}")

    def normalized(self) -> list[float]:
        return [dt / self.probe.local_slowdown(*span) for dt, span in zip(self.latencies, self.probe_spans)]


def traced_run(mod: dict, batch: list) -> tuple[Tracer, Client, Client]:
    """Send the batch plain, then again with the layer wrappers installed.
    Each client has its own probe, so the two can be compared at the same
    host speed."""
    plain = Client(mod, Probe())
    plain.probe.start()
    try:
        for req in batch:
            plain.send(req)
    finally:
        plain.probe.stop()
    tracer, traced = Tracer(mod), Client(mod, Probe())
    tracer.install()
    traced.probe.start()
    try:
        for req in batch:
            traced.send(req, tracer)
    finally:
        traced.probe.stop()
        tracer.restore()
    return tracer, plain, traced


def measured_run(mod: dict, requests, block: int, seconds: float) -> Client:
    """Send whole blocks until `seconds` of request time are nearest: the
    run stops after the block at which the next one would overshoot more
    than stopping undershoots, so every block's mix is measured whole."""
    client = Client(mod, Probe())
    client.probe.start()
    try:
        for blocks in itertools.count(1):
            for req in itertools.islice(requests, block):
                client.send(req)
            if client.busy + 0.5 * client.busy / blocks >= seconds:
                return client
    finally:
        client.probe.stop()


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with ten samples beyond it, and its percentile: the
    highest percentile that still has at least ten samples beyond it. With
    fewer than eleven samples there is none, and the maximum is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(args) -> list[tuple[float, float]]:
    """Wall times of fresh processes that start, import turnpoint, generate
    the inputs and serve the warm-up request, each without the time of its
    own probe, with the slowdown that probe saw."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t = clock()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = clock() - t
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up process failed: {done.stderr[-500:]}")
        probe = json.loads(done.stdout.splitlines()[-1])
        samples.append((wall - probe["spent"], probe["slowdown"]))
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_probe = Probe()
        setup_probe.start()

    mod = bootstrap()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    nominal = workloads.NOMINAL_REQUEST_S[args.workload]
    block = workloads.BLOCK[args.workload]
    # inputs are drawn lazily, between requests and outside the timed region
    requests = workloads.stream(args.workload, args.seed)
    execute(workloads.WARMUP[args.workload], mod)
    if args.setup_only:
        setup_probe.stop()
        print(json.dumps({"spent": setup_probe.spent, "slowdown": setup_probe.slowdown()}))
        return 0
    # A full collection walks every tracked object, and the modules and
    # numpy hold about 10^5 of them: in this long loop each one added 10 ms
    # or more to whichever request it landed on, which a CLI process that
    # serves one request never pays. What exists after set-up is frozen, so
    # collections walk only objects made since.
    gc.collect()
    gc.freeze()

    head = f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    if args.trace:
        # whole blocks, about a quarter of --seconds untraced on the seed
        count = block * max(1, math.ceil(args.seconds / 4 / nominal / block))
        batch = list(itertools.islice(requests, count))
        tracer, plain, traced = traced_run(mod, batch)
        metrics = tracer.metrics(plain.busy / plain.probe.slowdown(), traced.busy / traced.probe.slowdown())
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        failures = plain.failures + traced.failures
        attempted = 2 * count
        lines = [f"{head}: {count} requests plain ({plain.busy:.2f} s, host slowdown "
                 f"{plain.probe.slowdown():.3f}), then traced ({traced.busy:.2f} s, {traced.probe.slowdown():.3f})"]
        lines += [f"  {name:36s} {value:.6g}" for name, value in metrics.items()]
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    else:
        # the host's speed changes over tens of seconds, so set-up is timed
        # both before and after the measurement
        setup = measure_setup(args)
        client = measured_run(mod, requests, block, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = measure_setup(args) + setup
        # every time is divided by the host slowdown its own probe saw
        slowdown = client.probe.slowdown()
        setup_s = statistics.median(wall / slow for wall, slow in setup)
        lat = client.normalized()
        attempted = len(lat)
        failures = client.failures
        tail_s, tail_pct = tail(lat)
        raw_tail_s, _ = tail(client.latencies)
        metrics = {
            "setup_s": setup_s,
            "throughput_rps": attempted / math.fsum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
        lines = [
            f"{head}: {attempted} requests in {client.busy:.2f} s of request time, host slowdown "
            f"{slowdown:.4f} ({len(client.probe.samples)} probes); raw times in brackets",
            f"  setup_s          {setup_s:.4f} s (median of {len(setup)} fresh processes; "
            f"[{statistics.median(wall for wall, _ in setup):.4f}])",
            f"  throughput_rps   {metrics['throughput_rps']:.4f} 1/s [{attempted / client.busy:.4f}]",
            f"  latency_p50_ms   {metrics['latency_p50_ms']:.4f} ms [{statistics.median(client.latencies) * 1e3:.4f}]",
            f"  latency_tail_ms  {metrics['latency_tail_ms']:.4f} ms [{raw_tail_s * 1e3:.4f}] "
            f"(p{tail_pct:.2f} of {attempted} requests, {min(10, attempted - 1)} beyond it)",
            f"  failed_frac      {len(failures) / attempted:.6g} ({len(failures)} of {attempted})",
            f"  peak_rss_mb      {peak_rss_mb:.2f} MB",
        ]
    for failure in failures[:5]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
