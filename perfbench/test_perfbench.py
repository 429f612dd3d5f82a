"""Self-tests of the benchmark: checker, generator, tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import subprocess
import sys

import pytest

import checks
import run
import workloads

MOD = run.bootstrap()


def _first(workload: str, seed: int, n: int) -> list:
    return list(itertools.islice(workloads.stream(workload, seed), n))


def _first_op(workload: str, op: str):
    return next(r for r in workloads.stream(workload, 1) if r.op == op)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_repeats_for_a_seed_and_differs_across_seeds(workload):
    assert _first(workload, 3, 40) == _first(workload, 3, 40)
    assert _first(workload, 3, 40) != _first(workload, 4, 40)


def _solve_doc(req) -> dict:
    outcome = run.execute(req, MOD)
    checks.check(req, outcome)  # the unperturbed output passes
    return json.loads(outcome[1][1])


def _with_doc(doc: dict) -> tuple:
    return "ok", (0, json.dumps(doc))


def test_checker_rejects_a_perturbed_energy():
    req = next(r for r in workloads.stream("closed-form", 1)
               if r.op == "solve" and r.well.family == "sho")
    doc = _solve_doc(req)
    doc["ground_state"]["energy"] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailure, match="ground"):
        checks.check(req, _with_doc(doc))
    doc = _solve_doc(req)
    doc["levels"][-1]["energy"] *= 1.0 - 1e-6
    with pytest.raises(checks.CheckFailure):
        checks.check(req, _with_doc(doc))


def test_checker_rejects_a_perturbed_expression_level():
    req = _first("expr-solve", 1, 5)
    req = next(r for r in req if "domain=0.0" in r.argv[2])  # axb/parab: cheapest
    doc = _solve_doc(req)
    doc["levels"][0]["energy"] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailure):
        checks.check(req, _with_doc(doc))


def test_expr_solve_blocks_form_latin_squares_of_template_and_rho():
    block = workloads.BLOCK["expr-solve"]
    reqs = _first("expr-solve", 2, 6 * block)
    pairs = []
    for start in range(0, len(reqs), block):
        rhos = []
        for req in reqs[start:start + block]:
            well = req.well
            lo, hi = map(float, req.argv[2].split("domain=")[1].split(".."))
            floor = workloads._u(well.family, well.p, workloads._x_min(well.family, well.p)) if lo == 0.0 else 0.0
            rho = round((workloads._u(well.family, well.p, hi) - floor) * (hi - lo) ** 2 / workloads._WINDOW, 3)
            assert rho in workloads._RHOS
            if well.family in workloads._SYMMETRIC:
                rhos.append(rho)
                pairs.append((well.family, rho))
        assert sorted(rhos) == sorted(workloads._RHOS)
    square = sorted((t, r) for t in workloads._SYMMETRIC for r in workloads._RHOS)
    assert sorted(pairs[:9]) == square and sorted(pairs[9:]) == square


def test_checker_rejects_a_perturbed_oracle_value():
    req = workloads.Request("compare", ("compare", "--potential", "isw:L=1.0", "--n-max", "2",
                                        "--variant", "general"), workloads.Well("isw", (("L", 1.0),)))
    doc = _solve_doc(req)
    doc["comparison"][1]["reference_value"] *= 1.0 + 1e-2
    with pytest.raises(checks.CheckFailure, match="Numerov"):
        checks.check(req, _with_doc(doc))


def test_checker_rejects_a_broken_scatter_identity_and_bad_documents():
    req = _first_op("closed-form", "scatter")
    doc = _solve_doc(req)
    doc["records"][-1]["R"] += 1e-6
    with pytest.raises(checks.CheckFailure, match="T0\\+R"):
        checks.check(req, _with_doc(doc))
    with pytest.raises(checks.CheckFailure, match="JSON"):
        checks.check(req, ("ok", (0, '{"u0": NaN}')))
    with pytest.raises(checks.CheckFailure, match="malformed"):
        checks.check(req, ("ok", (0, '{"u0": 1}')))


def test_exact_spectra_match_known_values():
    well = workloads.Well
    assert checks.exact_spectrum(well("sho", (("omega", 1.0),)), 1.0, 1.0, 2) == 2.5
    # V-well ground state, about 0.8086 for hbar = m = U0 = 1
    vwell = checks.exact_spectrum(well("vwell", (("u0", 1.0),)), 1.0, 1.0, 0)
    assert vwell == pytest.approx(0.8086, abs=1e-4)
    # cot^2 with u0 -> 0 tends to the square well of width a
    trig = checks.exact_spectrum(well("trig", (("u0", 1e-12), ("a", 1.0))), 1.0, 1.0, 1)
    assert trig == pytest.approx(checks.exact_spectrum(well("isw", (("L", 1.0),)), 1.0, 1.0, 1))


def test_airy_zero_table_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for derivative, zeros in checks.AIRY_ZEROS.items():
        for j, z in enumerate(zeros, 1):
            assert z == float(mpmath.airyaizero(j, derivative=derivative))


def _attributes() -> dict:
    return {(name, attr): value for name, module in MOD.items() for attr, value in vars(module).items()}


def test_traced_run_restores_every_wrapped_attribute():
    before = _attributes()
    batch = _first("closed-form", 1, 10) + [workloads.WARMUP["expr-solve"]]
    tracer, plain, traced = run.traced_run(MOD, batch)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not plain.failures and not traced.failures
    assert tracer.calls["cli.main"] == 11


def test_measured_run_sends_whole_blocks_and_stops_its_probe():
    client = run.measured_run(MOD, workloads.stream("closed-form", 1), workloads.BLOCK["closed-form"], 1e-3)
    assert len(client.latencies) == workloads.BLOCK["closed-form"]
    assert not client.failures
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def _per_layer(workload: str, n: int) -> dict:
    tracer, _, _ = run.traced_run(MOD, _first(workload, 1, n))
    return tracer.metrics(1.0, 1.0)


def test_closed_form_makes_no_potential_evaluations():
    assert _per_layer("closed-form", 20)["potentials.u_evals_per_level"] == 0


@pytest.mark.parametrize("workload, keys", [
    ("expr-solve", ("potentials.u_evals_per_level", "numerics.scans_per_level")),
    ("oracle-compare", ("reference.passes_per_level",)),
])
def test_traced_counts_repeat_exactly(workload, keys):
    first, second = _per_layer(workload, 1), _per_layer(workload, 1)
    for key in keys:
        assert first[key] > 0
        assert first[key] == second[key]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_request_passes_its_check(workload):
    req = workloads.WARMUP[workload]
    checks.check(req, run.execute(req, MOD))
