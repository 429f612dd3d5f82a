"""Command-line interface: subcommands, config layering, exit codes, output."""

import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnpoint import cli, numerics, solver
from turnpoint.potentials import UnitSystem


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


class TestSolve:
    def test_sho_document_shape(self, capsys):
        doc = run_json(["solve", "--potential", "sho:omega=1"], capsys)
        assert set(doc) == {"potential", "units", "ground_state", "levels"}
        assert doc["units"] == {"hbar": 1, "mass": 1}
        gs = doc["ground_state"]
        assert set(gs) == {"energy", "d", "x0", "bound", "residual"}
        assert gs["bound"] is True
        assert gs["energy"] == pytest.approx(0.5, rel=1e-8)

    def test_levels_sorted_within_n(self, capsys):
        doc = run_json(["solve", "--potential", "sho:omega=1", "--n-max", "2"], capsys)
        assert len(doc["levels"]) == 6  # three variants per n
        for lv in doc["levels"]:
            assert set(lv) == {"n", "variant", "energy", "K", "d", "x0", "residual"}

    def test_single_variant(self, capsys):
        doc = run_json(
            ["solve", "--potential", "isw:L=1", "--variant", "general", "--n-max", "4"], capsys
        )
        energies = [lv["energy"] for lv in doc["levels"]]
        expected = [n * n * math.pi ** 2 / 2.0 for n in range(1, 5)]
        assert energies == pytest.approx(expected, rel=1e-9)

    def test_unit_overrides(self, capsys):
        doc = run_json(["solve", "--potential", "sho:omega=2", "--hbar", "3", "--mass", "5"], capsys)
        assert doc["ground_state"]["energy"] == pytest.approx(3.0, rel=1e-8)

    def test_expression_potential(self, capsys):
        doc = run_json(["solve", "--potential", "expr:0.5*x^2;domain=-12..12"], capsys)
        assert doc["ground_state"]["energy"] == pytest.approx(0.5, rel=1e-8)

    def test_floats_are_full_precision(self, capsys):
        code, out, _ = run(["solve", "--potential", "isw:L=3"], capsys)
        assert code == 0
        gs_line = next(line for line in out.splitlines() if '"energy"' in line)
        digits = gs_line.split(":")[1].strip().rstrip(",")
        assert float(digits) == json.loads(out)["ground_state"]["energy"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, out, _ = run(["solve", "--potential", "isw:L=1", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["ground_state"]["energy"] == pytest.approx(2.0, rel=1e-10)

    def test_each_q_is_solved_once(self, capsys, monkeypatch):
        calls = []
        excited = solver.excited_energy

        def counted(spec, level, *args, **kwargs):
            calls.append(level.q)
            return excited(spec, level, *args, **kwargs)

        monkeypatch.setattr(solver, "excited_energy", counted)
        doc = run_json(["solve", "--potential", "sho:omega=1", "--n-max", "3", "--variant", "all"], capsys)
        assert calls == [1, 2, 3, 4, 5, 6]  # for 9 levels
        assert len(doc["levels"]) == 9

    @pytest.mark.parametrize("spec, ground, level", [
        # E_q = q^2 pi^2 hbar^2 / (2 m L^2), ground 2 hbar^2 / (m L^2)
        ("isw:L=1e-4", 2e8, lambda q: q * q * math.pi ** 2 / 2e-8),
        ("isw:L=1e-8", 2e16, lambda q: q * q * math.pi ** 2 / 2e-16),
        ("isw:L=1e-150", 2e300, lambda q: q * q * math.pi ** 2 / 2e-300),
        # E_q = q pi hbar omega / 4, ground hbar omega / 2
        ("sho:omega=1e8", 5e7, lambda q: q * math.pi * 1e8 / 4.0),
        ("sho:omega=1e12", 5e11, lambda q: q * math.pi * 1e12 / 4.0),
        # low-energy twins: the root tolerance follows the energy scale
        ("sho:omega=1e-9", 5e-10, lambda q: q * math.pi * 1e-9 / 4.0),
        # E_q = (q pi u0 / (2 sqrt 2))^(2/3), ground (u0^2 / 2)^(1/3)
        ("vwell:u0=1e-14", (1e-28 / 2.0) ** (1.0 / 3.0), lambda q: (q * math.pi * 1e-14 / (2.0 * math.sqrt(2.0))) ** (2.0 / 3.0)),
    ])
    def test_narrow_wells_at_high_energy(self, spec, ground, level, capsys):
        # the width guard compares d with the well's length scale, not with E
        doc = run_json(["solve", "--potential", spec, "--n-max", "2", "--variant", "all"], capsys)
        assert doc["ground_state"]["energy"] == pytest.approx(ground, rel=1e-10, abs=0.0)
        q = {"symmetric": lambda n: 2 * n - 1, "antisymmetric": lambda n: 2 * n, "general": lambda n: n}
        for lv in doc["levels"]:
            assert lv["energy"] == pytest.approx(level(q[lv["variant"]](lv["n"])), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("expr, family, n_max", [
        # levels reach past the 10-fold step of the geometric scan from E_lo
        ("expr:abs(x);domain=-5..5", "vwell:u0=1", "3"),
        ("expr:1/x^2+x^2;domain=0..5", "axb:a=1,b=1", "4"),
    ])
    def test_expression_levels_above_the_lowest_match_the_family(self, expr, family, n_max, capsys):
        argv = ["--n-max", n_max, "--variant", "all"]
        got = run_json(["solve", "--potential", expr, *argv], capsys)
        want = run_json(["solve", "--potential", family, *argv], capsys)
        pairs = [(got["ground_state"], want["ground_state"]), *zip(got["levels"], want["levels"])]
        assert len(pairs) == 1 + 3 * int(n_max)
        for a, b in pairs:
            assert a["energy"] == pytest.approx(b["energy"], rel=1e-12)

    def test_a_step_that_raises_caps_the_climb(self, capsys, monkeypatch):
        # q = 10 lies at 7.854, just under U(+-4) = 8; the climb from q = 9 steps
        # past U(+-4), where the energy has no turning points, and halves its
        # steps back toward that cap until they bracket the level
        calls = [0]
        search = numerics.solve_self_consistent

        def counted(*args, **kwargs):
            calls[0] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(numerics, "solve_self_consistent", counted)
        argv = ["--n-max", "5", "--variant", "all"]
        got = run_json(["solve", "--potential", "expr:0.5*x^2;domain=-4..4", *argv], capsys)
        assert calls[0] == 1  # the ground level only: every level above it climbs from the one below
        want = run_json(["solve", "--potential", "sho:omega=1", *argv], capsys)
        top = [(a, b) for a, b in zip(got["levels"], want["levels"]) if a["variant"] == "antisymmetric" and a["n"] == 5]
        assert len(top) == 1 and top[0][0]["energy"] == pytest.approx(7.853981634, rel=1e-10)
        for a, b in zip(got["levels"], want["levels"]):
            assert a["energy"] == pytest.approx(b["energy"], rel=1e-10)

    def test_a_level_above_the_rim_climbs_once_from_the_level_below(self, capsys, monkeypatch):
        # U(+-2) = 2 lies between q = 2 at pi/2 and q = 3 at 3 pi/4: the climb from
        # q = 2 steps past the rim, where there are no turning points, and fails
        spec = "expr:0.5*x^2;domain=-2..2"
        below = run_json(["solve", "--potential", spec, "--n-max", "2", "--variant", "general"], capsys)
        starts = []
        climb = numerics.bracket_roots

        def spy(g, lo, *args):
            starts.append(lo)
            return climb(g, lo, *args)

        monkeypatch.setattr(numerics, "bracket_roots", spy)
        code, out, err = run(["solve", "--potential", spec, "--n-max", "5", "--variant", "general"], capsys)
        assert (code, out) == (3, "")
        levels = [below["ground_state"]["energy"], *(lv["energy"] for lv in below["levels"])]
        assert starts[1:] == levels  # e_lo, then one climb from each level below q = 3
        assert err.startswith(f"turnpoint: convergence failure: no sign change of the residual on [{levels[-1]!r}, ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["axb:a=7.63e+17,b=1.495e-13", "--n-max", "3", "--variant", "symmetric"],
        ["axb:a=6.237e+25,b=7.95e-17", "--n-max", "2", "--variant", "all"],
    ])
    def test_axb_far_above_its_minimum_solves(self, argv, capsys):
        # E^2 >> 4ab at these levels: the inner turning point must not cancel
        doc = run_json(["solve", "--potential", *argv], capsys)
        assert doc["levels"] and all(math.isfinite(lv["energy"]) for lv in doc["levels"])

    def test_ground_just_above_a_steep_minimum_solves(self, capsys):
        # there 2 hbar^2 / (m d^2) moves by about 1.5 per two ulps of E, so the
        # ground's check |E - 2 hbar^2 / (m d^2)| <= 0.74 holds only at the float
        # nearest the root: Brent must refine the level to about 1e-15 of E
        doc = run_json(["solve", "--potential", "axb:a=3.51e13,b=389500", "--n-max", "1"], capsys)
        assert doc["ground_state"]["residual"] <= 1e-10 * (1.0 + doc["ground_state"]["energy"])

    def test_a_domain_end_is_still_not_a_turning_point(self, capsys):
        code, out, _ = run(["solve", "--potential", "expr:0*x;domain=0..1", "--n-max", "1", "--variant", "general"], capsys)
        assert (code, out) == (3, "")


class TestWavefunction:
    def test_csv_header_and_row_count(self, capsys):
        code, out, _ = run(
            ["wavefunction", "--potential", "isw:L=1", "--n", "1",
             "--variant", "general", "--samples", "11"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,psi"
        assert len(lines) == 12
        for line in lines[1:]:
            x_text, psi_text = line.split(",")
            float(x_text), float(psi_text)

    def test_values_match_textbook_box_state(self, capsys):
        code, out, _ = run(
            ["wavefunction", "--potential", "isw:L=1", "--n", "1",
             "--variant", "general", "--samples", "241"],
            capsys,
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            x, psi = (float(tok) for tok in line.split(","))
            expected = math.sqrt(2.0) * math.sin(math.pi * x) if 0.0 <= x <= 1.0 else 0.0
            assert abs(abs(psi) - abs(expected)) < 1e-8

    def test_n_beyond_n_max_is_invalid(self, capsys):
        code, _, err = run(
            ["wavefunction", "--potential", "isw:L=1", "--n", "9", "--variant", "general"],
            capsys,
        )
        assert code == 4
        assert "invalid input" in err

    @pytest.mark.parametrize("samples", ["1000001", "100000000"])
    def test_too_many_samples_is_4_before_any_work(self, samples, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("solved a level for a refused sample count")

        monkeypatch.setattr(cli.solver, "excited_energy", fail)
        code, out, err = run(
            ["wavefunction", "--potential", "isw:L=1", "--variant", "general", "--samples", samples],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err == f"turnpoint: invalid input: samples must be <= 1000000, got {samples}\n"


class TestScatter:
    def test_single_energy_record(self, capsys):
        doc = run_json(["scatter", "--u0", "1", "--energy", "1"], capsys)
        (rec,) = doc["records"]
        assert rec["regime"] == "at_barrier"
        assert rec["R"] == 0.2
        assert rec["T0"] == 0.8
        assert rec["standard_R"] == 1.0
        assert rec["raw_subbarrier_R"] == {"value": 0.2, "non_physical": True}

    def test_sub_barrier_record(self, capsys):
        doc = run_json(["scatter", "--u0", "1", "--energy", "0.25"], capsys)
        (rec,) = doc["records"]
        assert rec["regime"] == "below_barrier"
        assert rec["R"] == 1.0
        assert rec["T0"] == 0.0
        assert rec["T_at_x"] == 0.0
        assert rec["raw_subbarrier_R"]["non_physical"] is True

    def test_energy_sweep(self, capsys):
        doc = run_json(
            ["scatter", "--u0", "1", "--e-min", "1", "--e-max", "10", "--e-count", "10"], capsys
        )
        assert len(doc["records"]) == 10
        above = [rec for rec in doc["records"] if rec["regime"] == "above_barrier"]
        assert len(above) == 9

    def test_probe_position(self, capsys):
        doc = run_json(["scatter", "--u0", "1", "--energy", "4", "--x", "1.0"], capsys)
        (rec,) = doc["records"]
        a = math.sqrt(2.0)  # m1 sqrt(U0)
        assert rec["T_at_x"] == pytest.approx(rec["T0"] * math.exp(-2.0 * a), rel=1e-12)

    @pytest.mark.parametrize("probe,t_at_x", [([], 6.0 / 7.0), (["--x", "1"], 0.0)])
    def test_overflowing_wavenumber_scale_is_strict_json(self, probe, t_at_x, capsys):
        # hbar = 1e-310 makes m1 = sqrt(2m)/hbar inf, so K and a are inf; m1
        # cancels from R, T0, T(0) and the textbook R, and T(x > 0) is exp(-inf)
        code, out, err = run(["scatter", "--u0", "2", "--energy", "3", "--hbar", "1e-310", *probe], capsys)
        assert (code, err) == (0, "")
        (rec,) = json.loads(out, parse_constant=_reject_constant)["records"]
        assert rec["R"] == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert rec["T_at_x"] == pytest.approx(t_at_x, rel=1e-15)
        assert rec["standard_R"] == pytest.approx(7.0 - 4.0 * math.sqrt(3.0), rel=1e-13)

    def test_missing_energy_is_invalid(self, capsys):
        code, _, err = run(["scatter", "--u0", "1"], capsys)
        assert code == 4

    def test_missing_u0_is_invalid(self, capsys):
        code, _, _ = run(["scatter", "--energy", "1"], capsys)
        assert code == 4

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_probe_is_4(self, x, capsys):
        code, out, err = run(["scatter", "--u0", "1", "--energy", "2", "--x", x], capsys)
        assert (code, out) == (4, "")
        assert err == f"turnpoint: invalid input: x probe must be finite, got {x}\n"

    def test_too_many_energies_is_4_before_any_work(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built the energies of a refused count")

        monkeypatch.setattr(cli.np, "linspace", fail)
        count = str(cli.MAX_SAMPLES + 1)
        code, out, err = run(
            ["scatter", "--u0", "1", "--e-min", "1", "--e-max", "2", "--e-count", count], capsys
        )
        assert (code, out) == (4, "")
        assert err == f"turnpoint: invalid input: e-count must be <= 1000000, got {count}\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--u0", "inf", "--energy", "2"], "--u0 must be finite, got inf"),
            (["--u0", "nan", "--energy", "2"], "--u0 must be finite, got nan"),
            (["--u0", "1", "--e-min", "1", "--e-max", "inf", "--e-count", "3"], "--e-max must be finite, got inf"),
            (["--u0", "1", "--e-min=-inf", "--e-max", "1", "--e-count", "3"], "--e-min must be finite, got -inf"),
            (["--u0", "1", "--e-min", "nan", "--e-max", "1", "--e-count", "3"], "--e-min must be finite, got nan"),
            (["--u0", "1", "--e-min", "1", "--e-max", "nan", "--e-count", "3"], "--e-max must be finite, got nan"),
            (["--u0", "1", "--energy", "2", "--energy", "inf"], "--energy must be finite, got inf"),
            (["--u0", "1", "--energy", "nan"], "--energy must be finite, got nan"),
            # argparse alone reads a word that starts with '-' after a flag as a flag
            (["--u0", "1", "--energy", "-inf"], "--energy must be finite, got -inf"),
            (["--u0", "-Infinity", "--energy", "2"], "--u0 must be finite, got -inf"),
            (["--u0", "1", "--e-min", "-NaN", "--e-max", "1", "--e-count", "3"], "--e-min must be finite, got nan"),
            (["--u0", "1", "--e-min", "1", "--e-max", "-inf", "--e-count", "3"], "--e-max must be finite, got -inf"),
            # nor does it take -1e-3 or -1. for a number
            (["--u0", "1", "--energy", "2", "--x", "-1e-3"], "x probe must be >= 0, got -0.001"),
            (["--u0", "1", "--energy", "2", "--x", "-1."], "x probe must be >= 0, got -1.0"),
            (["--u0", "-1e-3", "--energy", "2"], "u0 must be positive, got -0.001"),
            (["--u0", "1", "--energy", "2", "--hbar", "-1e5"], "hbar must be positive, got -100000.0"),
        ],
    )
    def test_non_finite_range_or_u0_is_4_before_any_work(self, flags, message, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built the energies of a refused range")

        monkeypatch.setattr(cli.np, "linspace", fail)
        code, out, err = run(["scatter", *flags], capsys)
        assert (code, out) == (4, "")
        assert err == f"turnpoint: invalid input: {message}\n"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


class TestScatterProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        _POSITIVE,
        st.lists(_POSITIVE, min_size=1, max_size=5),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    def test_strict_json_and_unit_sum(self, u0, energies, x):
        doc = cli.run_scatter(u0, energies, x, UnitSystem())
        parsed = json.loads(cli.to_json(doc), parse_constant=_reject_constant)
        assert len(parsed["records"]) == len(energies)
        for record in doc["records"]:
            # T0 = 1 - R is one rounding, so the exact sum is within half an ulp of 1
            assert abs(Fraction(record["T0"]) + Fraction(record["R"]) - 1) <= Fraction(math.ulp(1.0)) / 2


# expression wells and their built-in twins: (source, family, U floor, domain
# whose rim U(ends) is u); the axb twin keeps its pole at the domain's left end
_TWINS = [
    ("abs(x)", "vwell:u0=1", 0.0, lambda u: (-u, u)),
    ("0.5*x^2", "sho:omega=1", 0.0, lambda u: (-math.sqrt(2.0 * u), math.sqrt(2.0 * u))),
    ("1/x^2+x^2", "axb:a=1,b=1", 2.0, lambda u: (0.0, math.sqrt(0.5 * (u + math.sqrt(u * u - 4.0))))),
]


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _family_doc(family, *argv):
    code, out, err = _run_quietly(["solve", "--potential", family, *argv])
    assert code == 0, err
    return json.loads(out)


class TestExpressionTwins:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(_TWINS),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=5),
        st.sampled_from(["general", "symmetric", "antisymmetric", "all"]),
    )
    def test_levels_match_the_family_or_sit_at_the_domain_ends(self, twin, t, n_max, variant):
        # the rim U(ends) lands anywhere from half the ground energy to 1.5 times
        # level 5 of the antisymmetric branch (q = 10), measured from the floor
        source, family, floor, domain = twin
        argv = ["--n-max", str(n_max), "--variant", variant]
        ladder = _family_doc(family, "--n-max", "5", "--variant", "antisymmetric")
        low = 0.5 * (ladder["ground_state"]["energy"] - floor)
        high = 1.5 * (ladder["levels"][-1]["energy"] - floor)
        lo, hi = domain(floor + low * (high / low) ** t)
        code, out, err = _run_quietly(["solve", "--potential", f"expr:{source};domain={lo!r}..{hi!r}", *argv])
        want = _family_doc(family, *argv)
        wanted = [want["ground_state"], *want["levels"]]
        if code == 3:  # only where a wanted level's turning points reach the domain's ends
            margin = (hi - lo) / 1000.0
            assert any(w["x0"] - w["d"] / 2 - lo < margin or hi - w["x0"] - w["d"] / 2 < margin for w in wanted), err
            return
        assert code == 0, err
        got = json.loads(out)
        for a, b in zip([got["ground_state"], *got["levels"]], wanted, strict=True):
            assert a["energy"] == pytest.approx(b["energy"], rel=1e-10)


class TestCompare:
    def test_isw_rows_and_ratio(self, capsys):
        code, out, err = run(
            ["compare", "--potential", "isw:L=1", "--variant", "general", "--n-max", "3"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        ground_row = doc["comparison"][0]
        assert ground_row["erbil_index"] == "ground"
        assert ground_row["reference_node_count"] == 0
        assert ground_row["rel_diff"] == pytest.approx(0.5947, abs=2e-3)
        assert ground_row["ratio_reference_over_erbil"] == pytest.approx(math.pi ** 2 / 4.0, abs=3e-3)
        for row in doc["comparison"][1:]:
            assert row["rel_diff"] < 1e-6
        assert "rel_diff" in err  # rendered table goes to stderr

    def test_vwell_shows_variational_comparator(self, capsys):
        doc = run_json(
            ["compare", "--potential", "vwell:u0=1", "--variant", "symmetric", "--n-max", "1"],
            capsys,
        )
        est = doc["known_ground_state_estimate"]
        assert est["method"] == "variational"
        assert est["value"] == pytest.approx(0.813, abs=5e-4)


class TestConfigLayering:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential = isw:L=1\nn-max = 2  # two levels\nvariant = general\n")
        doc = run_json(["solve", "--config", str(cfg)], capsys)
        assert len(doc["levels"]) == 2

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential = isw:L=1\nvariant = general\nn_max = 2\n")
        doc = run_json(["solve", "--config", str(cfg), "--n-max", "1"], capsys)
        assert len(doc["levels"]) == 1

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential isw:L=1\n")
        code, _, err = run(["solve", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "command, lines, key, value",
        [
            ("solve", "potential = sho:omega=1\nn_max = abc", "n_max", "abc"),
            ("solve", "potential = sho:omega=1\ntol_energy = xyz", "tol_energy", "xyz"),
            ("scatter", "u0 = 1\nenergy = 1,a", "energy", "1,a"),
        ],
    )
    def test_non_numeric_config_value_is_2(self, command, lines, key, value, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines + "\n")
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == f"turnpoint: parse error: config file {cfg}: bad value {value!r} for {key}\n"

    @pytest.mark.parametrize("energies, bad", [("inf", "inf"), ("1,nan", "nan")])
    def test_non_finite_config_energy_names_the_flag(self, energies, bad, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"u0 = 1\nenergy = {energies}\n")
        code, out, err = run(["scatter", "--config", str(cfg)], capsys)
        assert (code, out) == (4, "")
        assert err == f"turnpoint: invalid input: --energy must be finite, got {bad}\n"

    @pytest.mark.parametrize("key, value", [("format", "json"), ("n", "2"), ("nmax", "1")])
    def test_key_no_subcommand_reads_is_2(self, key, value, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"potential = sho:omega=1\n{key} = {value}\n")
        for command in ("solve", "wavefunction", "scatter", "compare"):
            code, out, err = run([command, "--config", str(cfg)], capsys)
            assert (code, out) == (2, "")
            assert err == f"turnpoint: parse error: {cfg}:2: unknown key {key!r}\n"

    def test_key_another_subcommand_reads_is_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential = isw:L=1\nn_max = 1\nu0 = 1\nsamples = 3\n")
        doc = run_json(["solve", "--config", str(cfg)], capsys)
        assert len(doc["levels"]) == 3

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(["solve", "--config", str(tmp_path / "nope.cfg")], capsys)
        assert code == 2

    def test_env_var_sets_energy_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("TURNPOINT_TOL_ENERGY", "1e-6")
        doc = run_json(["solve", "--potential", "sho:omega=1"], capsys)
        assert doc["ground_state"]["energy"] == pytest.approx(0.5, rel=1e-5)

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("TURNPOINT_TOL_ENERGY", "not-a-number")
        code, _, _ = run(
            ["solve", "--potential", "sho:omega=1", "--tol-energy", "1e-10"], capsys
        )
        assert code == 0


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(["solve", "--potential", "bogus:z=1"], capsys)
        assert code == 2
        assert "parse error" in err

    def test_expression_error_is_2(self, capsys):
        code, _, _ = run(["solve", "--potential", "expr:2x;domain=-1..1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("source", ["(" * 200 + "x" + ")" * 200, "-" * 600 + "x", "x" + "+x" * 5000])
    def test_deeply_nested_expression_is_2(self, source, capsys):
        code, out, err = run(["solve", "--potential", f"expr:{source};domain=-1..1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("turnpoint: parse error: expression nested deeper than 100 levels")
        assert err.count("\n") == 1

    def test_step_bound_states_is_4(self, capsys):
        code, _, err = run(["solve", "--potential", "step:u0=1"], capsys)
        assert code == 4
        assert "scatter" in err

    @pytest.mark.parametrize("command", ["solve", "compare", "wavefunction"])
    def test_every_level_command_refuses_the_step(self, command, capsys):
        code, out, err = run([command, "--potential", "step:u0=1"], capsys)
        assert (code, out) == (4, "")
        assert err == "turnpoint: invalid input: the step potential has no bound levels; use the scatter subcommand\n"

    @pytest.mark.parametrize("spec", ["isw:L=1e-300", "isw:L=1e-160", "expr:x^2;domain=0..1e-170"])
    def test_tiny_length_scale_is_4(self, spec, capsys):
        code, out, err = run(["solve", "--potential", spec, "--n-max", "1"], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("turnpoint: invalid input: ") and "gives no finite energy scale" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec, hbar", [("sho:omega=1", "1e200"), ("sho:omega=1", "1e160"), ("isw:L=1", "1e200")])
    def test_huge_hbar_is_4(self, spec, hbar, capsys):
        # hbar^2 overflows: refused by name, not raised from a float power
        code, out, err = run(["solve", "--potential", spec, "--hbar", hbar, "--n-max", "1"], capsys)
        assert (code, out) == (4, "")
        assert err == f"turnpoint: invalid input: hbar={float(hbar)}: hbar^2 overflows\n"
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["axb:a=1e20,b=1e20", "expr:x^2-1e20;domain=-10..10"])
    def test_energy_window_that_rounds_shut_is_3(self, spec, capsys):
        # u_min + 1e-9 * scale and u_min + 1e3 * scale round to the same float
        code, out, err = run(["solve", "--potential", spec], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("turnpoint: convergence failure: u_min=") and "swamps the energy scale" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--potential", "sho:omega=1e-300", "--mass", "1e-300"],
        ["--potential", "vwell:u0=3.765e-28", "--hbar", "1.164e-07", "--mass", "3.75e-297"],
    ])
    def test_length_scale_that_cannot_be_computed_is_4(self, argv, capsys):
        # m * omega (sho) and m * u0 (vwell) underflow to 0 in the length scale
        code, out, err = run(["solve", *argv], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("turnpoint: invalid input: ") and "no length scale" in err
        assert err.count("\n") == 1

    def test_norm_density_past_the_float_range_is_3(self, capsys):
        argv = ["--potential", "parab:u0=2.425e+38,a=0.004617", "--n-max", "2", "--variant", "general"]
        code, out, err = run(["wavefunction", *argv, "--n", "1", "--samples", "5"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("turnpoint: convergence failure: norm integrand is not finite")
        assert err.count("\n") == 1

    def test_norm_quadrature_past_its_panel_budget_is_3(self, capsys):
        # the norm density of this steep trig well needs far more panels than
        # the budget: the quadrature stops there rather than halving for minutes
        argv = ["--potential", "trig:u0=8.719e+23,a=0.01068", "--n-max", "3", "--variant", "general"]
        code, out, err = run(["wavefunction", *argv, "--n", "1", "--samples", "5"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("turnpoint: convergence failure: quadrature needs more than 1000 panels on [")
        assert err.count("\n") == 1

    def test_jump_at_a_vanishing_width_is_no_level(self, capsys):
        # below some energy this well's width falls under the tiny-width floor;
        # a finite residual there once let Brent take the jump at that edge for
        # a root and emit a level with K d = 5875 for pi
        argv = ["--potential", "trig:u0=9.14e+34,a=8.748e+09", "--n-max", "3", "--variant", "symmetric"]
        code, out, err = run(["wavefunction", *argv, "--n", "1", "--samples", "7"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("turnpoint: convergence failure: no sign change of the residual")

    def test_ground_whose_width_squared_underflows_solves(self, capsys):
        # d^2 = 1.9e-333 is subnormal: 2 hbar^2 / (m d^2) once raised ZeroDivisionError at every energy
        hbar, mass, a = 1.113e-19, 1.175e34, 4.315e-167
        argv = ["--potential", f"trig:u0=8.41e+18,a={a}", "--n-max", "2", "--variant", "general"]
        doc = run_json(["solve", *argv, "--hbar", str(hbar), "--mass", str(mass)], capsys)
        assert doc["ground_state"]["energy"] == pytest.approx(2.0 * (hbar / a) ** 2 / mass, rel=1e-12)

    def test_unbound_potential_is_3(self, capsys):
        # monotone ramp: no second turning point, the solve cannot converge
        code, _, _ = run(["solve", "--potential", "expr:x;domain=-5..5"], capsys)
        assert code == 3

    def test_ambiguous_double_well_names_its_cause(self, capsys):
        # below the barrier U(0) = 1 there are four turning points, and above
        # it the residual is already positive: the climb closes in on E = 1
        # from above and finds no sign change
        code, out, err = run(["solve", "--potential", "expr:(x^2-1)^2;domain=-3..3"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("turnpoint: convergence failure: no sign change of the residual")
        assert "41 for AmbiguousWells (found 4 turning points at E=6.08025" in err
        assert err.count("\n") == 1

    def test_a_refinement_that_meets_four_turning_points_is_3(self, capsys):
        # the climb brackets the level; Brent's refinement inside that bracket
        # reaches an energy with four turning points, which the climb steps over
        spec = "expr:0.9502*x^2+0.541*sin(5*x);domain=-7.3869..7.3869"
        code, out, err = run(["solve", "--potential", spec, "--n-max", "1", "--variant", "symmetric"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(
            "turnpoint: convergence failure: refining the level's bracket raised AmbiguousWells (found 4 turning points at E="
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "compare", "wavefunction"])
    @pytest.mark.parametrize("units, named", [
        (["--hbar", "1e-310"], "hbar=1e-310 and mass=1.0"),
        (["--mass", "1e308"], "hbar=1.0 and mass=1e+308"),
    ])
    def test_a_wavenumber_scale_that_overflows_is_4(self, command, units, named, capsys):
        code, out, err = run([command, "--potential", "isw:L=1", *units], capsys)
        assert (code, out) == (4, "")
        assert err == f"turnpoint: invalid input: sqrt(2 m)/hbar overflows for {named}\n"

    def test_negative_u_under_the_root_is_4(self, capsys):
        # U = x^2 - 0.1 dips below 0 inside the well, where Q takes sqrt(U)
        code, out, err = run(
            ["wavefunction", "--potential", "expr:x^2-0.1;domain=-3..3", "--n", "1", "--variant", "general"],
            capsys,
        )
        assert (code, out) == (4, "")
        assert re.fullmatch(
            r"turnpoint: invalid input: Q needs U >= 0 on the well, but U\(\S+\) = -\S+ < 0\n", err
        )

    @pytest.mark.parametrize("samples", ["7", "8"])
    def test_negative_u_min_in_the_well_is_4_at_any_sample_count(self, samples, capsys):
        # U < 0 only on |x| < 7e-19: where the norm's or the samples' points land
        # in that dip once decided the refusal; the minimum scan's x = 0 decides it
        spec = "expr:105400000000000.0*x^2-5.134e-23;domain=-273300.0..273300.0"
        code, out, err = run(
            ["wavefunction", "--potential", spec, "--n-max", "2", "--variant", "general",
             "--n", "1", "--samples", samples],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err == "turnpoint: invalid input: Q needs U >= 0 on the well, but U(0.0) = -5.134e-23 < 0\n"

    def test_steep_walled_trig_well_is_3_in_the_oracle(self, capsys):
        code, out, err = run(
            ["compare", "--potential", "trig:u0=1e10,a=1", "--n-max", "2", "--variant", "general"], capsys
        )
        assert (code, out) == (3, "")
        assert err.startswith("turnpoint: convergence failure: Numerov coefficient c = 1 + h^2 g / 12 is -")
        assert err.count("\n") == 1

    def test_negative_scatter_energy_is_4(self, capsys):
        code, _, _ = run(["scatter", "--u0", "1", "--energy", "-2"], capsys)
        assert code == 4

    @pytest.mark.parametrize("span", ["-inf..inf", "-5..inf", "-inf..5", "nan..5"])
    def test_non_finite_domain_is_2(self, span, capsys):
        code, out, err = run(["solve", "--potential", f"expr:0.5*x^2;domain={span}"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("turnpoint: parse error: domain bounds must be finite")

    @pytest.mark.parametrize("flag", ["--tol-energy", "--tol-quad"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf", "-inf", "-nan", "-1e-3", "-1."])
    def test_inadmissible_tolerance_is_4(self, flag, value, capsys):
        code, out, err = run(["solve", "--potential", "sho:omega=1", flag, value], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("turnpoint: invalid input: ")
        assert err.count("\n") == 1


_LEVEL_FLAGS = [
    ("--potential", "sho:omega=1"),
    ("--n-max", "1"),
    ("--variant", "general"),
    ("--tol-energy", "1e-10"),
    ("--tol-quad", "1e-10"),
]


def exit_code(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestFlagSets:
    @pytest.mark.parametrize("flag, value", _LEVEL_FLAGS)
    def test_scatter_refuses_level_flags(self, flag, value, capsys):
        code, out, err = exit_code(["scatter", "--u0", "1", "--energy", "2", flag, value], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err

    def test_scatter_help_lists_no_level_flag(self, capsys):
        code, out, _ = exit_code(["scatter", "--help"], capsys)
        assert code == 0
        assert "--u0" in out
        for flag, _ in _LEVEL_FLAGS:
            assert flag not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--potential", "sho:omega=1"],
            ["wavefunction", "--potential", "sho:omega=1"],
            ["scatter", "--u0", "1", "--energy", "2"],
            ["compare", "--potential", "isw:L=1", "--n-max", "1"],
        ],
    )
    def test_format_flag_is_gone(self, argv, capsys):
        code, out, err = exit_code([*argv, "--format", "json"], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --format json" in err

    def test_parser_is_built_once(self, capsys, monkeypatch):
        def fail():
            raise AssertionError("rebuilt the parser")

        monkeypatch.setattr(cli, "_build_parser", fail)
        for _ in range(2):
            run_json(["scatter", "--u0", "1", "--energy", "2"], capsys)

    def test_no_state_leaks_between_calls(self, capsys):
        for _ in range(2):
            doc = run_json(["scatter", "--u0", "1", "--energy", "1"], capsys)
            assert len(doc["records"]) == 1
        solve = ["solve", "--potential", "isw:L=1", "--n-max", "1"]
        before = run(solve, capsys)
        code, _, _ = run(
            ["wavefunction", "--potential", "sho:omega=1", "--n", "2", "--n-max", "2",
             "--variant", "general", "--samples", "3"],
            capsys,
        )
        assert code == 0
        assert run(solve, capsys) == before


def _recursive_to_json(value, indent=0):
    """The emitter item by item, as it was before templates: the oracle."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}"{k}": {_recursive_to_json(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_recursive_to_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:
            raise ValueError("refusing to serialize NaN")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e308, 2.0 ** 1023])
_SCALARS = st.one_of(
    _FINITE, _EDGE_FLOATS, _FINITE.map(np.float64), _EDGE_FLOATS.map(np.float64),
    st.integers(), st.booleans(), st.none(),
    st.text(st.sampled_from(['"', "\t", "\n", "\\", "é", "%", "a"]), max_size=5),
)
_NESTED = st.dictionaries(st.sampled_from(["value", "non_physical", "%s"]), _SCALARS, max_size=3)
_VALUES = st.one_of(_SCALARS, _NESTED)


def _records(keys):
    return st.fixed_dictionaries({k: _VALUES for k in keys})


# two key sets, as scatter's records above and below the barrier; one key holds a %
_ABOVE = _records(["E", "regime", "R", "T0", "T_at_x", "standard_R"])
_BELOW = _records(["E", "regime", "R", "T0", "T_at_x", "share_%d", "raw_subbarrier_R"])


class TestJsonEmitter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_ABOVE, _BELOW), min_size=1, max_size=6), st.integers(0, 3))
    def test_record_lists_give_the_recursive_text(self, records, indent):
        assert cli.to_json(records, indent) == _recursive_to_json(records, indent)
        doc = {"u0": 1.0, "records": records, "tail": [records[0], 1.5]}
        assert cli.to_json(doc) == _recursive_to_json(doc)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(_SCALARS, _NESTED, st.lists(_SCALARS, max_size=2)), max_size=6))
    def test_other_lists_give_the_recursive_text(self, items):
        assert cli.to_json(items) == _recursive_to_json(items)

    def test_a_key_that_is_no_str_is_refused(self):
        # 1, 1.0 and True are one dict key, and would share one template
        for key in (1, 1.0, True, None):
            with pytest.raises(TypeError, match="cannot serialize"):
                cli.to_json({key: 2.0})
            with pytest.raises(TypeError, match="cannot serialize"):
                cli.to_json({"records": [{"1": 2.0}, {key: 2.0}]})

    @pytest.mark.parametrize("nan", [math.nan, np.float64(math.nan)], ids=["float", "np.float64"])
    @pytest.mark.parametrize("where", ["record", "nested", "list"])
    def test_nan_in_a_record_is_refused(self, nan, where):
        record = {"E": 1.0, "R": 0.5, "regime": "above_barrier"}
        if where == "record":
            record["R"] = nan
        elif where == "nested":
            record["raw_subbarrier_R"] = {"value": nan, "non_physical": True}
        else:
            record["levels"] = [{"energy": nan}]
        with pytest.raises(ValueError, match="refusing to serialize NaN"):
            cli.to_json({"records": [{"E": 2.0, "R": 0.25, "regime": "above_barrier"}, record]})

    def test_round_trip_and_nan_refusal(self):
        text = cli.to_json({"a": [1.5, True, None, "x\"y"], "b": {}})
        assert json.loads(text) == {"a": [1.5, True, None, 'x"y'], "b": {}}
        with pytest.raises(ValueError):
            cli.format_float(float("nan"))

    def test_control_characters_are_escaped(self):
        value = {"s": 'tab\tnew\nline\x01 "q" \\ é'}
        assert json.loads(cli.to_json(value), strict=True) == value

    def test_tab_in_expression_source_is_strict_json(self, capsys):
        spec = "expr:0.5*x^2\t+0;domain=-12..12"
        code, out, _ = run(["solve", "--potential", spec, "--n-max", "1", "--variant", "general"], capsys)
        assert code == 0
        doc = json.loads(out, strict=True)
        assert doc["potential"]["source"] == "0.5*x^2\t+0"
        assert doc["ground_state"]["energy"] == pytest.approx(0.5, rel=1e-8)

    def test_seventeen_digit_floats(self):
        assert cli.format_float(math.pi) == "3.1415926535897931"
        assert float(cli.format_float(0.1)) == 0.1


def test_import_loads_no_numpy_submodule_beyond_numpy():
    # each numpy submodule adds start-up time to every command, e.g. about
    # 20 ms for numpy.polynomial
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import turnpoint.cli\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


_SKIP_SPECS = [  # the five expr-solve templates, then wells where the climb fails or skips oddly
    "expr:0.671887*x^2;domain=-11.9606..11.9606",
    "expr:1.44822*abs(x);domain=-20.2356..20.2356",
    "expr:0.850961*x^4;domain=-4.7878..4.7878",
    "expr:1.00498*(0.761016/x - x/0.761016)^2;domain=0.0..12.9188",
    "expr:0.527658*x^2+1.18691/x^2;domain=0.0..18.0098",
    "expr:x;domain=-40..40",
    "expr:(x^2-4)^2;domain=-5..5",
    "expr:0*x;domain=0..1",
    "expr:x^2-0.1;domain=-3..3",
]


class TestClimbSkipOutputs:
    """The climbs' `skip` changes no output: the CLI with it and with every
    skip dropped gives the same bytes and exit code."""

    @staticmethod
    def _both(argv, capsys, monkeypatch):
        skipping = run(argv, capsys)
        climb = numerics.bracket_roots
        monkeypatch.setattr(numerics, "bracket_roots", lambda g, lo, f_lo, step, growth, skip=None:
                            climb(g, lo, f_lo, step, growth))
        plain = run(argv, capsys)
        monkeypatch.undo()
        return skipping, plain

    @pytest.mark.parametrize("spec", _SKIP_SPECS)
    @pytest.mark.parametrize("levels", [["--n-max", "1", "--variant", "general"], ["--n-max", "3", "--variant", "all"]])
    def test_solve(self, spec, levels, capsys, monkeypatch):
        skipping, plain = self._both(["solve", "--potential", spec, *levels], capsys, monkeypatch)
        assert skipping == plain

    @pytest.mark.parametrize("spec", _SKIP_SPECS)
    def test_wavefunction(self, spec, capsys, monkeypatch):
        argv = ["wavefunction", "--potential", spec, "--n-max", "2", "--n", "2", "--samples", "9"]
        skipping, plain = self._both(argv, capsys, monkeypatch)
        assert skipping == plain

    @pytest.mark.parametrize("spec", _SKIP_SPECS)
    def test_compare(self, spec, capsys, monkeypatch):
        skipping, plain = self._both(["compare", "--potential", spec, "--n-max", "2"], capsys, monkeypatch)
        assert skipping == plain
