"""Energy levels, S-integral, wavefunction construction and normalization."""

import json
import math
from dataclasses import astuple, dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnpoint import cli, numerics, potentials, solver
from turnpoint.errors import ConvergenceFailure, InvalidEnergy, InvalidInput, InvalidLevel, NoBoundRegion, TurnpointError
from turnpoint.potentials import (
    HarmonicOscillator,
    InfiniteSquareWell,
    ParabolicWell,
    QuadraticInverse,
    Step,
    TrigWell,
    UnitSystem,
    VWell,
    parse_potential_spec,
)

U = UnitSystem()

_FAMILIES = st.one_of(
    st.builds(InfiniteSquareWell, L=st.floats(0.1, 10.0)),
    st.builds(HarmonicOscillator, omega=st.floats(0.1, 10.0)),
    st.builds(TrigWell, u0=st.floats(0.1, 10.0), a=st.floats(0.2, 5.0)),
    st.builds(VWell, u0=st.floats(0.1, 10.0)),
    st.builds(ParabolicWell, u0=st.floats(0.1, 10.0), a=st.floats(0.2, 5.0)),
    st.builds(QuadraticInverse, a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0)),
)
_UNITS = st.builds(UnitSystem, hbar=st.floats(0.2, 5.0), mass=st.floats(0.2, 5.0))


class TestLevelSpec:
    @pytest.mark.parametrize(
        "variant,n,q,cosine",
        [
            ("symmetric", 1, 1, True),
            ("symmetric", 3, 5, True),
            ("antisymmetric", 1, 2, False),
            ("antisymmetric", 2, 4, False),
            ("general", 1, 1, True),
            ("general", 2, 2, False),
            ("general", 5, 5, True),
        ],
    )
    def test_quantization_multiple_and_parity(self, variant, n, q, cosine):
        level = solver.LevelSpec(n, variant)
        assert level.q == q
        assert level.uses_cosine is cosine

    def test_invalid_n(self):
        with pytest.raises(InvalidLevel):
            solver.LevelSpec(0, "symmetric")

    def test_invalid_variant(self):
        with pytest.raises(InvalidLevel):
            solver.LevelSpec(1, "odd")


class TestTurningPoints:
    def test_sho_closed_form(self):
        tp = solver.turning_points(HarmonicOscillator(omega=1.0), 2.0, U)
        assert tp.x2 == pytest.approx(2.0, rel=1e-12)
        assert tp.x1 == pytest.approx(-2.0, rel=1e-12)
        assert tp.x0 == pytest.approx(0.0, abs=1e-12)

    def test_expression_path_matches_closed_form(self):
        expr = parse_potential_spec("expr:0.5*x^2;domain=-20..20")
        tp_expr = solver.turning_points(expr, 2.0, U)
        tp_sho = solver.turning_points(HarmonicOscillator(omega=1.0), 2.0, U)
        assert tp_expr.x1 == pytest.approx(tp_sho.x1, abs=1e-9)
        assert tp_expr.x2 == pytest.approx(tp_sho.x2, abs=1e-9)

    def test_monotone_potential_has_no_bound_region(self):
        expr = parse_potential_spec("expr:x;domain=-5..5")
        with pytest.raises(NoBoundRegion):
            solver.turning_points(expr, 100.0, U)

    def test_a_turning_point_within_one_coarse_step_of_an_open_end(self):
        # x2 = 2.3160 lies within the last step of the 257-point grid, whose
        # end point is outside the open domain: that grid sees only x1, and the
        # finer grids are scanned until both turning points show
        expr = parse_potential_spec("expr:1/x^2+x^2;domain=0..2.3235459456278305")
        tp = solver.turning_points(expr, 5.55, U)
        x1, x2 = (math.sqrt(0.5 * (5.55 + sign * math.sqrt(5.55 ** 2 - 4.0))) for sign in (-1.0, 1.0))
        assert (tp.x1, tp.x2) == (pytest.approx(x1, rel=1e-12), pytest.approx(x2, rel=1e-12))

    def test_axb_positive_side_returned(self):
        tp = solver.turning_points(QuadraticInverse(a=1.0, b=1.0), 5.0, U)
        assert tp.x1 > 0.0


class TestSIntegral:
    def test_isw_area_is_zero(self):
        assert solver.s_integral(InfiniteSquareWell(L=1.0), 1.0, U) == 0.0

    def test_sho_closed_form_area(self):
        # U = x^2/2 between +-x2 with x2 = sqrt(2E): S = (2/3) x2^3 / 2... = x2^3/3
        E = 2.0
        x2 = math.sqrt(2.0 * E)
        expected = x2 ** 3 / 3.0
        assert solver.s_integral(HarmonicOscillator(omega=1.0), E, U) == pytest.approx(
            expected, rel=1e-10
        )

    def test_delta_equivalent_energy(self):
        assert solver.delta_equivalent_energy(2.0, U) == pytest.approx(-2.0, rel=1e-15)
        with pytest.raises(InvalidEnergy):
            solver.delta_equivalent_energy(-1.0, U)


class TestStepHasNoLevels:
    @pytest.mark.parametrize(
        "solve",
        [
            lambda spec: solver.ground_state_energy(spec, U),
            lambda spec: solver.excited_energy(spec, solver.LevelSpec(1, "general"), U),
            lambda spec: solver._solve_spectrum(spec, [solver.LevelSpec(1)], U, numerics.Tolerances()),
        ],
        ids=["ground", "excited", "spectrum"],
    )
    def test_refused_before_any_scan(self, solve, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("scanned for levels of the step")

        monkeypatch.setattr(numerics, "solve_self_consistent", fail)
        with pytest.raises(InvalidInput, match="^the step potential has no bound levels"):
            solve(potentials.Step(u0=1.0))


def test_a_wavenumber_scale_that_overflows_is_refused_before_any_scan(monkeypatch):
    # sqrt(2 m)/hbar is inf: every residual would be inf, and every climb would fail
    def fail(*args, **kwargs):
        raise AssertionError("climbed with an infinite sqrt(2 m)/hbar")

    monkeypatch.setattr(numerics, "bracket_roots", fail)
    with pytest.raises(InvalidInput, match=r"^sqrt\(2 m\)/hbar overflows for hbar=1e-310 and mass=1.0$"):
        solver.ground_state_energy(InfiniteSquareWell(L=1.0), UnitSystem(hbar=1e-310))


class TestGroundState:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (InfiniteSquareWell(L=1.0), 2.0),
            (HarmonicOscillator(omega=1.0), 0.5),
            (VWell(u0=1.0), 0.5 ** (1.0 / 3.0)),
            (ParabolicWell(u0=1.0, a=1.0), math.sqrt(2.0)),
            (QuadraticInverse(a=1.0, b=1.0), 1.0 + math.sqrt(3.0)),
            # far below the unit energy: the root tolerance follows the energy scale
            (HarmonicOscillator(omega=7.641e-12), 7.641e-12 / 2.0),
            (VWell(u0=1e-14), (1e-28 / 2.0) ** (1.0 / 3.0)),
        ],
    )
    def test_closed_forms(self, spec, expected):
        gs = solver.ground_state_energy(spec, U)
        assert gs.energy == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert gs.bound is True
        assert gs.residual <= 1e-10 * (1.0 + gs.energy)

    def test_scales_with_units(self):
        u = UnitSystem(hbar=2.0, mass=0.5)
        gs = solver.ground_state_energy(HarmonicOscillator(omega=3.0), u)
        assert gs.energy == pytest.approx(0.5 * u.hbar * 3.0, rel=1e-10)

    def test_width_consistency(self):
        gs = solver.ground_state_energy(VWell(u0=1.0), U)
        # E = 2 hbar^2 / (m d^2) at the solution
        assert gs.energy == pytest.approx(2.0 / gs.tp.d ** 2, rel=1e-9)


class TestExcitedEnergies:
    def test_isw_general_spectrum(self):
        for n in range(1, 6):
            lv = solver.excited_energy(InfiniteSquareWell(L=1.0), solver.LevelSpec(n, "general"), U)
            assert lv.energy == pytest.approx(n * n * math.pi ** 2 / 2.0, rel=1e-10)

    def test_sho_quantization(self):
        # K d = q pi  =>  E = q pi hbar omega / 4
        for n, variant in [(1, "symmetric"), (1, "antisymmetric"), (3, "general")]:
            level = solver.LevelSpec(n, variant)
            lv = solver.excited_energy(HarmonicOscillator(omega=1.0), level, U)
            assert lv.energy == pytest.approx(level.q * math.pi / 4.0, rel=1e-10)

    def test_parab_linear_ladder(self):
        e0 = math.sqrt(2.0)
        for n in (1, 2, 3):
            sym = solver.excited_energy(
                ParabolicWell(u0=1.0, a=1.0), solver.LevelSpec(n, "symmetric"), U
            )
            assert sym.energy == pytest.approx(math.pi * (n - 0.5) * e0, rel=1e-10)
            asym = solver.excited_energy(
                ParabolicWell(u0=1.0, a=1.0), solver.LevelSpec(n, "antisymmetric"), U
            )
            assert asym.energy == pytest.approx(math.pi * n * e0, rel=1e-10)

    def test_no_level_at_the_jump_where_the_width_vanishes(self):
        # the residual is -inf below the tiny-width floor, so Brent cannot
        # take the jump there for a root
        with pytest.raises(ConvergenceFailure):
            solver.excited_energy(TrigWell(u0=9.14e34, a=8.748e9), solver.LevelSpec(1, "symmetric"), U)

    def test_axb_closed_form(self):
        for n, variant in [(1, "symmetric"), (2, "general")]:
            level = solver.LevelSpec(n, variant)
            lv = solver.excited_energy(QuadraticInverse(a=1.0, b=1.0), level, U)
            expected = 1.0 + math.sqrt(1.0 + level.q ** 2 * math.pi ** 2 / 2.0)
            assert lv.energy == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(_FAMILIES, _UNITS)
    def test_levels_strictly_increase_in_n(self, spec, units):
        # each level solved on its own, scanning up from the bottom of its window
        for variant in solver.VARIANTS:
            energies = [solver.excited_energy(spec, solver.LevelSpec(n, variant), units).energy for n in range(1, 5)]
            assert all(a < b for a, b in zip(energies, energies[1:])), (variant, energies)

    def test_residual_is_quantization_defect(self):
        lv = solver.excited_energy(VWell(u0=1.0), solver.LevelSpec(2, "symmetric"), U)
        assert lv.residual == abs(lv.K * lv.tp.d - 3.0 * math.pi)
        assert lv.residual < 1e-8


class TestWaveFunctions:
    def _normalized(self, spec, level, units=U):
        lv = solver.excited_energy(spec, level, units)
        desc = solver.wavefunction(spec, level, lv.energy, units)
        return solver.normalize(desc)

    def test_vanishes_outside_the_well(self):
        desc = self._normalized(HarmonicOscillator(omega=1.0), solver.LevelSpec(1, "symmetric"))
        assert desc(desc.tp.x1 - 1.0) == 0.0
        assert desc(desc.tp.x2 + 1.0) == 0.0

    def test_vanishes_at_turning_points(self):
        desc = self._normalized(VWell(u0=1.0), solver.LevelSpec(2, "antisymmetric"))
        assert abs(desc(desc.tp.x1)) < 1e-12 * desc.amplitude
        assert abs(desc(desc.tp.x2)) < 1e-12 * desc.amplitude

    def test_norm_is_one(self):
        desc = self._normalized(HarmonicOscillator(omega=1.0), solver.LevelSpec(1, "antisymmetric"))
        norm = numerics.integrate(lambda x: desc(x) ** 2, desc.tp.x1, desc.tp.x2)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_isw_matches_textbook_shape(self):
        # normalized n=1 general state of the unit box is sqrt(2) sin(pi x)
        level = solver.LevelSpec(1, "general")
        desc = self._normalized(InfiniteSquareWell(L=1.0), level)
        for x in (0.1, 0.25, 0.5, 0.9):
            expected = math.sqrt(2.0) * math.sin(math.pi * x)
            assert abs(abs(desc(x)) - abs(expected)) < 1e-9

    def test_trig_factor_parity_about_midpoint(self):
        sym = self._normalized(HarmonicOscillator(omega=1.0), solver.LevelSpec(2, "symmetric"))
        asym = self._normalized(HarmonicOscillator(omega=1.0), solver.LevelSpec(2, "antisymmetric"))
        for s in (0.1, 0.4, 0.8):
            assert sym.trig_factor(sym.tp.x0 + s) == pytest.approx(
                sym.trig_factor(sym.tp.x0 - s), rel=1e-12
            )
            assert asym.trig_factor(asym.tp.x0 + s) == pytest.approx(
                -asym.trig_factor(asym.tp.x0 - s), rel=1e-12
            )

    def test_sample_returns_pairs(self):
        desc = self._normalized(InfiniteSquareWell(L=1.0), solver.LevelSpec(1, "general"))
        rows = solver.sample(desc, [0.0, 0.5, 1.0])
        assert [x for x, _ in rows] == [0.0, 0.5, 1.0]
        assert rows[1][1] == pytest.approx(math.sqrt(2.0), rel=1e-9)


class TestNormalizeCost:
    def _counted_normalize(self, spec, level, monkeypatch):
        """Normalize one level, counting calls to Q and to U."""
        lv = solver.excited_energy(spec, level, U)
        desc = solver.wavefunction(spec, level, lv.energy, U)
        calls = {"q": 0, "u": 0}
        q_eval, evaluate = desc.q_eval, potentials.evaluate

        def q_counted(x):
            calls["q"] += 1
            return q_eval(x)

        def u_counted(*args):
            calls["u"] += 1
            return evaluate(*args)

        monkeypatch.setattr(potentials, "evaluate", u_counted)
        solver.normalize(replace(desc, q_eval=q_counted))
        return calls

    def test_sho_antisymmetric_n4_takes_at_most_600_integrand_evaluations(self, monkeypatch):
        # one Q per density evaluation: the closed form, no U
        level = solver.LevelSpec(4, "antisymmetric")
        calls = self._counted_normalize(HarmonicOscillator(omega=1.0), level, monkeypatch)
        assert calls["u"] == 0
        assert 0 < calls["q"] <= 600

    def test_expression_n2_takes_at_most_5000_u_evaluations(self, monkeypatch):
        spec = parse_potential_spec("expr:0.5*x^2;domain=-12..12")
        calls = self._counted_normalize(spec, solver.LevelSpec(2, "general"), monkeypatch)
        assert 0 < calls["u"] <= 5_000


class TestQFunction:
    def test_numeric_path_needs_anchor(self):
        expr = parse_potential_spec("expr:0.5*x^2;domain=-10..10")
        with pytest.raises(InvalidEnergy):
            solver.q_function(expr, U)

    def test_numeric_matches_analytic_sho(self):
        expr = parse_potential_spec("expr:0.5*x^2;domain=-10..10")
        q_num = solver.q_function(expr, U, anchor=0.0)
        q_ana = solver.q_function(HarmonicOscillator(omega=1.0), U)
        for x in (-1.5, -0.3, 0.0, 0.4, 2.0):
            assert q_num(x) == pytest.approx(q_ana(x), abs=1e-10)


# -- the per-solve U table against a fresh scan -----------------------------

_SOURCES = (
    "{c}*x^2", "{c}*abs(x)", "{c}*x^4 - x^2", "{c}/x^2", "{c}*x^2 + 1/x", "cot(x)^2",
    "sqrt(x) + {c}", "{c}", "abs(x)/x", "ln(abs(x))", "{c}*x^2 + 0*x", "sin({c}*x)",
)
_DOMAINS = (
    st.floats(0.1, 50.0).map(lambda a: (-a, a)),  # x = 0 lies on every grid
    st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 60.0)).map(lambda t: (t[0], t[0] + t[1])),
    st.sampled_from([(0.0, math.pi), (-1e306, 1e306), (0.0, 1e-310), (1.0, 1.0 + 1e-13)]),
)
_GRIDS = st.sampled_from([256, 512, 1024, 2048, 4096])


@st.composite
def scans(draw):
    """A well and a sequence of (E, n_grid) scans on it."""
    if draw(st.booleans()) and draw(st.booleans()):
        u0 = draw(st.floats(0.1, 10.0))
        spec, lo, hi = Step(u0=u0), -100.0, 100.0
        special = [0.0, u0]  # zeros over a whole plateau and at the right edge
    else:
        c = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 10.0))
        lo, hi = draw(st.one_of(*_DOMAINS))
        source = draw(st.sampled_from(_SOURCES)).format(c=repr(c))
        spec = parse_potential_spec(f"expr:{source};domain={lo!r}..{hi!r}")
        special = [0.0, 0.5]
        for k in draw(st.lists(st.integers(1, 4095), max_size=3)):
            try:  # U at a grid point: an exact zero of E - U there
                special.append(potentials.evaluate(spec, lo + (hi - lo) * k / 4096, U))
            except (TurnpointError, ValueError):
                pass
    energy = st.floats(-5.0, 200.0) | st.sampled_from(special)
    return spec, lo, hi, draw(st.lists(st.tuples(energy, _GRIDS), min_size=1, max_size=6))


@dataclass(frozen=True)
class _Column(InfiniteSquareWell):
    """The box (0, L) whose U on the grid x = 0, 1, ..., L is the column u, as
    given. A subclass of a family, so the direct subclasses of PotentialSpec
    stay the registered families."""

    u: tuple = ()

    def __post_init__(self):  # u is not a positive parameter
        pass

    def evaluate_grid(self, xs, units):
        assert len(xs) == len(self.u)
        return np.array(self.u, dtype=float)


_EDGE_U = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.7e308, -1.7e308, 1.0, -1.0])


@st.composite
def columns(draw):
    """A U column of signed zeros, NaN runs, infinities and values near the
    float limit, and energies that meet its values, its last one included."""
    runs = draw(st.lists(
        st.lists(_EDGE_U | st.integers(-2, 2).map(float) | st.floats(-3.0, 3.0), min_size=1, max_size=6)
        | st.integers(1, 4).map(lambda k: [math.nan] * k),
        min_size=1, max_size=8,
    ))
    u = [v for run in runs for v in run] + [draw(_EDGE_U)]
    energy = st.sampled_from(u) | st.sampled_from([u[-1], 0.0, -0.0, 1.7e308]) | st.floats()
    return tuple(u), draw(st.lists(energy, min_size=1, max_size=5))


def tabulate(f, xs):
    """f at each x, NaN where f raises an evaluation error: the pointwise scan."""
    values = []
    for x in xs:
        try:
            values.append(f(x))
        except numerics._EVAL_ERRORS:
            values.append(math.nan)
    return np.array(values, dtype=float)


def _scan(f, lo, hi, n):
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    return numerics.sign_changes(xs, tabulate(f, xs))


def _key(brackets):
    """Bit patterns of brackets or of `_UTable.cells`' tuples of their fields."""
    return [tuple(v.hex() for v in (astuple(b) if isinstance(b, numerics.Bracket) else b)) for b in brackets]


class TestUTable:
    @settings(max_examples=150, deadline=None)
    @given(scans())
    def test_brackets_equal_a_fresh_scan(self, case):
        spec, lo, hi, steps = case
        table = solver._UTable(spec, U)
        for E, n in steps:
            fresh = _scan(lambda x: E - potentials.evaluate(spec, x, U), lo, hi, n)
            assert _key(table.cells(E, n)) == _key(fresh)

    @settings(max_examples=300, deadline=None)
    @given(columns())
    @example(((-1.7e308, 1.75e308, 1.0, -1.7e308), [1.7e308, 1.0, -1.7e308]))  # E - U overflows to inf
    @example(((1.0, -0.0, 0.0, -1.0, 0.0), [0.0, -0.0]))  # zeros inside the column and at its end
    def test_brackets_follow_the_sign_change_rule_bit_for_bit(self, case):
        u, energies = case
        table = solver._UTable(_Column(L=len(u) - 1.0, u=u), U)
        xs = np.arange(len(u), dtype=float)
        for E in energies:
            with np.errstate(all="ignore"):
                rule = numerics.sign_changes(xs, E - np.array(u))
            assert _key(table.cells(E, len(u) - 1)) == _key(rule)

    def test_grid_points_past_overflow_are_evaluated_again(self):
        # hi * i overflows on the 513-point grid from i = 200 on, where the
        # 257-point grid still has x = hi * 100 / 256 finite; a sign change of
        # x - t between the two must not be seen at x = inf on the 513-point
        # grid, nor lost when the 257-point grid is scanned again after it
        hi = 1.7976931348623157e308 / 199.5
        t = 0.5 * (hi * 199 / 512 + hi * 100 / 256)
        spec = parse_potential_spec(f"expr:x - {t!r};domain=0..{hi!r}")
        table = solver._UTable(spec, U)
        for n in (256, 512, 256):
            fresh = _scan(lambda x: -potentials.evaluate(spec, x, U), 0.0, hi, n)
            assert _key(table.cells(0.0, n)) == _key(fresh)

    @pytest.mark.parametrize("source", ["expr:0.5*x^2;domain=-12..12", "step:u0=1"])
    def test_each_grid_is_evaluated_by_one_call_of_its_own_points(self, source, monkeypatch):
        spec = parse_potential_spec(source)
        sizes = []
        # an expression's 257- and 513-point grids are read off its one tabulation
        want = [513, 4097] if spec.kind == "expr" else [257, 513, 4097]
        if spec.kind == "expr":  # its tabulation and `evaluate_grid` both go through `compiled_grid`
            grid = spec.compiled_grid

            def counted_grid(xs):
                sizes.append(len(xs))
                return grid(xs)

            object.__setattr__(spec, "compiled_grid", counted_grid)
        else:
            evaluate_grid = type(spec).evaluate_grid

            def counted(self, xs, units):
                sizes.append(len(xs))
                return evaluate_grid(self, xs, units)

            monkeypatch.setattr(type(spec), "evaluate_grid", counted)
        table = solver._UTable(spec, U)
        for E in (0.5, 3.0, 80.0, 0.5):
            for n in (256, 512, 4096):
                table.cells(E, n)
        assert sizes == want

    def test_roadmap_ground_case_stays_under_3000_u_evaluations(self, monkeypatch):
        calls = [0]
        evaluate = potentials.evaluate

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(potentials, "evaluate", counted)
        spec = parse_potential_spec("expr:0.5*x^2;domain=-12..12")
        grid = spec.compiled_grid

        def counted_grid(xs):  # the u_min scan and the table fills, one per point
            calls[0] += len(xs)
            return grid(xs)

        object.__setattr__(spec, "compiled_grid", counted_grid)
        gs = solver.ground_state_energy(spec, U)
        assert gs.energy == pytest.approx(0.5, abs=1e-8)
        assert calls[0] <= 3_000

    def test_roadmap_case_makes_at_most_150_pointwise_u_evaluations(self, monkeypatch, capsys):
        # the climb's energies below the ground level are proven so by the U
        # table and solve no turning points; the rest are Brent's refinement
        calls = _counting(monkeypatch, potentials, "evaluate")
        argv = ["solve", "--potential", "expr:0.5*x^2;domain=-12..12", "--n-max", "1", "--variant", "general"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["ground_state"]["energy"] == pytest.approx(0.5, abs=1e-8)
        assert calls[0] <= 150


@pytest.mark.parametrize("spec", [
    HarmonicOscillator(omega=1.0),
    InfiniteSquareWell(L=1.0),
    VWell(u0=1.0),
    TrigWell(u0=1.0, a=1.0),
    ParabolicWell(u0=1.0, a=1.0),
    QuadraticInverse(a=1.0, b=1.0),
], ids=lambda spec: spec.kind)
def test_each_level_stays_under_30_residual_calls(spec, monkeypatch):
    calls = []
    solve = numerics.solve_self_consistent

    def counted(g, *args, **kwargs):
        calls.append(0)

        def residual(E):
            calls[-1] += 1
            return g(E)

        return solve(residual, *args, **kwargs)

    monkeypatch.setattr(numerics, "solve_self_consistent", counted)
    solver.ground_state_energy(spec, U)
    for n in (1, 2, 3):
        solver.excited_energy(spec, solver.LevelSpec(n, "general"), U)
    assert len(calls) == 4
    assert max(calls) <= 30


_BUILT_IN = [
    HarmonicOscillator(omega=1.0),
    InfiniteSquareWell(L=1.0),
    VWell(u0=1.0),
    TrigWell(u0=1.0, a=1.0),
    ParabolicWell(u0=1.0, a=1.0),
    QuadraticInverse(a=1.0, b=1.0),
]
_QUADRATIC_EXPR = "expr:0.5*x^2;domain=-12..12"
_ALL = [solver.LevelSpec(n, v) for n in (1, 2, 3) for v in solver.VARIANTS]


@pytest.mark.parametrize("variant", solver.VARIANTS)
@pytest.mark.parametrize("spec", _BUILT_IN, ids=lambda s: s.kind)
def test_sample_is_the_descriptor_bit_for_bit(spec, variant):
    level = solver.LevelSpec(2, variant)
    desc = solver.normalize(solver.wavefunction(spec, level, solver.excited_energy(spec, level, U).energy, U))
    tp = desc.tp
    grid = [tp.x1 - tp.d, tp.x1 - 0.1 * tp.d, math.nextafter(tp.x1, -math.inf), tp.x1, tp.x0, tp.x2,
            math.nextafter(tp.x2, math.inf), tp.x2 + 0.1 * tp.d]
    grid += [tp.x1 + tp.d * i / 37 for i in range(1, 37)]

    def oracle(x):  # the descriptor's own formula before it became `sample` at one point
        if not desc.tp.x1 <= x <= desc.tp.x2:
            return 0.0
        return desc.amplitude * desc.trig_factor(x) * math.exp(-desc.q_eval(x))

    expected = [(x.hex(), oracle(x).hex()) for x in grid]
    assert [(x.hex(), psi.hex()) for x, psi in solver.sample(desc, grid)] == expected
    assert [(x.hex(), desc(x).hex()) for x in grid] == expected


def _counting(monkeypatch, module, attr):
    calls = [0]
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


class TestSpectrum:
    """`_solve_spectrum`: one table and window, each q once, upward from below."""

    @pytest.mark.parametrize("spec", _BUILT_IN + [parse_potential_spec(_QUADRATIC_EXPR)], ids=lambda s: s.kind)
    def test_matches_one_level_solves(self, spec):
        tol = numerics.Tolerances()
        levels = [solver.LevelSpec(n, v) for n in range(1, 6) for v in solver.VARIANTS]
        ground, solved = solver._solve_spectrum(spec, levels, U, tol)
        assert ground == solver.ground_state_energy(spec, U, tol)
        assert [lv.level for lv in solved] == levels
        for lv in solved:
            alone = solver.excited_energy(spec, lv.level, U, tol).energy
            assert abs(lv.energy - alone) <= 2.0 * tol.energy_rel * (1.0 + abs(alone))

    @pytest.mark.parametrize("spec, most", [(spec, 80) for spec in _BUILT_IN]
                             + [(parse_potential_spec(_QUADRATIC_EXPR), 60)], ids=lambda s: getattr(s, "kind", s))
    def test_turning_point_solves_per_request(self, spec, most, monkeypatch):
        calls = _counting(monkeypatch, solver, "turning_points")
        solver._solve_spectrum(spec, _ALL, U, numerics.Tolerances())
        assert calls[0] <= most

    def test_one_u_min_scan_per_request(self, monkeypatch):
        calls = _counting(monkeypatch, potentials, "u_min")
        solver._solve_spectrum(parse_potential_spec(_QUADRATIC_EXPR), _ALL, U, numerics.Tolerances())
        assert calls[0] == 1
