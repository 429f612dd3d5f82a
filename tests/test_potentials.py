"""Potential families: parsing, evaluation, turning points, closed-form Q."""

import math
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from turnpoint import expressions, potentials
from turnpoint.errors import DomainError, InvalidInput, SpecParseError
from turnpoint.potentials import (
    Domain,
    Expression,
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

# expression sources from the grammar of `expressions`, numbers in repr form
_SOURCES = st.recursive(
    st.one_of(
        st.floats(0.0, 1e3).map(repr),
        st.sampled_from(["x", "1e-3", "2.5E2", *sorted(expressions.CONSTANTS)]),
    ),
    lambda kids: st.one_of(
        st.builds("{}({})".format, st.sampled_from(sorted(expressions.FUNCTIONS)), kids),
        st.builds("({}) {} ({})".format, kids, st.sampled_from(list("+-*/^")), kids),
        kids.map("-{}".format),
    ),
    max_leaves=8,
)
_DOMAINS = st.one_of(
    st.just((1.0 / 3.0, 2.0 / 3.0)),
    st.builds(lambda p, q: (p / q, (p + 1) / q), st.integers(-30, 30), st.integers(1, 30)),
    st.builds(lambda lo, width: (lo, lo + width), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
)


def _math_u(spec, x, units):
    """U(x) by the scalar math formulas the families once had, the oracle of
    `evaluate_grid`; an expression's own closure for `expr`."""
    kind = spec.kind
    if kind == "isw":
        return 0.0
    if kind == "sho":
        return 0.5 * units.mass * spec.omega ** 2 * x * x
    if kind == "trig":
        return spec.u0 * (math.cos(math.pi * x / spec.a) / math.sin(math.pi * x / spec.a)) ** 2
    if kind == "vwell":
        return spec.u0 * abs(x)
    if kind == "parab":
        return spec.u0 * (spec.a / x - x / spec.a) ** 2
    if kind == "axb":
        return spec.a * x * x + spec.b / (x * x)
    return spec.evaluate(x, units)


def _u_outcome(spec, x):
    """U(x) as its bits, or the exception's type and message."""
    try:
        return potentials.evaluate(spec, x, U).hex()
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("isw:L=2", InfiniteSquareWell(L=2.0)),
            ("sho:omega=1.5", HarmonicOscillator(omega=1.5)),
            ("trig:u0=1,a=2", TrigWell(u0=1.0, a=2.0)),
            ("vwell:u0=3", VWell(u0=3.0)),
            ("parab:u0=1,a=1", ParabolicWell(u0=1.0, a=1.0)),
            ("axb:a=1,b=2", QuadraticInverse(a=1.0, b=2.0)),
            ("step:u0=4", Step(u0=4.0)),
        ],
    )
    def test_families(self, text, expected):
        assert parse_potential_spec(text) == expected

    def test_key_order_and_spaces_do_not_matter(self):
        assert parse_potential_spec(" trig: a=2 , u0=1 ") == TrigWell(u0=1.0, a=2.0)

    def test_expression_spec(self):
        spec = parse_potential_spec("expr:0.5*x^2;domain=-10..10")
        assert isinstance(spec, Expression)
        assert spec.dom.lo == -10.0
        assert spec.dom.hi == 10.0
        assert potentials.evaluate(spec, 2.0, U) == 2.0

    @pytest.mark.parametrize(
        "text",
        [
            "nofamily",
            "bogus:z=1",
            "sho:omega",
            "sho:omega=abc",
            "sho:",
            "sho:omega=1,extra=2",
            "sho:omega=-1",
            "expr:x^2",
            "expr:x^2;domain=5..1",
            "expr:x^2;domain=a..b",
            "isw:l=0",
        ],
    )
    def test_malformed_specs(self, text):
        with pytest.raises(SpecParseError):
            parse_potential_spec(text)

    def test_expression_domain_must_be_finite(self):
        ast = parse_potential_spec("expr:x^2;domain=-1..1").ast
        with pytest.raises(InvalidInput):
            Expression(ast=ast, dom=Domain(-math.inf, math.inf))

    def test_expression_compiles_once_and_compares_by_source(self):
        a = parse_potential_spec("expr:x^2;domain=-1..1")
        b = parse_potential_spec("expr:x^2;domain=-1..1")
        assert a == b and hash(a) == hash(b)
        assert a.compiled is not b.compiled
        assert a.compiled(0.5) == potentials.evaluate(a, 0.5) == 0.25
        assert "compiled" not in repr(a)
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and copy.compiled(0.5) == 0.25

    def test_every_family_but_expr_is_registered(self):
        assert set(potentials.FAMILIES) == set(potentials.PotentialSpec.__subclasses__()) - {Expression}

    @pytest.mark.parametrize("cls", potentials.FAMILIES, ids=lambda cls: cls.kind)
    def test_every_family_parses_its_lower_cased_fields(self, cls):
        keys = [f.name.lower() for f in fields(cls)]
        spec = cls(*(1.25 * (i + 1) for i in range(len(keys))))
        doc = spec.to_dict()
        assert doc.pop("kind") == cls.kind
        assert parse_potential_spec(f"{cls.kind}:" + ",".join(f"{k}={v!r}" for k, v in doc.items())) == spec
        lower = [f"{k}={v!r}" for k, v in zip(keys, doc.values())]
        assert parse_potential_spec(f"{cls.kind}:" + ",".join(lower)) == spec
        for i, key in enumerate(keys):
            with pytest.raises(SpecParseError, match=f"missing parameters: {key}$"):
                parse_potential_spec(f"{cls.kind}:" + ",".join(lower[:i] + lower[i + 1:]))
        with pytest.raises(SpecParseError, match="unknown parameter 'kind'"):
            parse_potential_spec(f"{cls.kind}:" + ",".join(lower + ["kind=1"]))

    def test_spec_to_dict_round_trip(self):
        doc = TrigWell(u0=1.0, a=2.0).to_dict()
        assert doc == {"kind": "trig", "u0": 1.0, "a": 2.0}

    def test_spec_to_dict_expression(self):
        doc = parse_potential_spec("expr:x^2;domain=-1..1").to_dict()
        assert doc == {"kind": "expr", "source": "x^2", "domain": {"lo": -1.0, "hi": 1.0}}

    @settings(max_examples=60, deadline=None)
    @given(_SOURCES, _DOMAINS)
    def test_expression_echo_parses_back_to_the_same_well(self, source, dom):
        first = parse_potential_spec(f"expr: {source} ;domain={dom[0]!r}..{dom[1]!r}")
        doc = first.to_dict()
        lo, hi = doc["domain"]["lo"], doc["domain"]["hi"]
        echo = parse_potential_spec(f"expr:{doc['source']};domain={lo!r}..{hi!r}")
        assert echo.to_dict() == doc and (lo, hi) == dom
        for x in np.linspace(lo, hi, 9).tolist():
            assert _u_outcome(echo, x) == _u_outcome(first, x)


class TestEvaluate:
    def test_isw_zero_inside_walls_outside(self):
        spec = InfiniteSquareWell(L=1.0)
        assert potentials.evaluate(spec, 0.5, U) == 0.0
        with pytest.raises(DomainError):
            potentials.evaluate(spec, 1.5, U)

    def test_sho_quadratic(self):
        spec = HarmonicOscillator(omega=2.0)
        # U = m omega^2 x^2 / 2
        assert potentials.evaluate(spec, 3.0, U) == pytest.approx(18.0, rel=1e-15)

    def test_trig_cot_squared(self):
        spec = TrigWell(u0=2.0, a=1.0)
        x = 0.25
        expected = 2.0 / math.tan(math.pi * x) ** 2
        assert potentials.evaluate(spec, x, U) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(DomainError):
            potentials.evaluate(spec, 0.0, U)

    def test_vwell_absolute_value(self):
        spec = VWell(u0=2.0)
        assert potentials.evaluate(spec, -3.0, U) == 6.0
        assert potentials.evaluate(spec, 3.0, U) == 6.0

    def test_parab_zero_at_x_equals_a(self):
        spec = ParabolicWell(u0=1.0, a=2.0)
        assert potentials.evaluate(spec, 2.0, U) == 0.0
        with pytest.raises(DomainError):
            potentials.evaluate(spec, 0.0, U)

    def test_axb_minimum_value(self):
        spec = QuadraticInverse(a=1.0, b=4.0)
        # minimum 2 sqrt(ab) at x = (b/a)^(1/4)
        x_min = (4.0) ** 0.25
        assert potentials.evaluate(spec, x_min, U) == pytest.approx(4.0, rel=1e-14)
        assert potentials.u_min(spec) == pytest.approx(4.0, rel=1e-14)

    def test_u_min_lets_a_fault_through(self, monkeypatch):
        # only evaluation errors make a point unusable; a fault in the grid
        # evaluator's per-element power is not hidden as "not evaluable anywhere"
        def broken(left, right):
            raise TypeError("a fault")

        monkeypatch.setitem(expressions._GRID, "^", expressions._grid_each(broken))
        spec = potentials.parse_potential_spec("expr:x^2;domain=-1..1")
        with pytest.raises(TypeError, match="a fault"):
            potentials.u_min(spec)

    def test_step_two_plateaus(self):
        spec = Step(u0=3.0)
        assert potentials.evaluate(spec, -1.0, U) == 0.0
        assert potentials.evaluate(spec, 1.0, U) == 3.0

    def test_expression_outside_domain(self):
        spec = parse_potential_spec("expr:x^2;domain=-1..1")
        with pytest.raises(DomainError):
            potentials.evaluate(spec, 2.0, U)

    # outside the open domain, at the pole, and where U is not finite: the last four
    # raised ZeroDivisionError, OverflowError or returned inf when each family wrote
    # its own scalar formula
    @pytest.mark.parametrize("text, x, match", [
        ("isw:L=2", 0.0, "outside the isw domain"),
        ("isw:L=2", 2.0, "outside the isw domain"),
        ("trig:u0=1,a=3", 3.0, "outside the trig domain"),
        ("parab:u0=1,a=1", 0.0, "outside the parab domain"),
        ("axb:a=1,b=1", 0.0, "^pole at x=0$"),
        ("axb:a=1,b=1", 1e-200, "is not finite"),
        ("parab:u0=1,a=1", 1e-160, "is not finite"),
        ("trig:u0=1,a=1", 1e-300, "is not finite"),
        ("sho:omega=1", 1e200, "is not finite"),
    ])
    def test_evaluate_refuses_with_a_domain_error(self, text, x, match):
        with pytest.raises(DomainError, match=match):
            potentials.evaluate(parse_potential_spec(text), x, U)

    def test_evaluate_is_the_grid_formula_at_one_point(self):
        for spec in TestFamilyHooks.SIX + [Step(u0=3.0)]:
            for x in (-1.5, -0.25, 0.1, 0.3, 1.7):
                if spec.domain().contains(x):
                    u = potentials.evaluate(spec, x, U)
                    assert type(u) is float
                    assert u.hex() == float(spec.evaluate_grid(np.array([x]), U)[0]).hex()


class TestAnalyticTurningPoints:
    @pytest.mark.parametrize(
        "spec,E",
        [
            (HarmonicOscillator(omega=1.0), 1.3),
            (TrigWell(u0=1.0, a=1.0), 2.7),
            (VWell(u0=2.0), 1.1),
            (ParabolicWell(u0=1.0, a=1.0), 0.9),
            (QuadraticInverse(a=1.0, b=1.0), 5.0),
        ],
    )
    def test_points_satisfy_u_equals_e(self, spec, E):
        pairs = potentials.analytic_turning_points(spec, E, U)
        assert pairs is not None
        for tp in pairs:
            assert potentials.evaluate(spec, tp.x1, U) == pytest.approx(E, rel=1e-9)
            assert potentials.evaluate(spec, tp.x2, U) == pytest.approx(E, rel=1e-9)
            assert tp.d > 0.0

    def test_isw_full_width(self):
        (tp,) = potentials.analytic_turning_points(InfiniteSquareWell(L=2.0), 1.0, U)
        assert (tp.x1, tp.x2) == (0.0, 2.0)
        assert tp.x0 == 1.0
        assert tp.d == 2.0

    def test_axb_mirrored_pair(self):
        pairs = potentials.analytic_turning_points(QuadraticInverse(a=1.0, b=1.0), 5.0, U)
        assert len(pairs) == 2
        neg, pos = pairs
        assert neg.x2 < 0.0 < pos.x1
        assert neg.x1 == pytest.approx(-pos.x2, rel=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0), st.floats(2.0, 10.0))
    def test_axb_inner_point_is_exact_far_above_the_minimum(self, log_a, log_b, log_ratio):
        # E >> u_min = 2 sqrt(ab): E - sqrt(E^2 - 4ab) would cancel in the inner root
        spec = QuadraticInverse(a=10.0 ** log_a, b=10.0 ** log_b)
        E = spec.u_min() * 10.0 ** log_ratio
        for tp in potentials.analytic_turning_points(spec, E, U):
            for x in (tp.x1, tp.x2):
                assert abs(potentials.evaluate(spec, x, U) - E) <= 1e-14 * E

    def test_none_for_step_and_expression(self):
        assert potentials.analytic_turning_points(Step(u0=1.0), 2.0, U) is None
        expr = parse_potential_spec("expr:x^2;domain=-5..5")
        assert potentials.analytic_turning_points(expr, 1.0, U) is None

    def test_no_minimum_scan_without_a_closed_form(self, monkeypatch):
        def fail(self):
            raise AssertionError("scanned for the minimum of an expression")

        monkeypatch.setattr(Expression, "u_min", fail)
        expr = parse_potential_spec("expr:x^2;domain=-5..5")
        assert potentials.analytic_turning_points(expr, -1.0, U) is None


class TestAnalyticQ:
    def test_isw_is_zero(self):
        assert InfiniteSquareWell(L=1.0).q(0.5, U) == 0.0

    def test_sho_quadratic_coefficient(self):
        # Q = a x^2 with a = m omega / (2 hbar)
        spec = HarmonicOscillator(omega=3.0)
        assert spec.q(2.0, U) == pytest.approx(6.0, rel=1e-15)

    def test_vwell_even_in_x(self):
        spec = VWell(u0=1.0)
        assert spec.q(-1.5, U) == spec.q(1.5, U)

    def test_derivative_matches_m1_sqrt_u(self):
        # dQ/dx = m1 sqrt(U) away from kinks and poles
        cases = [
            (HarmonicOscillator(omega=1.0), 0.7),
            (TrigWell(u0=1.0, a=1.0), 0.3),
            (VWell(u0=2.0), 0.9),
            (ParabolicWell(u0=1.0, a=1.0), 0.6),
            (QuadraticInverse(a=1.0, b=1.0), 1.4),
        ]
        h = 1e-6
        for spec, x in cases:
            q_plus = spec.q(x + h, U)
            q_minus = spec.q(x - h, U)
            slope = (q_plus - q_minus) / (2.0 * h)
            expected = U.m1 * math.sqrt(potentials.evaluate(spec, x, U))
            assert abs(abs(slope) - expected) < 1e-5 * (1.0 + expected)

    def test_none_for_step_and_expression(self):
        assert Step(u0=1.0).q(1.0, U) is None
        expr = parse_potential_spec("expr:x^2;domain=-5..5")
        assert expr.q(0.5, U) is None


class TestFamilyHooks:
    SIX = [
        InfiniteSquareWell(L=2.5),
        HarmonicOscillator(omega=0.7),
        TrigWell(u0=1.3, a=0.4),
        VWell(u0=3.0),
        ParabolicWell(u0=0.05, a=2.0),
        QuadraticInverse(a=2.0, b=0.5),
    ]

    @pytest.mark.parametrize("spec", SIX, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("units", [U, UnitSystem(hbar=1.5, mass=0.7), UnitSystem(hbar=1e-3, mass=1e4)])
    def test_energy_scale_is_the_inline_formula_bit_for_bit(self, spec, units):
        w = spec.scale(units)
        expected = max(units.hbar ** 2 / (units.mass * w * w), 1e-12)
        assert spec.energy_scale(units).hex() == expected.hex()

    def test_step_has_no_energy_scale(self):
        with pytest.raises(InvalidInput, match="^the step potential has no bound levels; use the scatter subcommand$"):
            Step(u0=1.0).energy_scale(U)

    @pytest.mark.parametrize("text", ["isw:L=1e-300", "isw:L=1e-160", "expr:x^2;domain=0..1e-170"])
    def test_tiny_length_scale_is_invalid_input(self, text):
        with pytest.raises(InvalidInput, match="gives no finite energy scale"):
            parse_potential_spec(text).energy_scale(U)

    def test_huge_length_scale_is_floored(self):
        assert InfiniteSquareWell(L=1e200).energy_scale(U) == 1e-12

    def test_only_the_vwell_has_a_ground_estimate(self):
        units = UnitSystem(hbar=1.5, mass=0.7)
        for spec in self.SIX:
            if spec.kind != "vwell":
                assert spec.ground_estimate(units) is None
        scale = (units.hbar ** 2 * 3.0 ** 2 / units.mass) ** (1.0 / 3.0)
        assert VWell(u0=3.0).ground_estimate(units) == 1.5 * (0.5 / math.pi) ** (1.0 / 3.0) * scale

    def test_vwell_estimate_survives_a_u0_whose_square_overflows(self):
        # (hbar^2 u0^2 / m)^(1/3) = u0^(2/3) is finite at u0 = 1e224; u0^2 is not
        estimate = VWell(u0=1e224).ground_estimate(U)
        assert estimate == pytest.approx(1.5 * (0.5 / math.pi) ** (1.0 / 3.0) * 1e224 ** (2.0 / 3.0), rel=1e-14)

    def test_pole_coefficients(self):
        poles = {spec.kind: spec.pole_coeff for spec in self.SIX}
        assert poles == {"isw": None, "sho": None, "trig": None, "vwell": None, "parab": 0.2, "axb": 0.5}
        assert Step(u0=1.0).pole_coeff is None
        assert parse_potential_spec("expr:x^2;domain=-1..1").pole_coeff is None

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.builds(InfiniteSquareWell, L=st.floats(0.1, 10.0)),
            st.builds(HarmonicOscillator, omega=st.floats(0.1, 10.0)),
            st.builds(TrigWell, u0=st.floats(0.1, 10.0), a=st.floats(0.2, 5.0)),
            st.builds(VWell, u0=st.floats(0.1, 10.0)),
            st.builds(ParabolicWell, u0=st.floats(0.1, 10.0), a=st.floats(0.2, 5.0)),
            st.builds(QuadraticInverse, a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0)),
            st.floats(0.1, 10.0).map(lambda c: parse_potential_spec(f"expr:{c!r}*x^4-x;domain=-3..3")),
        ),
        st.builds(UnitSystem, hbar=st.floats(0.2, 5.0), mass=st.floats(0.2, 5.0)),
        # no closer to an end than a fine grid's first point: nearer a pole,
        # ** 2 on a Python float raises OverflowError where numpy gives inf
        st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=1, max_size=50),
    )
    def test_evaluate_grid_is_evaluate_at_each_point(self, spec, units, fractions):
        lo, hi = spec.span()
        xs = [x for x in sorted(lo + (hi - lo) * t for t in fractions) if spec.domain().contains(x) and x != 0.0]
        assume(xs)
        grid = spec.evaluate_grid(np.array(xs), units)
        points = np.array([_math_u(spec, x, units) for x in xs])
        assert grid.dtype == np.float64 and grid.shape == points.shape
        # np.sin, np.cos and ** 2 may round differently from math; trig and
        # parab are >= 0, so the distance of the bit patterns counts ulps
        ulps = np.abs(grid.view(np.int64) - points.view(np.int64))
        assert ulps.max() <= (4 if spec.kind in ("trig", "parab") else 0)


class TestUnitSystem:
    def test_m1_definition(self):
        u = UnitSystem(hbar=2.0, mass=8.0)
        assert u.m1 == math.sqrt(2.0 * 8.0) / 2.0

    def test_m1_is_no_parameter(self):
        u = UnitSystem(hbar=2.0, mass=8.0)
        assert u == UnitSystem(2.0, 8.0) and hash(u) == hash(UnitSystem(2.0, 8.0))
        assert repr(u) == "UnitSystem(hbar=2.0, mass=8.0)"
        assert pickle.loads(pickle.dumps(u)).m1 == u.m1

    def test_positive_required(self):
        with pytest.raises(Exception):
            UnitSystem(hbar=0.0, mass=1.0)
