"""Root bracketing, bisection, adaptive quadrature, self-consistent solves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turnpoint import numerics, potentials, solver
from turnpoint.errors import (
    AmbiguousWells,
    ConvergenceFailure,
    DomainError,
    MaxIterationsExceeded,
    NoBoundRegion,
    QuadratureDivergence,
)
from turnpoint.numerics import Bracket, Tolerances


def tabulate(f, xs):
    """f at each x, NaN where f raises an evaluation error: the pointwise scan."""
    values = []
    for x in xs:
        try:
            values.append(f(x))
        except numerics._EVAL_ERRORS:
            values.append(math.nan)
    return np.array(values, dtype=float)


def scan(f, lo, hi, n):
    """Sign changes of f on the uniform scan lo + (hi - lo) * i / n, i = 0..n."""
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    return numerics.sign_changes(xs, tabulate(f, xs))


class TestBracketRoots:
    """Brackets of x: sign changes of a uniform scan, as the U table gives them."""

    def test_single_root(self):
        brackets = scan(lambda x: x - 1.5, 0.0, 3.0, 64)
        assert len(brackets) == 1
        assert brackets[0].lo <= 1.5 <= brackets[0].hi

    def test_two_roots_of_parabola(self):
        brackets = scan(lambda x: 1.0 - x * x, -2.0, 2.0, 64)
        assert len(brackets) == 2
        assert brackets[0].lo <= -1.0 <= brackets[0].hi
        assert brackets[1].lo <= 1.0 <= brackets[1].hi

    def test_no_roots(self):
        assert scan(lambda x: 1.0 + x * x, -2.0, 2.0, 64) == []

    def test_skips_unevaluable_points(self):
        def f(x):
            if x == 0.0:
                raise ZeroDivisionError
            return x - 0.75

        brackets = scan(f, -1.0, 1.0, 64)
        assert len(brackets) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, math.nan, math.inf,
                                     -math.inf, None]), min_size=3, max_size=40))
    def test_sign_change_rule(self, values):
        # the scan visits x = 0, 1, ..., n exactly; None makes f raise there
        def f(x):
            v = values[int(x)]
            if v is None:
                raise ArithmeticError
            return v

        n = len(values) - 1
        got = [(b.lo, b.hi, b.f_lo, b.f_hi) for b in scan(f, 0.0, float(n), n)]
        assert got == sign_change_loop(values)


def sign_change_loop(values):
    """Reference scan over values[i] at x = i, point by point."""
    v = [None if a is None or not math.isfinite(a) else a for a in values]
    out = []
    for i in range(len(v) - 1):
        a, b = v[i], v[i + 1]
        if a is None or b is None or b == 0.0:
            continue
        if a == 0.0 or (a > 0.0) != (b > 0.0):
            out.append((i, i + 1, a, b))
    if v[-1] == 0.0 and v[-2] is not None and v[-2] != 0.0:
        out.append((len(v) - 2, len(v) - 1, v[-2], v[-1]))
    return out


class TestBisect:
    def test_sqrt2_to_1e10_interval_width(self):
        tol = Tolerances(root_abs=1e-10, root_rel=1e-300)
        b = Bracket(1.0, 2.0, -1.0, 2.0)
        root = numerics.bisect(lambda x: x * x - 2.0, b, tol)
        assert abs(root - math.sqrt(2.0)) < 1e-10

    def test_default_tolerances_are_tighter(self):
        root = numerics.bisect(lambda x: x * x * x - 8.0, Bracket(0.0, 4.0, -8.0, 56.0))
        assert root == pytest.approx(2.0, abs=1e-10)

    def test_root_on_endpoint(self):
        root = numerics.bisect(lambda x: x, Bracket(0.0, 1.0, 0.0, 1.0))
        assert root == 0.0

    def test_mismatched_signs_rejected(self):
        with pytest.raises(ValueError):
            Bracket(0.0, 1.0, 1.0, 2.0)


# test functions with one sign change at exactly s: each is h(x - s) for
# an h that keeps the sign of its argument in floats (a pole for cot)
_SIGN_CHANGES = {
    "cubic": lambda s, k: lambda x: k * (x - s) ** 3 + (x - s),
    "exp": lambda s, k: lambda x: math.expm1(k * (x - s)),
    "atan": lambda s, k: lambda x: math.atan(k * (x - s)),
    "kink": lambda s, k: lambda x: abs(x - s + k) - k,  # roots at s and s - 2k
    "step": lambda s, k: lambda x: k if x > s else -1.0 / k,
    "cot pole": lambda s, k: lambda x: 1.0 / math.tan(x - s) if x != s else math.inf,
}


class TestBisectProperties:
    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(sorted(_SIGN_CHANGES)),
        s=st.floats(-50.0, 50.0),
        k=st.floats(0.01, 10.0),
        left=st.floats(1e-6, 1.5),
        right=st.floats(1e-6, 1.5),
        tol=st.sampled_from([
            Tolerances(),
            Tolerances(root_abs=1e-14, root_rel=1e-14),
            Tolerances(root_abs=1e-3, root_rel=1e-300),
        ]),
    )
    def test_root_is_a_sign_change_and_no_evaluation_leaves_the_bracket(self, kind, s, k, left, right, tol):
        f = _SIGN_CHANGES[kind](s, k)
        if kind == "kink":
            left = min(left, k)  # keep the root at s - 2k outside
        lo, hi = s - left, s + right
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0.0 or f_hi == 0.0 or (f_lo > 0.0) == (f_hi > 0.0):
            return  # lo or hi rounded onto s
        seen = []

        def recorded(x):
            seen.append(x)
            return f(x)

        root = numerics.bisect(recorded, Bracket(lo, hi, f_lo, f_hi), tol)
        assert all(lo <= x <= hi for x in seen)
        assert abs(root - s) <= tol.root_abs + tol.root_rel * abs(root)

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.floats(1e-300, 1e300))
    def test_exact_zero_at_either_end_is_returned(self, lo, width, value):
        def fail(x):
            raise AssertionError("evaluated f although an end is a root")

        hi = lo + width
        assert numerics.bisect(fail, Bracket(lo, hi, 0.0, value)) == lo
        assert numerics.bisect(fail, Bracket(lo, hi, -value, 0.0)) == hi

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0 / 3.0, 0.9])
    def test_tolerance_below_one_ulp_never_converges(self, s):
        tiny = Tolerances(root_abs=1e-300, root_rel=1e-300)
        with pytest.raises(MaxIterationsExceeded):
            numerics.bisect(_SIGN_CHANGES["step"](s, 1.0), Bracket(0.0, 1.0, -1.0, 1.0), tiny)

    def test_infinite_values_inside_the_bracket_are_passed_over(self):
        # the ground residual is -inf where the width vanishes
        values = []

        def f(x):
            values.append(-math.inf if 0.0 < x < 0.9 else x - 0.95)
            return values[-1]

        root = numerics.bisect(f, Bracket(0.0, 1.0, -1e-3, 0.05))
        assert -math.inf in values
        assert root == pytest.approx(0.95, abs=1e-10)


def _wall(x):
    # a hard wall at both ends, where U would be undefined
    if x in (0.0, 1.0):
        raise DomainError(f"wall at {x}")
    return 6.0 * x * (1.0 - x)


# integrands on [a, b]; the last three are singular or walled at an end
_OPEN_CASES = {
    "cubic": (lambda x: x ** 3 - 2.0 * x + 1.0, 0.0, 2.0),
    "sin": (math.sin, 0.0, math.pi),
    "x^-1/2 at a": (lambda x: x ** -0.5, 0.0, 1.0),
    "(1-x)^-1/2 at b": (lambda x: (1.0 - x) ** -0.5, 0.0, 1.0),
    "walls at a and b": (_wall, 0.0, 1.0),
}


class TestIntegrate:
    def test_cubic_is_exact(self):
        # the rule is exact on cubics (G7 to degree 13); allow one rounding of the result scale
        value = numerics.integrate(lambda x: x ** 3 - 2.0 * x + 1.0, 0.0, 2.0)
        exact = 2.0  # x^4/4 - x^2 + x at 2
        assert abs(value - exact) <= math.ulp(exact)

    def test_smooth_transcendental(self):
        value = numerics.integrate(math.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_inverse_sqrt_endpoint_singularity(self):
        value = numerics.integrate(lambda x: x ** -0.5, 0.0, 1.0)
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_singularity_at_upper_endpoint(self):
        value = numerics.integrate(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0)
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_walls_at_both_ends(self):
        assert numerics.integrate(_wall, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(_OPEN_CASES))
    def test_f_is_never_called_at_the_ends(self, name):
        f, a, b = _OPEN_CASES[name]
        seen = []

        def recorded(x):
            seen.append(x)
            return f(x)

        numerics.integrate(recorded, a, b)
        assert seen and all(a < x < b for x in seen)

    def test_integral_that_cancels_to_zero_stops(self):
        # |K15 - G7| at rounding level is not halved, although |total| is about 0
        assert abs(numerics.integrate(lambda x: x - 0.3, 0.0, 0.6)) <= 1e-15

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            numerics.integrate(lambda x: x, 1.0, 0.0)

    def test_nonintegrable_pole_raises(self):
        with pytest.raises(QuadratureDivergence):
            numerics.integrate(lambda x: 1.0 / x, 0.0, 1.0)
        with pytest.raises(QuadratureDivergence, match="not finite"):
            numerics.integrate(lambda x: math.nan, 0.0, 1.0)

    def test_zero_width_interval(self):
        assert numerics.integrate(lambda x: x * x, 1.0, 1.0) == 0.0

    def test_noise_stops_at_the_panel_budget(self):
        # hash noise: |K15 - G7| is about the panel's width on every panel, so
        # the estimates never sum below quad_rel and no panel nears the depth cap
        calls = [0]

        def noise(x):
            calls[0] += 1
            return hash(x) % 1000 / 1000.0

        with pytest.raises(QuadratureDivergence, match=r"more than 1000 panels on \[0.0, 1.0\]"):
            numerics.integrate(noise, 0.0, 1.0)
        assert calls[0] <= 15 * 2 * numerics._QUAD_MAX_PANELS


class TestSolveSelfConsistent:
    def test_linear_residual(self):
        # g(E) = E - 3 has its root at 3
        root = numerics.solve_self_consistent(lambda E: E - 3.0, 0.1, 10.0, Tolerances())
        assert root == pytest.approx(3.0, rel=1e-10)

    def test_expands_upper_bound(self):
        root = numerics.solve_self_consistent(lambda E: E - 500.0, 0.1, 1.0, Tolerances())
        assert root == pytest.approx(500.0, rel=1e-10)

    def test_no_root_raises(self):
        with pytest.raises(ConvergenceFailure):
            numerics.solve_self_consistent(lambda E: 1.0 + E * E, 0.1, 1.0, Tolerances())

    def test_failure_names_why_points_were_skipped(self):
        # no scan point has a finite g (0.4 is below 0.41), so the climb starts
        # from e_lo: it steps over the bottom, caps at 4.44 and closes in on 2
        def g(E):
            if E < 0.41:
                raise AmbiguousWells(f"found 4 turning points at E={E}")
            if E >= 2.0:
                raise NoBoundRegion("found 0 turning point(s)")
            return -1.0

        with pytest.raises(ConvergenceFailure) as info:
            numerics.solve_self_consistent(g, 0.0, 4.0, Tolerances())
        assert str(info.value) == (
            "no sign change of the residual on [0.0, 4.444444444443999]; the climb skipped "
            "36 of its 60 energies: 11 for AmbiguousWells (found 4 turning points at E=4e-12), "
            "25 for NoBoundRegion (found 0 turning point(s))"
        )

    def test_a_floor_search_stops_at_its_first_g_at_least_0(self):
        # tenfold steps from e_lo, the first (e_hi - e_lo) * 1e-12: g is taken
        # up to its first value >= 0 and then only inside the bracket below it
        calls = []

        def g(E):
            calls.append(E)
            return E - 3.0

        root = numerics.solve_self_consistent(g, 0.0, 10.0, Tolerances())
        assert root == pytest.approx(3.0, rel=1e-10)
        first = next(i for i, E in enumerate(calls) if E >= 3.0)
        assert first == 12 and calls[0] == 1e-11
        assert all(calls[first - 1] <= E <= calls[first] for E in calls[first:])

    def test_failure_without_skipped_points_keeps_its_message(self):
        # g > 0 everywhere: the climb closes in on its start from above
        with pytest.raises(ConvergenceFailure) as info:
            numerics.solve_self_consistent(lambda E: 1.0 + E * E, 0.1, 1.0, Tolerances())
        assert str(info.value) == "no sign change of the residual on [0.1, 0.10000000000090001]"

    def test_a_negative_window_climbs_past_zero(self):
        # the climb from -5 steps by offsets from the points below, so it
        # rises through E = 0 to the root at 2
        root = numerics.solve_self_consistent(lambda E: E - 2.0, -5.0, -4.9, Tolerances())
        assert root == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("g", [
        # one sign change at 2 and a double root at 7, in the same bracket
        lambda E: (E - 2.0) * (E - 7.0) ** 2,
        # sign changes at 2 and 50, with g < 0 below the lower one, as a
        # solver residual has
        lambda E: -(E - 2.0) * (E - 50.0),
    ], ids=["double-root-above", "two-sign-changes"])
    def test_root_at_2_below_a_root_at_7_or_50(self, g):
        root = numerics.solve_self_consistent(g, 0.1, 1000.0, Tolerances())
        assert root == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("bad", ["nan", "raise"])
    def test_linear_scan_when_every_geometric_point_fails(self, bad):
        lo, hi = 0.1, 1000.0
        geometric = {lo} | {lo + (hi - lo) * 10.0 ** -j for j in range(13)}

        def g(E):
            if E in geometric:
                if bad == "raise":
                    raise NoBoundRegion("found 0 turning point(s)")
                return math.nan
            return E - 30.0

        assert numerics.solve_self_consistent(g, lo, hi, Tolerances()) == pytest.approx(30.0, rel=1e-10)

    def test_a_root_at_zero_ends(self):
        # root_rel * |E| vanishes there: the absolute tolerance, 1e-17 of the
        # window's width, is what ends the refinement
        root = numerics.solve_self_consistent(lambda E: E * abs(E), -1.0, 1.0, Tolerances())
        assert abs(root) <= 2e-17

    def test_nonlinear_width_style_equation(self):
        # E = 8 / E  =>  E = sqrt(8)
        root = numerics.solve_self_consistent(lambda E: E - 8.0 / E, 0.1, 100.0, Tolerances())
        assert root == pytest.approx(math.sqrt(8.0), rel=1e-10)


class TestClimb:
    """`bracket_roots`, the upward search that brackets every level."""

    def test_doubles_the_step_until_the_residual_turns(self):
        # steps of 1, 2 and 4 from 0: g at 1, 3 and 7, the first >= 0 at 7
        b = numerics.bracket_roots(lambda E: E - 5.0, 0.0, -5.0, 1.0, 2.0)
        assert (b.lo, b.hi, b.f_lo, b.f_hi) == (3.0, 7.0, -2.0, 2.0)

    def test_a_point_that_raises_gives_no_bracket(self):
        # g raises above 3, below its root at 5: 7 caps the climb, which then
        # halves its steps toward the cap and never passes it
        calls = []

        def g(E):
            calls.append(E)
            if E > 3.0:
                raise NoBoundRegion("found 0 turning point(s)")
            return E - 5.0

        with pytest.raises(ConvergenceFailure, match="skipped 54 of its 60 energies: 54 for NoBoundRegion"):
            numerics.bracket_roots(g, 0.0, -5.0, 1.0, 2.0)
        assert calls[:7] == [1.0, 3.0, 7.0, 5.0, 4.0, 3.5, 3.25]
        assert max(calls[3:]) < 7.0

    def test_no_sign_change_in_60_steps_gives_no_bracket(self):
        calls = []

        def g(E):
            calls.append(E)
            return -1.0

        with pytest.raises(ConvergenceFailure, match=r"^no sign change of the residual on \[0.0, "):
            numerics.bracket_roots(g, 0.0, -1.0, 1.0, 2.0)
        assert len(calls) == 60

    @pytest.mark.parametrize("bad", [-math.inf, math.nan, "raise"])
    def test_steps_over_an_unevaluable_bottom(self, bad):
        # nothing finite below 0.5: the tenfold steps go on over it (0.01,
        # 0.11) and climb on from the first finite g < 0 (1.11)
        def g(E):
            if E < 0.5:
                if bad == "raise":
                    raise NoBoundRegion("found 1 turning point(s)")
                return bad
            return E - 30.0

        b = numerics.bracket_roots(g, 0.0, math.nan, 0.01, 10.0)
        assert (b.lo, b.hi) == (pytest.approx(11.11), pytest.approx(111.11))

    def test_halves_toward_an_unevaluable_top(self):
        # the root at 6.9 sits just under a rim at 7; the step from 3 to 11
        # overshoots it, and the halved steps bracket the root below the rim
        def g(E):
            if E > 7.0:
                raise NoBoundRegion("found 0 turning point(s)")
            return E - 6.9

        b = numerics.bracket_roots(g, 0.0, -6.9, 1.0, 2.0)
        assert b.lo < 6.9 <= b.hi <= 7.0
        assert numerics._refine(g, b, Tolerances(), 10.0) == pytest.approx(6.9, rel=1e-12)

    def test_closes_in_on_a_first_value_above_the_level(self):
        # g cannot be evaluated below 0.4 and is already positive at 1.11, the
        # first point above: the root at 0.6 lies in the band between them
        def g(E):
            if E < 0.4:
                raise AmbiguousWells("found 4 turning points")
            return E - 0.6

        b = numerics.bracket_roots(g, 0.0, math.nan, 0.01, 10.0)
        assert 0.4 <= b.lo < 0.6 <= b.hi < 1.11


class TestClimbSkip:
    """`bracket_roots` with `skip`: the points a cheap test proves below the
    level are stepped over, and the bracket is the plain climb's."""

    @staticmethod
    def _counted(g):
        calls = []

        def counted(E):
            calls.append(E)
            return g(E)

        return counted, calls

    @pytest.mark.parametrize("lo, f_lo, step, growth", [(0.0, math.nan, 1e-9, 10.0), (0.5, -29.5, 0.75, 2.0)])
    def test_gives_the_plain_climbs_bracket(self, lo, f_lo, step, growth):
        def g(E):  # root near 13.03
            return E * (1.0 + 0.1 * E) - 30.0

        plain = numerics.bracket_roots(g, lo, f_lo, step, growth)
        for bound in (1e-3, 1.0, 12.0, 13.0):
            b = numerics.bracket_roots(g, lo, f_lo, step, growth, lambda E: E < bound)
            assert (b.lo, b.hi, b.f_lo, b.f_hi) == (plain.lo, plain.hi, plain.f_lo, plain.f_hi)

    def test_evaluates_no_skipped_point_but_the_last(self):
        # plain points 1, 3, 7, 15, 31: 1, 3 and 7 skipped, g at 7, 15 and 31
        g, calls = self._counted(lambda E: E - 20.0)
        b = numerics.bracket_roots(g, 0.0, -20.0, 1.0, 2.0, lambda E: E < 10.0)
        assert calls == [7.0, 15.0, 31.0]
        assert (b.lo, b.hi, b.f_lo, b.f_hi) == (15.0, 31.0, -5.0, 11.0)

    def test_a_climb_that_fails_after_skipping_climbs_once(self):
        def g(E):
            if E > 40.0:
                raise NoBoundRegion("found 0 turning point(s)")
            return -1.0

        with pytest.raises(ConvergenceFailure) as plain:
            numerics.bracket_roots(g, 0.0, math.nan, 1.0, 2.0)
        counted, calls = self._counted(g)
        with pytest.raises(ConvergenceFailure) as skipped:
            numerics.bracket_roots(counted, 0.0, math.nan, 1.0, 2.0, lambda E: E < 20.0)
        assert str(skipped.value) == str(plain.value)
        # 1, 3, 7 and 15 skipped; g at 15, then the 56 points left, and no climb from 0
        assert calls[:3] == [15.0, 31.0, 63.0] and len(calls) == 1 + 56

    def test_a_skip_through_all_60_points_fails_as_the_plain_climb(self):
        with pytest.raises(ConvergenceFailure) as plain:
            numerics.bracket_roots(lambda E: -1.0, 0.0, -1.0, 1.0, 2.0)
        with pytest.raises(ConvergenceFailure) as skipped:
            numerics.bracket_roots(lambda E: -1.0, 0.0, -1.0, 1.0, 2.0, lambda E: True)
        assert str(skipped.value) == str(plain.value)

    @pytest.mark.parametrize("bad", [-math.inf, math.nan, "raise"])
    def test_a_resume_point_that_is_no_finite_negative_g_climbs_plainly(self, bad):
        # g is not evaluable below 0.5, where skip holds (at 0.01 and 0.11):
        # g at the resume point 0.11 is no finite value < 0
        def g(E):
            if E < 0.5:
                if bad == "raise":
                    raise NoBoundRegion("found 1 turning point(s)")
                return bad
            return E - 30.0

        plain = numerics.bracket_roots(g, 0.0, math.nan, 0.01, 10.0)
        counted, calls = self._counted(g)
        b = numerics.bracket_roots(counted, 0.0, math.nan, 0.01, 10.0, lambda E: E < 0.5)
        assert (b.lo, b.hi, b.f_lo, b.f_hi) == (plain.lo, plain.hi, plain.f_lo, plain.f_hi)
        assert calls[:3] == [0.11, 0.01, 0.11]  # the resume point, then the plain climb from 0

    def test_a_skip_that_never_holds_climbs_once(self):
        g, calls = self._counted(lambda E: E - 5.0)
        b = numerics.bracket_roots(g, 0.0, -5.0, 1.0, 2.0, lambda E: False)
        assert (b.lo, b.hi) == (3.0, 7.0) and calls == [1.0, 3.0, 7.0]


class TestSolverSkip:
    """The solver's `skip` for an expression's climbs, read off its U table."""

    @staticmethod
    def _skips(monkeypatch, solve):
        seen = []
        climb = numerics.bracket_roots

        def spy(g, lo, f_lo, step, growth, skip=None):
            seen.append(skip)
            return climb(g, lo, f_lo, step, growth, skip)

        monkeypatch.setattr(numerics, "bracket_roots", spy)
        solve()
        return seen

    def test_is_false_at_and_below_zero(self, monkeypatch):
        # U = x^2 - 0.1: the climb starts below 0, where math.sqrt(E) raises
        spec = potentials.parse_potential_spec("expr:x^2-0.1;domain=-3..3")
        (skip,) = self._skips(monkeypatch, lambda: solver.ground_state_energy(spec))
        assert not skip(0.0) and not skip(-0.0) and not skip(-0.05)
        assert skip(1e-6)

    def test_holds_only_where_the_residual_is_below_zero(self, monkeypatch):
        spec = potentials.parse_potential_spec("expr:0.5*x^2;domain=-12..12")
        (skip,) = self._skips(monkeypatch, lambda: solver.ground_state_energy(spec))
        shared = solver._Shared(spec, potentials.UnitSystem(), Tolerances())
        energies = [10.0 ** k for k in range(-9, 1)] + [0.3, 0.45, 0.49, 0.5, 0.6]
        held = [E for E in energies if skip(E)]
        assert held and max(held) < 0.5  # the ground level is 0.5
        for E in held:
            d = solver.turning_points(spec, E, tol=shared.tp_tol, _table=shared.table).d
            assert math.sqrt(2.0 * E) * d - 2.0 < 0.0

    def test_closed_form_wells_get_none(self, monkeypatch):
        spec = potentials.HarmonicOscillator(omega=1.0)

        def solve():
            ground = solver.ground_state_energy(spec)
            f_below = math.sqrt(2.0 * ground.energy) * ground.tp.d - math.pi
            solver.excited_energy(spec, solver.LevelSpec(1), _below=(ground.energy, f_below, 0.5))

        assert self._skips(monkeypatch, solve) == [None, None]
