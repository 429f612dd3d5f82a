"""Expression parser and evaluator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turnpoint import expressions, numerics
from turnpoint.errors import EvalError, ExpressionSyntaxError, UnknownIdentifier
from turnpoint.expressions import Binary, Constant, Number, Unary, Variable
from turnpoint.potentials import Domain, Expression, UnitSystem


def ev(source, x=0.0):
    return expressions.evaluate(expressions.parse(source), x)


class TestParsing:
    def test_number_literal(self):
        assert ev("3.5") == 3.5

    def test_scientific_notation(self):
        assert ev("1e-3") == 1e-3
        assert ev("2.5E2") == 250.0

    def test_variable(self):
        assert ev("x", 4.0) == 4.0

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e

    def test_precedence_mul_over_add(self):
        assert ev("2+3*4") == 14.0

    def test_precedence_pow_over_mul(self):
        assert ev("2*3^2") == 18.0

    def test_pow_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_binds_looser_than_pow(self):
        # -x^2 parses as -(x^2)
        assert ev("-2^2") == -4.0

    def test_parentheses(self):
        assert ev("(2+3)*4") == 20.0

    def test_division(self):
        assert ev("1/4") == 0.25

    def test_subtraction_left_associative(self):
        assert ev("10-3-2") == 5.0

    def test_whitespace_tolerated(self):
        assert ev(" 1 +  2 * x ", 3.0) == 7.0

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExpressionSyntaxError):
            expressions.parse("2x")

    def test_unbalanced_parentheses(self):
        with pytest.raises(ExpressionSyntaxError):
            expressions.parse("(1+2")

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            expressions.parse("")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            expressions.parse("1+2)")

    def test_error_carries_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc_info:
            expressions.parse("1+*2")
        assert exc_info.value.offset == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            expressions.parse("sinh(x)")

    def test_unknown_variable(self):
        with pytest.raises(UnknownIdentifier):
            expressions.parse("y+1")

    @pytest.mark.parametrize("source, offset", [
        ("(" * 200 + "x" + ")" * 200, 100),  # parser recursion
        ("-" * 600 + "x", 100),
        ("2^" * 150 + "x", 200),
        ("x" + "+x" * 5000, 0),  # a left-deep AST, parsed without recursion
        ("x" + "*x" * 100, 0),
    ])
    def test_nesting_past_the_bound_is_a_syntax_error(self, source, offset):
        with pytest.raises(ExpressionSyntaxError, match=r"^expression nested deeper than 100 levels") as info:
            expressions.parse(source)
        assert info.value.offset == offset

    @pytest.mark.parametrize("source, value", [
        ("(" * 99 + "x" + ")" * 99, 2.0),
        ("-" * 99 + "x", -2.0),
        ("x" + "+x" * 99, 200.0),
    ])
    def test_nesting_at_the_bound_parses_and_evaluates(self, source, value):
        assert ev(source, 2.0) == value


class TestEvaluation:
    def test_sho_expression(self):
        assert ev("0.5*x^2", 2.0) == 2.0

    @pytest.mark.parametrize(
        "source,x,expected",
        [
            ("sin(x)", math.pi / 2.0, 1.0),
            ("cos(x)", 0.0, 1.0),
            ("tan(x)", math.pi / 4.0, 0.9999999999999999),
            ("cot(x)", math.pi / 4.0, 1.0000000000000002),
            ("sqrt(x)", 9.0, 3.0),
            ("exp(x)", 1.0, math.e),
            ("ln(x)", math.e, 1.0),
            ("abs(x)", -2.0, 2.0),
        ],
    )
    def test_functions(self, source, x, expected):
        assert ev(source, x) == pytest.approx(expected, rel=1e-15)

    def test_nested_calls(self):
        assert ev("sqrt(abs(-16))") == 4.0

    def test_division_by_zero_is_hard_error(self):
        with pytest.raises(EvalError):
            ev("1/x", 0.0)

    def test_sqrt_of_negative_is_hard_error(self):
        with pytest.raises(EvalError):
            ev("sqrt(x)", -1.0)

    def test_ln_of_nonpositive_is_hard_error(self):
        with pytest.raises(EvalError):
            ev("ln(x)", 0.0)

    def test_overflow_is_hard_error(self):
        with pytest.raises(EvalError):
            ev("exp(x)", 1e6)

    def test_ast_is_reusable(self):
        ast = expressions.parse("x^2 - 1")
        values = [expressions.evaluate(ast, x) for x in (-1.0, 0.0, 2.0)]
        assert values == [0.0, -1.0, 3.0]


# -- compiled evaluator against a tree walk ---------------------------------


def walk(node, x):
    """Reference tree walk: children left to right, then the node's operation."""
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        return x
    if isinstance(node, Constant):
        return expressions.CONSTANTS[node.name]
    if isinstance(node, Unary):
        v = walk(node.child, x)
        op = node.op
        if op == "neg":
            return -v
        if op in ("sin", "cos", "abs"):
            return {"sin": math.sin, "cos": math.cos, "abs": abs}[op](v)
        if op == "tan":
            out = math.tan(v)
            if not math.isfinite(out):
                raise EvalError(f"tan pole at x={x}")
            return out
        if op == "cot":
            s = math.sin(v)
            if s == 0.0:
                raise EvalError(f"cot pole at x={x}")
            return math.cos(v) / s
        if op == "sqrt":
            if v < 0.0:
                raise EvalError(f"sqrt of negative value {v} at x={x}")
            return math.sqrt(v)
        if op == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise EvalError(f"exp overflow at x={x}") from None
        if v <= 0.0:  # ln
            raise EvalError(f"ln of non-positive value {v} at x={x}")
        return math.log(v)
    left, right = walk(node.left, x), walk(node.right, x)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if right == 0.0:
            raise EvalError(f"division by zero at x={x}")
        return left / right
    try:
        out = left ** right
    except (OverflowError, ZeroDivisionError, ValueError):
        raise EvalError(f"invalid power {left}^{right} at x={x}") from None
    if isinstance(out, complex):
        raise EvalError(f"complex power {left}^{right} at x={x}")
    return out


def walk_checked(node, x):
    result = walk(node, x)
    if not math.isfinite(result):
        raise EvalError(f"non-finite result at x={x}")
    return result


def outcome(fn, *args):
    """Bit pattern of the result, or the exception's type and message."""
    try:
        return ("ok", fn(*args).hex())
    except Exception as exc:  # noqa: BLE001
        return (type(exc), str(exc))


_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.0, 3.0, 1e-300, 1e300]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
_LEAVES = st.one_of(
    _NUMBERS.map(Number),
    st.just(Variable()),
    st.sampled_from(sorted(expressions.CONSTANTS)).map(Constant),
)
_ASTS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", *sorted(expressions.FUNCTIONS)]), kids),
        st.builds(Binary, st.sampled_from(list("+-*/^")), kids, kids),
    ),
    max_leaves=12,
)
_XS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.pi, 0.5, 1e308, -1e308]),
    st.floats(-50.0, 50.0, allow_nan=False),
)


class TestCompile:
    @settings(max_examples=400, deadline=None)
    @given(_ASTS, st.lists(_XS, min_size=1, max_size=4))
    def test_matches_tree_walk(self, ast, xs):
        compiled = expressions.compile(ast)
        for x in xs:
            expected = outcome(walk_checked, ast, x)
            assert outcome(compiled, x) == expected
            assert outcome(expressions.evaluate, ast, x) == expected

    def test_compiled_function_is_reusable(self):
        f = expressions.compile(expressions.parse("x^2 - 1"))
        assert [f(x) for x in (-1.0, 0.0, 2.0)] == [0.0, -1.0, 3.0]
        with pytest.raises(EvalError):
            expressions.compile(expressions.parse("1/x"))(0.0)


def raised_or_bits(fn, x):
    """The bits of fn(x), or None where it raises an evaluation error."""
    try:
        return fn(x).hex()
    except numerics._EVAL_ERRORS:
        return None


def nan_or_bits(values):
    return [None if math.isnan(v) else v.hex() for v in values.tolist()]


_HUGE = st.floats(1e307, 1.7976931348623157e308)
_DOMAIN_ENDS = st.one_of(
    st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 60.0)).map(lambda t: (t[0], t[0] + t[1])),
    st.sampled_from([(-1.0, 1.0), (0.0, math.pi), (-1e308, 1e308), (-1.7976931348623157e308, 0.0)]),
)
_GRID_XS = st.lists(st.one_of(_XS, _HUGE, _HUGE.map(lambda x: -x)), max_size=12)


class TestCompileGrid:
    @settings(max_examples=300, deadline=None)
    @given(_ASTS, _DOMAIN_ENDS, _GRID_XS)
    @example(expressions.parse("x^0.5"), (-5.0, 5.0), [-4.0, 4.0])  # complex, not an error
    @example(expressions.parse("sqrt(x)^0"), (-5.0, 5.0), [-1.0, 1.0])  # nan ** 0 is 1
    @example(expressions.parse("1/x"), (-1.0, 1.0), [0.0, -0.0])
    @example(expressions.parse("exp(x)"), (0.0, 1000.0), [709.0, 710.0])
    @example(expressions.parse("cot(x)"), (-1.0, 1.0), [0.0, 0.5])
    @example(expressions.parse("ln(x)"), (-1.0, 1.0), [0.0, 0.5])
    @example(expressions.parse("sin(1e308*x)"), (0.0, 20.0), [0.5, 10.0])  # sin(inf) raises ValueError
    # numpy's power, exp and tan round differently from Python's on some hosts, at about 1 in 200 points
    @example(expressions.parse("x^4.0 + exp(x) + tan(x)"), (-4.0, 4.0), np.linspace(-3.0, 3.0, 2001).tolist())
    def test_equals_the_closure_bit_for_bit(self, ast, ends, xs):
        # NaN exactly where the closure raises, its bits elsewhere, and no warning;
        # an expression well's grid is NaN outside its open domain
        lo, hi = ends
        xs = [0.0, -0.0, lo, hi, math.inf, -math.inf, *xs]
        spec = Expression(ast, Domain(lo, hi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = expressions.compile_grid(ast)(np.array(xs))
            well = spec.evaluate_grid(np.array(xs), UnitSystem())
        assert nan_or_bits(grid) == [raised_or_bits(expressions.compile(ast), x) for x in xs]
        assert nan_or_bits(well) == [raised_or_bits(lambda x: spec.evaluate(x, UnitSystem()), x) for x in xs]

