"""Small arithmetic expression language for user-supplied potentials U(x).

Grammar (standard precedence, pow right-associative, no implicit
multiplication):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | IDENT '(' expr ')' | IDENT | '(' expr ')'

IDENT is one of the functions {sin, cos, tan, cot, sqrt, exp, ln, abs},
a constant {pi, e}, or the variable x.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvalError, ExpressionSyntaxError, UnknownIdentifier

FUNCTIONS = frozenset({"sin", "cos", "tan", "cot", "sqrt", "exp", "ln", "abs"})
CONSTANTS = {"pi": math.pi, "e": math.e}
_MAX_DEPTH = 100  # parser recursion (parentheses, unary minus, ^) and AST height
_TOO_DEEP = f"expression nested deeper than {_MAX_DEPTH} levels"


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Constant:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a function name
    child: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


ExprAst = Number | Variable | Constant | Unary | Binary


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'lparen', 'rparen', 'end'
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            seen_exp = False
            while j < n and (source[j].isdigit() or source[j] == "."
                             or source[j] in "eE"
                             or (seen_exp and source[j] in "+-" and source[j - 1] in "eE")):
                if source[j] in "eE" and j + 1 < n and (source[j + 1].isdigit() or source[j + 1] in "+-"):
                    seen_exp = True
                elif source[j] in "eE":
                    break
                j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionSyntaxError(f"malformed number {text!r}", i)
            tokens.append(_Token("num", text, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionSyntaxError(f"expected {what}", tok.offset)
        return self.advance()

    # depth counts the parentheses, unary minuses and exponents around the input at hand
    def parse_expr(self, depth: int) -> ExprAst:
        node = self.parse_term(depth)
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.parse_term(depth))
        return node

    def parse_term(self, depth: int) -> ExprAst:
        node = self.parse_unary(depth)
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.parse_unary(depth))
        return node

    def parse_unary(self, depth: int) -> ExprAst:
        if depth > _MAX_DEPTH:
            raise ExpressionSyntaxError(_TOO_DEEP, self.peek().offset)
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Unary("neg", self.parse_unary(depth + 1))
        return self.parse_power(depth)

    def parse_power(self, depth: int) -> ExprAst:
        base = self.parse_atom(depth)
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            # right-associative; exponent may carry its own unary minus
            return Binary("^", base, self.parse_unary(depth + 1))
        return base

    def parse_atom(self, depth: int) -> ExprAst:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Number(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text.lower()
            if name in FUNCTIONS:
                self.expect("lparen", f"'(' after function {name}")
                arg = self.parse_expr(depth + 1)
                self.expect("rparen", "')'")
                return Unary(name, arg)
            if name in CONSTANTS:
                return Constant(name)
            if name == "x":
                return Variable()
            raise UnknownIdentifier(f"unknown identifier {tok.text!r}", tok.offset)
        raise ExpressionSyntaxError("expected a number, identifier or '('", tok.offset)


def parse(source: str) -> ExprAst:
    """Parse an expression in the variable x into an AST.

    Raises ExpressionSyntaxError (with byte offset) on malformed input or
    nesting past _MAX_DEPTH (chains of + or * are left-deep in the AST), and
    UnknownIdentifier for names outside the function/constant set.
    """
    if not source.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr(1)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.offset)
    nodes = [(node, 1)]  # the AST's height, walked without recursion
    while nodes:
        sub, height = nodes.pop()
        if height > _MAX_DEPTH:
            raise ExpressionSyntaxError(_TOO_DEEP, 0)
        kids = (sub.left, sub.right) if isinstance(sub, Binary) else (sub.child,) if isinstance(sub, Unary) else ()
        nodes += [(kid, height + 1) for kid in kids]
    return node


def compile(ast: ExprAst) -> Callable[[float], float]:
    """Evaluator for the AST, built once as nested closures.

    Each closure does what a walk of its node would: children left to
    right, then the same float operation and the same EvalError checks, so
    results are bit-identical to a tree walk. The result must be finite.
    """
    body = _compile(ast)

    def evaluate(x: float) -> float:
        result = body(x)
        if not math.isfinite(result):
            raise EvalError(f"non-finite result at x={x}")
        return result

    return evaluate


def evaluate(ast: ExprAst, x: float) -> float:
    """Evaluate the AST at x. Raises EvalError at poles and domain violations.

    Compiles on every call; compile once to evaluate repeatedly.
    """
    return compile(ast)(x)


def compile_grid(ast: ExprAst) -> Callable[[np.ndarray], np.ndarray]:
    """Vector form of `compile`: at each x of a float array, the bits that
    compile(ast)(x) returns, and NaN exactly where it raises.

    + - * /, negation, abs and sqrt run as numpy ufuncs, which round
    correctly, as Python's float operations do. ^ and the math functions run
    per element through the closures' own ** and math calls, as numpy's may
    round differently. Raises are kept in a mask, not as NaN: nan ** 0 is 1,
    and (-8.0) ** 0.5 is a complex number, not an error.
    """
    body = _compile_grid(ast)

    def evaluate(xs: np.ndarray) -> np.ndarray:
        raised = np.zeros(len(xs), dtype=bool)
        with np.errstate(all="ignore"):
            values = body(xs, raised)
            return np.where(raised | ~np.isfinite(values), math.nan, values)

    return evaluate


def _compile(node: ExprAst) -> Callable[[float], float]:
    if isinstance(node, Number):
        value = node.value
        return lambda x: value
    if isinstance(node, Variable):
        return lambda x: x
    if isinstance(node, Constant):
        value = CONSTANTS[node.name]
        return lambda x: value
    if isinstance(node, Unary):
        child = _compile(node.child)
        if node.op in _PLAIN:
            op = _PLAIN[node.op]
            return lambda x: op(child(x))
        return _CHECKED[node.op](child)
    if isinstance(node, Binary):
        left, right = _compile(node.left), _compile(node.right)
        if node.op in _PLAIN:
            op = _PLAIN[node.op]
            return lambda x: op(left(x), right(x))
        return _CHECKED[node.op](left, right)
    raise TypeError(f"unexpected AST node {node!r}")


# operations that cannot raise EvalError; the others build their own closure
_PLAIN = {
    "neg": operator.neg, "sin": math.sin, "cos": math.cos, "abs": abs,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
}


def _tan(f):
    def tan(x):
        out = math.tan(f(x))
        if not math.isfinite(out):
            raise EvalError(f"tan pole at x={x}")
        return out

    return tan


def _cot(f):
    def cot(x):
        v = f(x)
        s = math.sin(v)
        if s == 0.0:
            raise EvalError(f"cot pole at x={x}")
        return math.cos(v) / s

    return cot


def _sqrt(f):
    def sqrt(x):
        v = f(x)
        if v < 0.0:
            raise EvalError(f"sqrt of negative value {v} at x={x}")
        return math.sqrt(v)

    return sqrt


def _exp(f):
    def exp(x):
        v = f(x)
        try:
            return math.exp(v)
        except OverflowError:
            raise EvalError(f"exp overflow at x={x}") from None

    return exp


def _ln(f):
    def ln(x):
        v = f(x)
        if v <= 0.0:
            raise EvalError(f"ln of non-positive value {v} at x={x}")
        return math.log(v)

    return ln


def _div(f, g):
    def div(x):
        left = f(x)
        right = g(x)
        if right == 0.0:
            raise EvalError(f"division by zero at x={x}")
        return left / right

    return div


def _pow(f, g):
    def power(x):
        left = f(x)
        right = g(x)
        try:
            out = left ** right
        except (OverflowError, ZeroDivisionError, ValueError):
            raise EvalError(f"invalid power {left}^{right} at x={x}") from None
        if isinstance(out, complex):
            raise EvalError(f"complex power {left}^{right} at x={x}")
        return out

    return power


_CHECKED = {"tan": _tan, "cot": _cot, "sqrt": _sqrt, "exp": _exp, "ln": _ln, "/": _div, "^": _pow}


# grid evaluators: each takes the abscissae and the mask of raised points,
# marks the points where its closure above raises, and returns its values
def _compile_grid(node: ExprAst) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if isinstance(node, (Number, Constant)):
        value = node.value if isinstance(node, Number) else CONSTANTS[node.name]
        return lambda xs, raised: np.full(len(xs), value)
    if isinstance(node, Variable):
        return lambda xs, raised: xs
    if isinstance(node, Unary):
        return _GRID[node.op](_compile_grid(node.child))
    if isinstance(node, Binary):
        return _GRID[node.op](_compile_grid(node.left), _compile_grid(node.right))
    raise TypeError(f"unexpected AST node {node!r}")


def _each(fn, raised: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """fn(*row) for each row of the columns, through Python floats; marks the
    rows where it raises or gives a complex number. Raised rows read 1.0."""
    rows = [np.where(raised, 1.0, c).tolist() for c in columns]
    try:
        return np.array(list(map(fn, *rows)), dtype=float)
    except (ArithmeticError, ValueError, TypeError):  # TypeError: a complex in the list
        out = np.empty(len(raised))
        for i, row in enumerate(zip(*rows)):
            try:
                value = fn(*row)
            except (ArithmeticError, ValueError):
                value = None
            if value is None or isinstance(value, complex):
                raised[i], value = True, math.nan
            out[i] = value
        return out


def _grid_ufunc(ufunc):
    return lambda *kids: lambda xs, raised: ufunc(*(kid(xs, raised) for kid in kids))


def _grid_each(fn):
    return lambda *kids: lambda xs, raised: _each(fn, raised, *(kid(xs, raised) for kid in kids))


def _grid_tan(f):
    def tan(xs, raised):
        out = _each(math.tan, raised, f(xs, raised))
        raised |= ~np.isfinite(out)
        return out

    return tan


def _grid_cot(f):
    def cot(xs, raised):
        v = f(xs, raised)
        s = _each(math.sin, raised, v)
        raised |= s == 0.0
        return _each(math.cos, raised, v) / s

    return cot


def _grid_sqrt(f):
    def sqrt(xs, raised):
        v = f(xs, raised)
        raised |= v < 0.0
        return np.sqrt(v)

    return sqrt


def _grid_ln(f):
    def ln(xs, raised):
        v = f(xs, raised)
        raised |= v <= 0.0
        return _each(math.log, raised, v)

    return ln


def _grid_div(f, g):
    def div(xs, raised):
        left = f(xs, raised)
        right = g(xs, raised)
        raised |= right == 0.0
        return left / right

    return div


_GRID = {
    "neg": _grid_ufunc(np.negative), "abs": _grid_ufunc(np.abs), "sqrt": _grid_sqrt,
    "+": _grid_ufunc(np.add), "-": _grid_ufunc(np.subtract), "*": _grid_ufunc(np.multiply), "/": _grid_div,
    "sin": _grid_each(math.sin), "cos": _grid_each(math.cos), "tan": _grid_tan, "cot": _grid_cot,
    "exp": _grid_each(math.exp), "ln": _grid_ln, "^": _grid_each(operator.pow),
}
