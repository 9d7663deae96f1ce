"""Expression language for y-dependent seed coefficients.

Single variable y, literals, + - * / ^ with integer powers, unary minus, and
the functions exp, tanh, sech, sin, cos.  Parsing is recursive descent with
offsets reported on every error; evaluation is forward-mode, returning the
value together with the first derivative in y.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "CoeffExpr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "Dual",
    "ExprSyntaxError",
    "EvaluationError",
    "FUNCTIONS",
    "parse_coeff_expr",
    "render",
    "eval_dual",
    "sech",
]

FUNCTIONS = ("exp", "tanh", "sech", "sin", "cos")
# Most nesting levels an expression may have; far below the recursion limit.
MAX_DEPTH = 100


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvaluationError(ArithmeticError):
    """Evaluation failure: division by zero or a non-finite result."""


class CoeffExpr:
    """Base class for parsed expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(CoeffExpr):
    value: float


@dataclass(frozen=True)
class Var(CoeffExpr):
    pass


@dataclass(frozen=True)
class Neg(CoeffExpr):
    arg: CoeffExpr


@dataclass(frozen=True)
class BinOp(CoeffExpr):
    op: str  # one of + - * /
    left: CoeffExpr
    right: CoeffExpr


@dataclass(frozen=True)
class Pow(CoeffExpr):
    base: CoeffExpr
    exponent: int


@dataclass(frozen=True)
class Call(CoeffExpr):
    func: str
    arg: CoeffExpr


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[offset]!r}", offset)
        for kind in ("number", "ident", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start(kind)))
                break
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Precedence-climbing parser: ^ binds tighter than unary -, which binds
    tighter than * /, which bind tighter than + -; binary operators are
    left-associative.

    Each parse method returns a node with its height, the operator levels on
    its longest path. Parentheses, calls and unary minus open at most
    MAX_DEPTH levels while parsing, and no tree is higher than MAX_DEPTH, so
    parsing and every walk of the tree stay far below the recursion limit."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # open parentheses, calls and unary minus

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise ExprSyntaxError(f"expected {op!r}", token.pos)
        self.advance()

    def nested(self, parse, token: _Token) -> tuple[CoeffExpr, int]:
        """parse() one level deeper than `token`."""
        if self.depth == MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", token.pos)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def grow(self, node: CoeffExpr, height: int, token: _Token):
        """`node`, built at `token` over children at most `height` high."""
        if height == MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", token.pos)
        return node, height + 1

    def parse(self) -> CoeffExpr:
        expr, _ = self.parse_sum()
        token = self.peek()
        if token.kind != "end":
            raise ExprSyntaxError(f"unexpected token {token.text!r}", token.pos)
        return expr

    def parse_sum(self) -> tuple[CoeffExpr, int]:
        node, height = self.parse_product()
        while self.peek().kind == "op" and self.peek().text in "+-":
            token = self.advance()
            right, right_height = self.parse_product()
            node, height = self.grow(
                BinOp(token.text, node, right), max(height, right_height), token
            )
        return node, height

    def parse_product(self) -> tuple[CoeffExpr, int]:
        node, height = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            token = self.advance()
            right, right_height = self.parse_unary()
            node, height = self.grow(
                BinOp(token.text, node, right), max(height, right_height), token
            )
        return node, height

    def parse_unary(self) -> tuple[CoeffExpr, int]:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            arg, height = self.nested(self.parse_unary, token)
            return self.grow(Neg(arg), height, token)
        return self.parse_power()

    def parse_power(self) -> tuple[CoeffExpr, int]:
        base, height = self.parse_atom()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            return self.grow(Pow(base, self.parse_exponent()), height, token)
        return base, height

    def parse_exponent(self) -> int:
        sign = 1
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            sign = -1
            token = self.peek()
        if token.kind != "number":
            raise ExprSyntaxError("non-integer exponent", token.pos)
        if not token.text.isdigit():
            raise ExprSyntaxError("non-integer exponent", token.pos)
        self.advance()
        return sign * int(token.text)

    def parse_atom(self) -> tuple[CoeffExpr, int]:
        token = self.advance()
        if token.kind == "number":
            return Num(float(token.text)), 0
        if token.kind == "ident":
            if token.text == "y":
                return Var(), 0
            follows_call = (
                self.peek().kind == "op" and self.peek().text == "("
            )
            if not follows_call:
                raise ExprSyntaxError(f"unknown identifier {token.text!r}", token.pos)
            if token.text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {token.text!r}", token.pos)
            self.expect_op("(")
            arg, height = self.nested(self.parse_sum, token)
            self.expect_op(")")
            return self.grow(Call(token.text, arg), height, token)
        if token.kind == "op" and token.text == "(":
            node = self.nested(self.parse_sum, token)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {token.text!r}", token.pos)


def parse_coeff_expr(text: str) -> CoeffExpr:
    """Parse a coefficient expression in the single variable y."""
    return _Parser(text).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def render(expr: CoeffExpr) -> str:
    """Render with minimal parentheses; parse(render(e)) == e."""
    text, _ = _render(expr)
    return text


def _render(expr: CoeffExpr) -> tuple[str, int]:
    if isinstance(expr, Num):
        return repr(expr.value), _PREC["atom"]
    if isinstance(expr, Var):
        return "y", _PREC["atom"]
    if isinstance(expr, Call):
        return f"{expr.func}({_render(expr.arg)[0]})", _PREC["atom"]
    if isinstance(expr, Neg):
        inner, prec = _render(expr.arg)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(expr, Pow):
        base, prec = _render(expr.base)
        if prec < _PREC["atom"]:
            base = f"({base})"
        return f"{base}^{expr.exponent}", _PREC["pow"]
    if isinstance(expr, BinOp):
        prec = _PREC[expr.op]
        left, lp = _render(expr.left)
        right, rp = _render(expr.right)
        if lp < prec:
            left = f"({left})"
        # binary operators parse left-associative: a right operand at the
        # same precedence needs parentheses to reproduce the tree
        if rp <= prec:
            right = f"({right})"
        return f"{left} {expr.op} {right}", prec
    raise TypeError(f"not an expression node: {expr!r}")


def sech(x: float) -> float:
    """Hyperbolic secant, overflow-safe for large |x|."""
    a = math.exp(-abs(x))
    return 2.0 * a / (1.0 + a * a)


@dataclass(frozen=True)
class Dual:
    """Value and first derivative in y, propagated forward."""

    value: float
    deriv: float = 0.0

    def __add__(self, other: "Dual") -> "Dual":
        return Dual(self.value + other.value, self.deriv + other.deriv)

    def __sub__(self, other: "Dual") -> "Dual":
        return Dual(self.value - other.value, self.deriv - other.deriv)

    def __neg__(self) -> "Dual":
        return Dual(-self.value, -self.deriv)

    def __mul__(self, other: "Dual") -> "Dual":
        return Dual(
            self.value * other.value,
            self.deriv * other.value + self.value * other.deriv,
        )

    def __truediv__(self, other: "Dual") -> "Dual":
        if other.value == 0.0:
            raise EvaluationError("division by zero")
        return Dual(
            self.value / other.value,
            (self.deriv * other.value - self.value * other.deriv)
            / (other.value * other.value),
        )


def _dual_pow(base: Dual, n: int) -> Dual:
    if n == 0:
        return Dual(1.0, 0.0)
    if base.value == 0.0 and n < 0:
        raise EvaluationError("division by zero")
    value = base.value**n
    return Dual(value, n * base.value ** (n - 1) * base.deriv)


def _dual_call(func: str, arg: Dual) -> Dual:
    v, d = arg.value, arg.deriv
    if func == "exp":
        e = math.exp(v)
        return Dual(e, d * e)
    if func == "tanh":
        t = math.tanh(v)
        return Dual(t, d * (1.0 - t * t))
    if func == "sech":
        s = sech(v)
        return Dual(s, -d * s * math.tanh(v))
    if func == "sin":
        return Dual(math.sin(v), d * math.cos(v))
    if func == "cos":
        return Dual(math.cos(v), -d * math.sin(v))
    raise EvaluationError(f"unknown function {func!r}")


def _eval(expr: CoeffExpr, y: Dual) -> Dual:
    if isinstance(expr, Num):
        return Dual(expr.value, 0.0)
    if isinstance(expr, Var):
        return y
    if isinstance(expr, Neg):
        return -_eval(expr.arg, y)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, y)
        right = _eval(expr.right, y)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    if isinstance(expr, Pow):
        return _dual_pow(_eval(expr.base, y), expr.exponent)
    if isinstance(expr, Call):
        return _dual_call(expr.func, _eval(expr.arg, y))
    raise TypeError(f"not an expression node: {expr!r}")


def eval_dual(expr: CoeffExpr, y: float) -> Dual:
    """Evaluate (f(y), f'(y)) by forward-mode propagation."""
    try:
        result = _eval(expr, Dual(float(y), 1.0))
    except OverflowError as exc:
        raise EvaluationError(f"overflow: {exc}") from None
    if not (math.isfinite(result.value) and math.isfinite(result.deriv)):
        raise EvaluationError("non-finite result")
    return result
