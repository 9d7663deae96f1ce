"""Expression language for y-dependent seed coefficients.

Single variable y, literals, + - * / ^ with integer powers, unary minus, and
the functions exp, tanh, sech, sin, cos.  Parsing is recursive descent with
offsets reported on every error; evaluation is forward-mode, returning the
value together with the first derivative in y.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from ..errors import EvaluationError, shown

__all__ = [
    "CoeffExpr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "ExprSyntaxError",
    "FUNCTIONS",
    "parse_coeff_expr",
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


class CoeffExpr:
    """Base class for parsed expression nodes. Each node type names its
    fields in `__slots__`; a node is immutable, and it equals a node of its
    own type, never of another, whose fields are equal."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                f"got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class Num(CoeffExpr):
    __slots__ = ("value",)  # a float


class Var(CoeffExpr):
    __slots__ = ()


class Neg(CoeffExpr):
    __slots__ = ("arg",)


class BinOp(CoeffExpr):
    __slots__ = ("op", "left", "right")  # op is one of + - * /


class Pow(CoeffExpr):
    __slots__ = ("base", "exponent")  # an int exponent


class Call(CoeffExpr):
    __slots__ = ("func", "arg")  # func is one of FUNCTIONS


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Token(NamedTuple):
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
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
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

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the operator characters `ops`."""
        token = self.tokens[self.index]
        return token.kind == "op" and token.text in ops

    def expect_op(self, op: str) -> None:
        if not self.at(op):
            raise ExprSyntaxError(f"expected {op!r}", self.tokens[self.index].pos)
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
        token = self.tokens[self.index]
        if token.kind != "end":
            raise ExprSyntaxError(f"unexpected token {shown(token.text)}", token.pos)
        return expr

    def parse_sum(self) -> tuple[CoeffExpr, int]:
        node, height = self.parse_product()
        while self.at("+-"):
            token = self.advance()
            right, right_height = self.parse_product()
            node, height = self.grow(
                BinOp(token.text, node, right), max(height, right_height), token
            )
        return node, height

    def parse_product(self) -> tuple[CoeffExpr, int]:
        node, height = self.parse_unary()
        while self.at("*/"):
            token = self.advance()
            right, right_height = self.parse_unary()
            node, height = self.grow(
                BinOp(token.text, node, right), max(height, right_height), token
            )
        return node, height

    def parse_unary(self) -> tuple[CoeffExpr, int]:
        if self.at("-"):
            token = self.advance()
            arg, height = self.nested(self.parse_unary, token)
            return self.grow(Neg(arg), height, token)
        return self.parse_power()

    def parse_power(self) -> tuple[CoeffExpr, int]:
        base, height = self.parse_atom()
        if self.at("^"):
            token = self.advance()
            return self.grow(Pow(base, self.parse_exponent()), height, token)
        return base, height

    def parse_exponent(self) -> int:
        negative = self.at("-")
        if negative:
            self.advance()
        token = self.advance()
        if token.kind == "end":
            raise ExprSyntaxError("unexpected end of expression", token.pos)
        if token.kind != "number" or not token.text.isdigit():
            raise ExprSyntaxError("non-integer exponent", token.pos)
        try:
            exponent = int(token.text)
        except ValueError:  # more digits than int() converts
            raise ExprSyntaxError("exponent has too many digits", token.pos) from None
        return -exponent if negative else exponent

    def parse_atom(self) -> tuple[CoeffExpr, int]:
        if self.at("("):
            node = self.nested(self.parse_sum, self.advance())
            self.expect_op(")")
            return node
        token = self.advance()
        if token.kind == "number":
            value = float(token.text)
            if math.isinf(value):
                raise ExprSyntaxError("number out of range", token.pos)
            return Num(value), 0
        if token.kind == "ident":
            if token.text == "y":
                return Var(), 0
            if not self.at("("):
                raise ExprSyntaxError(
                    f"unknown identifier {shown(token.text)}", token.pos
                )
            if token.text not in FUNCTIONS:
                raise ExprSyntaxError(
                    f"unknown function {shown(token.text)}", token.pos
                )
            self.advance()
            arg, height = self.nested(self.parse_sum, token)
            self.expect_op(")")
            return self.grow(Call(token.text, arg), height, token)
        if token.kind == "end":
            raise ExprSyntaxError("unexpected end of expression", token.pos)
        raise ExprSyntaxError(f"unexpected token {shown(token.text)}", token.pos)


def parse_coeff_expr(text: str) -> CoeffExpr:
    """Parse a coefficient expression in the single variable y."""
    return _Parser(text).parse()


def sech(x: float) -> float:
    """Hyperbolic secant, overflow-safe for large |x|."""
    a = math.exp(-abs(x))
    return 2.0 * a / (1.0 + a * a)


def _eval(expr: CoeffExpr, y: float) -> tuple[float, float]:
    """(value, y-derivative) of `expr` at y, propagated forward. Float
    failures surface as Python's own exceptions, for `eval_dual` to name."""
    if isinstance(expr, Num):
        return expr.value, 0.0
    if isinstance(expr, Var):
        return y, 1.0
    if isinstance(expr, Neg):
        a, da = _eval(expr.arg, y)
        return -a, -da
    if isinstance(expr, BinOp):
        a, da = _eval(expr.left, y)
        b, db = _eval(expr.right, y)
        if expr.op == "+":
            return a + b, da + db
        if expr.op == "-":
            return a - b, da - db
        if expr.op == "*":
            return a * b, da * b + a * db
        value = a / b
        square = b * b
        if square == 0.0:  # b is nonzero, but its square underflows
            return value, (da - value * db) / b
        return value, (da * b - a * db) / square
    if isinstance(expr, Pow):
        a, da = _eval(expr.base, y)
        n = expr.exponent
        if n == 0:
            return 1.0, 0.0
        value = a**n
        try:
            return value, n * a ** (n - 1) * da
        except OverflowError:  # a^(n-1) passes the float range where a^n does not
            return value, n * value * (da / a)
    if isinstance(expr, Call):
        v, d = _eval(expr.arg, y)
        if expr.func == "exp":
            e = math.exp(v)
            return e, d * e
        if expr.func == "tanh":
            t = math.tanh(v)
            return t, d * (1.0 - t * t)
        if expr.func == "sech":
            s = sech(v)
            return s, -d * s * math.tanh(v)
        if expr.func == "sin":
            return math.sin(v), d * math.cos(v)
        if expr.func == "cos":
            return math.cos(v), -d * math.sin(v)
        raise EvaluationError(f"unknown function {expr.func!r}")
    raise TypeError(f"not an expression node: {expr!r}")


def eval_dual(expr: CoeffExpr, y: float) -> tuple[float, float]:
    """The float pair (f(y), f'(y)), by forward-mode propagation. Every float
    failure leaves as an EvaluationError: a zero divisor, an overflow, or a
    result that is not finite (sin and cos of an infinite argument among
    them)."""
    try:
        value, deriv = _eval(expr, float(y))
    except ZeroDivisionError:
        raise EvaluationError("division by zero") from None
    except OverflowError as exc:
        raise EvaluationError(f"overflow: {exc}") from None
    except ValueError:
        raise EvaluationError("non-finite result") from None
    if not (math.isfinite(value) and math.isfinite(deriv)):
        raise EvaluationError("non-finite result")
    return value, deriv
