"""Parser and forward-mode evaluation tests for the coefficient language."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlw.errors import EvaluationError
from dlw.seedlab.exprlang import (
    BinOp,
    Call,
    CoeffExpr,
    ExprSyntaxError,
    MAX_DEPTH,
    Neg,
    Num,
    Pow,
    Var,
    eval_dual,
    parse_coeff_expr,
    sech,
)
from documents import exprs, extreme_exprs


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


# -- parsing --------------------------------------------------------------------


def test_parse_example_ast():
    assert parse_coeff_expr("1 + 0.5*tanh(y)") == BinOp(
        "+", Num(1.0), BinOp("*", Num(0.5), Call("tanh", Var()))
    )


def test_parse_precedence_power_before_product():
    assert parse_coeff_expr("2*y^2 - (1/3)") == BinOp(
        "-",
        BinOp("*", Num(2.0), Pow(Var(), 2)),
        BinOp("/", Num(1.0), Num(3.0)),
    )


def test_parse_unary_minus_binds_below_power():
    assert parse_coeff_expr("-y^2") == Neg(Pow(Var(), 2))


def test_parse_left_associativity():
    assert parse_coeff_expr("1 - 2 - 3") == BinOp(
        "-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0)
    )
    assert parse_coeff_expr("8 / 4 / 2") == BinOp(
        "/", BinOp("/", Num(8.0), Num(4.0)), Num(2.0)
    )


def test_unknown_function_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr("tanj(y)")
    assert err.value.offset == 0
    assert "unknown function" in str(err.value)


def test_unknown_identifier_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr("2*x + 1")
    assert err.value.offset == 2
    assert "unknown identifier" in str(err.value)


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr("1 +")
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr("(1 + y")
    assert err.value.offset == 6
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr("1 $ 2")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse_coeff_expr("")


@pytest.mark.parametrize(
    "text, offset",
    [("", 0), ("1 +", 3), ("exp(", 4), ("y * (  ", 7), ("y^", 2), ("y^-", 3), ("y^ ", 3)],
)
def test_an_expression_that_ends_early_names_its_end(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr(text)
    assert str(err.value) == f"unexpected end of expression (offset {offset})"


@pytest.mark.parametrize("text", ["y ", "1 + y  "])
def test_trailing_blanks_parse(text):
    assert parse_coeff_expr(text) == parse_coeff_expr(text.rstrip())


def _nested(form, levels):
    """An expression with `levels` levels of one kind of nesting."""
    if form == "parens":
        return "(" * levels + "y" + ")" * levels
    if form == "minus":
        return "-" * levels + "y"
    if form == "calls":
        return "sin(" * levels + "y" + ")" * levels
    if form == "sum":
        return "y" + " + y" * levels
    return "y" + "*y" * levels  # product


_NESTING_FORMS = ("parens", "minus", "calls", "sum", "product")


@pytest.mark.parametrize("form", _NESTING_FORMS)
def test_expressions_at_the_nesting_cap_parse_evaluate_and_round_trip(form):
    expr = parse_coeff_expr(_nested(form, MAX_DEPTH))
    assert math.isfinite(eval_dual(expr, 0.5)[0])
    assert parse_coeff_expr(render(expr)) == expr


@pytest.mark.parametrize(
    "form, offset",
    [("parens", 100), ("minus", 100), ("calls", 400), ("sum", 402), ("product", 201)],
)
def test_nesting_past_the_cap_is_a_syntax_error_with_an_offset(form, offset):
    assert MAX_DEPTH == 100
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr(_nested(form, MAX_DEPTH + 1))
    assert str(err.value) == f"expression nested too deeply (offset {offset})"


@pytest.mark.parametrize(
    "text, offset",
    [("1e999", 0), ("2*1e999", 2), ("y + .5e400", 4), ("1" + "0" * 400, 0), ("1.8e308", 0)],
    ids=("exponent", "product", "sum", "long-integer", "past-max"),
)
def test_number_past_the_float_range_is_a_syntax_error_with_an_offset(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr(text)
    assert str(err.value) == f"number out of range (offset {offset})"


def test_numbers_at_the_ends_of_the_float_range_parse():
    assert parse_coeff_expr("1.7976931348623157e308") == Num(1.7976931348623157e308)
    assert parse_coeff_expr("1e-999") == Num(0.0)


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr("y^2.5")
    assert "non-integer exponent" in str(err.value)
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr("y^(2)")
    assert str(err.value) == "non-integer exponent (offset 2)"


@pytest.mark.parametrize(
    "sign, offset", [("", 2), ("-", 3)], ids=("positive", "negative")
)
def test_exponent_past_the_integer_string_limit_is_a_syntax_error(sign, offset):
    text = "y^" + sign + "9" * 5000
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # the default, whatever the environment set
        with pytest.raises(ExprSyntaxError) as err:
            parse_coeff_expr(text)
        assert str(err.value) == f"exponent has too many digits (offset {offset})"
        sys.set_int_max_str_digits(0)  # no limit: the same text parses
        assert parse_coeff_expr(text) == Pow(Var(), int(sign + "9" * 5000))
    finally:
        sys.set_int_max_str_digits(limit)


def test_negative_integer_exponent_allowed():
    expr = parse_coeff_expr("y^-2")
    assert expr == Pow(Var(), -2)
    value, deriv = eval_dual(expr, 2.0)
    assert value == pytest.approx(0.25)
    assert deriv == pytest.approx(-2 * 2.0**-3)


def test_scientific_notation_literals():
    assert parse_coeff_expr("5e-3") == Num(5e-3)
    assert parse_coeff_expr("1.25e2") == Num(125.0)


# -- evaluation -----------------------------------------------------------------


def test_eval_examples():
    assert eval_dual(parse_coeff_expr("tanh(y)"), 0.0) == pytest.approx((0.0, 1.0))
    assert eval_dual(parse_coeff_expr("exp(2*y)"), 0.0) == pytest.approx((1.0, 2.0))
    assert eval_dual(parse_coeff_expr("1 + 0.5*tanh(y)"), 0.0) == pytest.approx(
        (1.0, 0.5)
    )


def test_eval_variable_is_seeded_with_unit_derivative():
    result = eval_dual(parse_coeff_expr("y"), 3.5)
    assert result == (3.5, 1.0)
    # a plain pair of floats, not a record type
    assert type(result) is tuple and [type(v) for v in result] == [float, float]


def test_eval_division_by_zero():
    with pytest.raises(EvaluationError):
        eval_dual(parse_coeff_expr("1/y"), 0.0)
    with pytest.raises(EvaluationError):
        eval_dual(parse_coeff_expr("y^-1"), 0.0)


@pytest.mark.parametrize(
    "text, y, message",
    [
        ("1/y", 0.0, "division by zero"),
        ("y^-1", -0.0, "division by zero"),
        ("sin(1e308*10*y)", -1.0, "non-finite result"),
        ("cos(1e308*10*y)", 1.0, "non-finite result"),
        ("y^400", 10.0, "overflow: (34, 'Numerical result out of range')"),
    ],
)
def test_eval_float_failures_are_named_evaluation_errors(text, y, message):
    with pytest.raises(EvaluationError) as err:
        eval_dual(parse_coeff_expr(text), y)
    assert str(err.value) == message


def test_quotient_whose_divisor_squares_to_zero_is_finite():
    # 1e-200 squared underflows to 0.0; the quotient rule divides by it twice
    assert eval_dual(parse_coeff_expr("y/1e-200"), 0.0) == (0.0, 1e200)
    assert eval_dual(parse_coeff_expr("y/(1e-200*y)"), 1.0) == (1e200, 0.0)
    assert eval_dual(parse_coeff_expr("y/(2*y)"), 3.0) == (0.5, 0.0)


def test_power_whose_lower_power_overflows_is_finite():
    # (5e-201)^-2 passes the float range; the value 2e200 and the derivative
    # -1 * 2e200 * (1e-200 / 5e-201) = -4e200 do not
    assert eval_dual(parse_coeff_expr("(1e-200*y)^-1"), 0.5) == (2e200, -4e200)
    assert eval_dual(parse_coeff_expr("(1e-200*y)^-1"), 1.0) == (1e200, -1e200)
    # the general rule wherever a^(n-1) is in range, and an error where the
    # derivative itself passes the range
    assert eval_dual(parse_coeff_expr("(2*y)^-3"), 0.5) == (1.0, -6.0)
    with pytest.raises(EvaluationError, match="^non-finite result$"):
        eval_dual(parse_coeff_expr("y^-1"), 1e-300)


def test_eval_overflow_reported():
    with pytest.raises(EvaluationError):
        eval_dual(parse_coeff_expr("exp(y)"), 1000.0)


def test_sech_is_overflow_safe():
    assert sech(800.0) == pytest.approx(0.0, abs=1e-300)
    assert sech(0.0) == 1.0
    value, deriv = eval_dual(parse_coeff_expr("sech(y)"), 800.0)
    assert math.isfinite(value) and math.isfinite(deriv)


def test_sech_value_and_derivative():
    value, deriv = eval_dual(parse_coeff_expr("sech(y)"), 0.7)
    assert value == pytest.approx(1.0 / math.cosh(0.7), rel=1e-15)
    assert deriv == pytest.approx(
        -math.tanh(0.7) / math.cosh(0.7), rel=1e-14
    )


_CORPUS = [
    "1 + 0.5*tanh(y)",
    "0.2*y",
    "exp(0.3*y) - sech(y)^2",
    "sin(y)*cos(2*y) + y^3/7",
    "(1 + y^2)/(2 + sech(0.5*y))",
    "-tanh(y/2) + 1.5",
    "2*exp(-y^2)",
]


def test_dual_derivative_matches_central_differences():
    rng = random.Random(42)
    step = 1e-6
    for text in _CORPUS:
        expr = parse_coeff_expr(text)
        for _ in range(20):
            y = rng.uniform(-2.0, 2.0)
            _, forward = eval_dual(expr, y)
            numeric = (
                eval_dual(expr, y + step)[0] - eval_dual(expr, y - step)[0]
            ) / (2 * step)
            assert forward == pytest.approx(
                numeric, rel=1e-6, abs=1e-6
            ), f"{text} at y={y}"


def test_render_parse_roundtrip_on_corpus():
    for text in _CORPUS:
        ast = parse_coeff_expr(text)
        assert parse_coeff_expr(render(ast)) == ast


# -- randomized round-trip --------------------------------------------------------


@settings(max_examples=200)
@given(exprs)
def test_render_parse_roundtrip_randomized(expr):
    assert parse_coeff_expr(render(expr)) == expr


@settings(max_examples=300)
@given(extreme_exprs, st.floats(-2.0, 2.0))
def test_eval_dual_returns_finite_pairs_or_raises_evaluation_error(expr, y):
    try:
        value, deriv = eval_dual(expr, y)
    except EvaluationError:
        return
    assert math.isfinite(value) and math.isfinite(deriv)
