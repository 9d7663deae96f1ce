"""Parser and forward-mode evaluation tests for the coefficient language."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlw.seedlab.exprlang import (
    BinOp,
    Call,
    EvaluationError,
    ExprSyntaxError,
    FUNCTIONS,
    MAX_DEPTH,
    Neg,
    Num,
    Pow,
    Var,
    eval_dual,
    parse_coeff_expr,
    render,
    sech,
)


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
    assert math.isfinite(eval_dual(expr, 0.5).value)
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


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError) as err:
        parse_coeff_expr("y^2.5")
    assert "non-integer exponent" in str(err.value)
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse_coeff_expr("y^(2)")


def test_negative_integer_exponent_allowed():
    expr = parse_coeff_expr("y^-2")
    assert expr == Pow(Var(), -2)
    result = eval_dual(expr, 2.0)
    assert result.value == pytest.approx(0.25)
    assert result.deriv == pytest.approx(-2 * 2.0**-3)


def test_scientific_notation_literals():
    assert parse_coeff_expr("5e-3") == Num(5e-3)
    assert parse_coeff_expr("1.25e2") == Num(125.0)


# -- evaluation -----------------------------------------------------------------


def _pair(dual):
    return (dual.value, dual.deriv)


def test_eval_examples():
    assert _pair(eval_dual(parse_coeff_expr("tanh(y)"), 0.0)) == pytest.approx(
        (0.0, 1.0)
    )
    assert _pair(eval_dual(parse_coeff_expr("exp(2*y)"), 0.0)) == pytest.approx(
        (1.0, 2.0)
    )
    assert _pair(
        eval_dual(parse_coeff_expr("1 + 0.5*tanh(y)"), 0.0)
    ) == pytest.approx((1.0, 0.5))


def test_eval_variable_is_seeded_with_unit_derivative():
    result = eval_dual(parse_coeff_expr("y"), 3.5)
    assert (result.value, result.deriv) == (3.5, 1.0)


def test_eval_division_by_zero():
    with pytest.raises(EvaluationError):
        eval_dual(parse_coeff_expr("1/y"), 0.0)
    with pytest.raises(EvaluationError):
        eval_dual(parse_coeff_expr("y^-1"), 0.0)


def test_eval_overflow_reported():
    with pytest.raises(EvaluationError):
        eval_dual(parse_coeff_expr("exp(y)"), 1000.0)


def test_sech_is_overflow_safe():
    assert sech(800.0) == pytest.approx(0.0, abs=1e-300)
    assert sech(0.0) == 1.0
    result = eval_dual(parse_coeff_expr("sech(y)"), 800.0)
    assert math.isfinite(result.value) and math.isfinite(result.deriv)


def test_sech_value_and_derivative():
    result = eval_dual(parse_coeff_expr("sech(y)"), 0.7)
    assert result.value == pytest.approx(1.0 / math.cosh(0.7), rel=1e-15)
    assert result.deriv == pytest.approx(
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
            forward = eval_dual(expr, y)
            numeric = (
                eval_dual(expr, y + step).value - eval_dual(expr, y - step).value
            ) / (2 * step)
            assert forward.deriv == pytest.approx(
                numeric, rel=1e-6, abs=1e-6
            ), f"{text} at y={y}"


def test_render_parse_roundtrip_on_corpus():
    for text in _CORPUS:
        ast = parse_coeff_expr(text)
        assert parse_coeff_expr(render(ast)) == ast


# -- randomized round-trip --------------------------------------------------------

_atoms = st.one_of(
    st.integers(0, 64).map(lambda n: Num(n / 8.0)),
    st.just(Var()),
)
_exprs = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(-2, 3)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_render_parse_roundtrip_randomized(expr):
    assert parse_coeff_expr(render(expr)) == expr
