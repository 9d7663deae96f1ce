"""Seed construction and analytic-partial tests."""

import math
import random

import pytest

from dlw.jetcalc import Branch
from dlw.seedlab import (
    EvaluationError,
    HeatPolynomial,
    Kernel,
    SeedField,
    SeedSpec,
    heat_residual,
    parse_coeff_expr,
)

P = parse_coeff_expr
BRANCHES = (Branch.PLUS, Branch.MINUS)


def unit_kernel_seed(branch, a_text, b_text):
    return SeedField(
        SeedSpec(branch=branch, constant_term=1.0, kernels=(Kernel(1.0, P(a_text), P(b_text)),))
    )


# -- examples --------------------------------------------------------------------


def test_constant_seed_partials():
    field = SeedField(SeedSpec(branch=Branch.PLUS, constant_term=1.0))
    assert field.value((0.3, -1.2, 0.5)) == 1.0
    for index in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0)):
        assert field.partial((0.3, -1.2, 0.5), index) == 0.0


def test_headline_kernel_at_origin():
    field = unit_kernel_seed(Branch.PLUS, "1", "0")
    assert field.value((0.0, 0.7, 0.0)) == pytest.approx(2.0, rel=1e-15)
    assert field.partial((0.0, 0.7, 0.0), (1, 0, 0)) == pytest.approx(1.0, rel=1e-15)


def test_kernel_partials_at_log_three():
    # a = 1, b = y: at x = ln 3 the kernel value is 3
    field = unit_kernel_seed(Branch.PLUS, "1", "1*y")
    point = (math.log(3.0), 0.0, 0.0)
    phi, px, py, pxy = field.partials(
        point, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
    )
    assert phi == pytest.approx(4.0, rel=1e-14)
    assert px == pytest.approx(3.0, rel=1e-14)
    assert py == pytest.approx(3.0, rel=1e-14)
    assert pxy == pytest.approx(3.0, rel=1e-14)


def test_heat_polynomial_seed():
    field = SeedField(
        SeedSpec(branch=Branch.PLUS, poly=HeatPolynomial(P("1"), P("0"), P("0")))
    )
    assert field.value((2.0, 0.0, 1.0)) == 2.0 * 2.0 - 2.0 * 1.0
    assert heat_residual(field, (2.0, 0.0, 1.0)) == 0.0
    assert field.partial((2.0, 0.0, 1.0), (2, 0, 0)) == 2.0
    assert field.partial((2.0, 0.0, 1.0), (0, 0, 1)) == -2.0


@pytest.mark.parametrize("branch", BRANCHES)
def test_kernel_exponent_follows_branch(branch):
    # theta = a*x - sign*a^2*t + b, so phi_t = -sign*a^2*e^theta
    field = unit_kernel_seed(branch, "1", "0")
    phi_t = field.partial((0.0, 0.0, 0.0), (0, 0, 1))
    assert phi_t == pytest.approx(-branch.sign, rel=1e-15)


def test_superposition_linearity():
    halves = SeedField(
        SeedSpec(
            branch=Branch.PLUS,
            constant_term=1.0,
            kernels=(
                Kernel(0.5, P("1.2"), P("0.4*y")),
                Kernel(0.5, P("1.2"), P("0.4*y")),
            ),
        )
    )
    whole = unit_kernel_seed(Branch.PLUS, "1.2", "0.4*y")
    rng = random.Random(11)
    indices = tuple(sorted({(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)}))
    for _ in range(25):
        point = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 1))
        for lhs, rhs in zip(halves.partials(point, indices), whole.partials(point, indices)):
            assert abs(lhs - rhs) <= 1e-15 * (1.0 + abs(rhs))


# -- the residual self-check -------------------------------------------------------


_SEED_CORPUS = [
    SeedSpec(Branch.PLUS, 1.0, (Kernel(1.0, P("1"), P("1*y")),)),
    SeedSpec(Branch.MINUS, 1.0, (Kernel(1.0, P("1 + 0.5*tanh(y)"), P("0.2*y")),)),
    SeedSpec(
        Branch.PLUS,
        2.5,
        (
            Kernel(1.0, P("1"), P("0.3*y")),
            Kernel(0.7, P("1.6"), P("-0.4*y")),
        ),
    ),
    SeedSpec(
        Branch.MINUS,
        0.0,
        (Kernel(1.0, P("sech(y)"), P("sin(y)")),),
        HeatPolynomial(P("0.5"), P("cos(y)"), P("y^2")),
    ),
    SeedSpec(Branch.PLUS, 0.0, (), HeatPolynomial(P("1"), P("tanh(y)"), P("0"))),
]


@pytest.mark.parametrize("spec", _SEED_CORPUS)
def test_every_seed_satisfies_the_linear_equation(spec):
    field = SeedField(spec)
    rng = random.Random(99)
    for _ in range(100):
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
        phi_t = field.partial(point, (0, 0, 1))
        assert abs(heat_residual(field, point)) <= 1e-12 * (1.0 + abs(phi_t))


class _CorruptedField:
    """Negative control: exponent a*x - 2*a^2*t instead of a*x - a^2*t."""

    branch = Branch.PLUS

    def __init__(self, a):
        self.a = a

    def partials(self, point, indices):
        x, _, t = point
        value = math.exp(self.a * x - 2.0 * self.a**2 * t)
        out = []
        for index in indices:
            if index == (0, 0, 1):
                out.append(-2.0 * self.a**2 * value)
            elif index == (2, 0, 0):
                out.append(self.a**2 * value)
            else:
                out.append(value)
        return tuple(out)

    def partial(self, point, index):
        return self.partials(point, (index,))[0]


def test_corrupted_exponent_is_flagged():
    a = 1.3
    field = _CorruptedField(a)
    point = (0.4, 0.0, 0.2)
    expected = a**2 * math.exp(a * 0.4 - 2.0 * a**2 * 0.2)
    assert heat_residual(field, point) == pytest.approx(-expected, rel=1e-12)
    assert abs(heat_residual(field, point)) > 0.1


# -- errors -------------------------------------------------------------------------


def test_unsupported_index_rejected():
    field = unit_kernel_seed(Branch.PLUS, "1", "0")
    with pytest.raises(ValueError, match="unsupported jet index"):
        field.partial((0.0, 0.0, 0.0), (0, 2, 0))


def test_kernel_overflow_surfaces_as_evaluation_error():
    field = unit_kernel_seed(Branch.PLUS, "1", "0")
    with pytest.raises(EvaluationError):
        field.value((1e4, 0.0, 0.0))


def test_coefficient_evaluation_errors_propagate():
    field = unit_kernel_seed(Branch.PLUS, "1/y", "0")
    for _ in range(2):  # the failure is raised again, never stored
        with pytest.raises(EvaluationError, match="division by zero"):
            field.value((0.0, 0.0, 0.0))
        with pytest.raises(EvaluationError, match="division by zero"):
            field.coefficients(0.0)
    assert field.value((1.0, 0.5, 0.0)) == pytest.approx(1.0 + math.e**2)


def test_first_failing_term_names_the_error():
    # kernel 0 overflows at x = 1e4 before kernel 1's coefficient is needed
    spec = SeedSpec(
        Branch.PLUS, 1.0, (Kernel(1.0, P("1"), P("0")), Kernel(1.0, P("1"), P("1/y")))
    )
    with pytest.raises(EvaluationError, match="kernel overflow"):
        SeedField(spec).value((1e4, 0.0, 0.0))
    with pytest.raises(EvaluationError, match="division by zero"):
        SeedField(spec).value((1.0, 0.0, 0.0))


# -- the coefficient table ------------------------------------------------------------


def test_fields_with_different_specs_keep_separate_tables():
    one = unit_kernel_seed(Branch.PLUS, "1 + 0*y", "0.5*y")
    two = unit_kernel_seed(Branch.PLUS, "2 + 0*y", "0.5*y")
    point = (0.3, 0.7, 0.2)
    for first, second in ((one, two), (two, one)):
        first.value(point)
        second.value(point)
    [(a_one, _)] = one.coefficients(0.7)
    [(a_two, _)] = two.coefficients(0.7)
    assert (a_one.value, a_two.value) == (1.0, 2.0)
    assert one.value(point) == 1.0 + math.exp(0.3 - 0.2 + 0.35)
    assert two.value(point) == 1.0 + math.exp(0.6 - 0.8 + 0.35)


def test_table_keys_the_exact_float():
    field = SeedField(
        SeedSpec(Branch.PLUS, 0.0, (), HeatPolynomial(P("2*y"), P("y"), P("y^3")))
    )
    y = 0.1 + 0.2  # 0.30000000000000004, a row apart from 0.3
    for probe in (0.3, y, 0.0, -0.0):
        c2, c1, c0 = field.coefficients(probe)[-1]
        assert (c2.value, c1.value, c0.value) == (2 * probe, probe, probe**3)
        assert math.copysign(1.0, c1.value) == math.copysign(1.0, probe)
