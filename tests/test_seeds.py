"""Seed construction and analytic-partial tests."""

import math
import random
import re

import pytest

from dlw.jetcalc import Branch, JetIndex
from dlw.seedlab.exprlang import EvaluationError, eval_dual, parse_coeff_expr
from dlw.seedlab.seeds import (
    SUPPORTED_INDICES,
    HeatPolynomial,
    Kernel,
    SeedField,
    SeedSpec,
    heat_residual,
)
from dlw.transform import POLE_TOLERANCE, FieldPair, PoleError, transform_point

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
    for index in ((0, 0), (0, 0, 0, 0)):  # named by repr, not as a JetIndex
        with pytest.raises(ValueError, match=re.escape(f"jet index {index!r}")):
            field.partial((0.0, 0.0, 0.0), index)
    for indices in (
        [(0, 2, 0)],
        ((0, 0, 0), (0, 0, 2)),
        [[1, 0, 0], [4, 0, 0]],
        [(0, 0)],
        ((1, 0, 0), (0, 0, 0, 0)),
    ):
        for _ in range(3):  # a failed plan is never kept
            with pytest.raises(ValueError, match="unsupported jet index"):
                field.partials((0.0, 0.0, 0.0), indices)
    assert not field._plans
    assert field.partials((0.0, 0.0, 0.0), [(0, 0, 0)]) == (2.0,)


def test_kernel_overflow_surfaces_as_evaluation_error():
    field = unit_kernel_seed(Branch.PLUS, "1", "0")
    with pytest.raises(EvaluationError):
        field.value((1e4, 0.0, 0.0))


@pytest.mark.parametrize(
    "a_text, point, index",
    [
        ("1e160", (0.5, 0.0, 0.5), (0, 0, 0)),  # a**2 in the exponent
        ("1e110", (-1.0, 0.0, 0.0), (3, 0, 0)),  # a**3 in a factor; exp(theta) = 0
    ],
)
def test_power_overflow_surfaces_as_evaluation_error(a_text, point, index):
    # float ** raises OverflowError where * gives inf
    field = unit_kernel_seed(Branch.PLUS, a_text, "0")
    with pytest.raises(EvaluationError, match="non-finite seed value"):
        field.partial(point, index)


def test_coefficient_evaluation_errors_propagate():
    field = unit_kernel_seed(Branch.PLUS, "1/y", "0")
    for _ in range(2):  # the failure is raised again, never stored
        with pytest.raises(EvaluationError, match="division by zero"):
            field.value((0.0, 0.0, 0.0))
        with pytest.raises(EvaluationError, match="division by zero"):
            field.duals(0.0, 0)
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
    a_one, _ = one.duals(0.7, 0)
    a_two, _ = two.duals(0.7, 0)
    assert (a_one.value, a_two.value) == (1.0, 2.0)
    assert one.value(point) == 1.0 + math.exp(0.3 - 0.2 + 0.35)
    assert two.value(point) == 1.0 + math.exp(0.6 - 0.8 + 0.35)


def test_table_keys_the_exact_float():
    field = SeedField(
        SeedSpec(Branch.PLUS, 0.0, (), HeatPolynomial(P("2*y"), P("y"), P("y^3")))
    )
    y = 0.1 + 0.2  # 0.30000000000000004, a row apart from 0.3
    for probe in (0.3, y, 0.0, -0.0):
        c2, c1, c0 = field.duals(probe, -1)
        assert (c2.value, c1.value, c0.value) == (2 * probe, probe, probe**3)
        assert math.copysign(1.0, c1.value) == math.copysign(1.0, probe)


# -- the per-index plans against the formulas they were resolved from ------------------


def reference_kernel_factor(index, a, a_prime, theta_y, sign):
    i, j, _ = index
    if index == (0, 0, 1):
        return -sign * a * a  # theta_t
    if j == 0:
        return a**i
    if index == (0, 1, 0):
        return theta_y
    if index == (1, 1, 0):
        return a_prime + a * theta_y
    return 2.0 * a * a_prime + a * a * theta_y  # (2, 1, 0)


def reference_poly_partial(index, c2, c1, c0, x, t, sign):
    if index == (0, 0, 0):
        return c2.value * (x * x - sign * 2.0 * t) + c1.value * x + c0.value
    if index == (1, 0, 0):
        return 2.0 * c2.value * x + c1.value
    if index == (2, 0, 0):
        return 2.0 * c2.value
    if index == (3, 0, 0):
        return 0.0
    if index == (0, 1, 0):
        return c2.deriv * (x * x - sign * 2.0 * t) + c1.deriv * x + c0.deriv
    if index == (0, 0, 1):
        return -sign * 2.0 * c2.value
    if index == (1, 1, 0):
        return 2.0 * c2.deriv * x + c1.deriv
    return 2.0 * c2.deriv  # (2, 1, 0)


def reference_partials(spec, point, indices):
    """Each total from 0.0: the constant, the kernels in spec order, the poly;
    coefficients from eval_dual at every call, with no table."""
    indices = [tuple(index) for index in indices]
    x, y, t = point
    sign = spec.branch.sign
    totals = [0.0] * len(indices)
    if spec.constant_term:
        for slot, index in enumerate(indices):
            if index == (0, 0, 0):
                totals[slot] += spec.constant_term
    for kernel in spec.kernels:
        a, b = eval_dual(kernel.a, y), eval_dual(kernel.b, y)
        theta = a.value * x - sign * a.value**2 * t + b.value
        theta_y = a.deriv * x - sign * 2.0 * a.value * a.deriv * t + b.deriv
        scale = kernel.amplitude * math.exp(theta)
        for slot, index in enumerate(indices):
            totals[slot] += (
                reference_kernel_factor(index, a.value, a.deriv, theta_y, sign) * scale
            )
    if spec.poly is not None:
        poly = spec.poly
        c2, c1, c0 = (eval_dual(expr, y) for expr in (poly.c2, poly.c1, poly.c0))
        for slot, index in enumerate(indices):
            totals[slot] += reference_poly_partial(index, c2, c1, c0, x, t, sign)
    return tuple(totals)


def reference_transform(spec, point):
    phi, phi_x, phi_y, phi_xy = reference_partials(
        spec, point, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
    )
    if abs(phi) < POLE_TOLERANCE * (1.0 + abs(phi_x) + abs(phi_y)):
        raise PoleError(point, phi)
    u = spec.branch.sign * 2.0 * phi_x / phi
    h = -2.0 * phi_x * phi_y / (phi * phi) + 2.0 * phi_xy / phi - 1.0
    return FieldPair(u, h)


def exactly(values):
    """Floats compared with ==, the sign of zero included."""
    return [(value, math.copysign(1.0, value)) for value in values]


COEFF_EXPRS = ("1", "0.8 + 0.3*tanh(y)", "1.2 - 0.1*y", "sech(y) + 0.5", "0.2*y")
PHASE_EXPRS = ("0", "0.2*y", "sin(y)", "0.5*cos(y) - 0.3", "-0.4*y + 1")
# "0*y" and "-0.5*y^2" give signed zeros at y = -0.0 and y < 0
POLY_EXPRS = ("0", "0*y", "0.5", "cos(y)", "-0.5*y^2", "tanh(y)", "1 - 0.2*y")
USED_INDEX_SETS = (
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),  # transform_point
    ((0, 0, 0),),  # SeedField.value
    ((0, 0, 1), (2, 0, 0)),  # heat_residual
)
ALL_INDICES = tuple(sorted(SUPPORTED_INDICES))


def random_spec(rng, branch, kind):
    kernels = ()
    if kind != "poly":
        kernels = tuple(
            Kernel(
                rng.choice((0.5, 1.0, 2.0)),
                P(rng.choice(COEFF_EXPRS)),
                P(rng.choice(PHASE_EXPRS)),
            )
            for _ in range(rng.randint(1, 3))
        )
    poly = None
    if kind != "kernels":
        poly = HeatPolynomial(*(P(rng.choice(POLY_EXPRS)) for _ in range(3)))
    return SeedSpec(branch, rng.choice((0.0, 1.0, 2.5)), kernels, poly)


def random_points(rng):
    points = [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 1)) for _ in range(8)
    ]
    return points + [(0.0, -0.0, 0.0), (-0.0, -1.5, 0.0), (0.7, 0.0, -0.0)]


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("kind", ("kernels", "poly", "mixed"))
def test_partials_equal_the_per_index_reference(branch, kind):
    rng = random.Random(f"{branch.name}-{kind}")
    for _ in range(12):
        spec = random_spec(rng, branch, kind)
        field = SeedField(spec)
        for point in random_points(rng):
            for indices in USED_INDEX_SETS + (ALL_INDICES,):
                got = field.partials(point, indices)
                assert exactly(got) == exactly(reference_partials(spec, point, indices))
            for index in ALL_INDICES:
                expected = reference_partials(spec, point, (index,))[0]
                assert exactly([field.partial(point, index)]) == exactly([expected])
            phi = reference_partials(spec, point, ((0, 0, 0),))[0]
            assert exactly([field.value(point)]) == exactly([phi])


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("kind", ("kernels", "poly", "mixed"))
def test_transform_point_equals_the_reference(branch, kind):
    rng = random.Random(f"transform-{branch.name}-{kind}")
    poles = 0
    for _ in range(12):
        spec = random_spec(rng, branch, kind)
        field = SeedField(spec)
        for point in random_points(rng):
            try:
                expected = reference_transform(spec, point)
            except PoleError:
                poles += 1
                with pytest.raises(PoleError):
                    transform_point(field, point)
                continue
            assert exactly(transform_point(field, point)) == exactly(expected)
    assert poles <= 12  # nearly every point is regular


def test_zero_constant_adds_nothing_and_keeps_the_sign_of_zero():
    # c2 = 0*y is -0.0 at y < 0, so phi_xx = 2*c2 is -0.0 as a term; the
    # total starts at 0.0 and so reads +0.0, as the reference does
    spec = SeedSpec(Branch.PLUS, 0.0, (), HeatPolynomial(P("0*y"), P("0"), P("0")))
    point = (0.5, -1.0, 0.25)
    indices = ((2, 0, 0), (3, 0, 0), (0, 0, 0))
    got = SeedField(spec).partials(point, indices)
    assert exactly(got) == exactly(reference_partials(spec, point, indices))
    assert exactly(got[:2]) == exactly([0.0, 0.0])


def test_index_sets_given_as_lists_or_jet_indices_use_the_same_plan():
    field = SeedField(random_spec(random.Random(3), Branch.MINUS, "mixed"))
    point = (0.4, -0.9, 0.3)
    indices = USED_INDEX_SETS[0]
    as_tuple = exactly(field.partials(point, indices))
    for same in (
        [list(index) for index in indices],
        [JetIndex(*index) for index in indices],
        iter(indices),
    ):
        assert exactly(field.partials(point, same)) == as_tuple
