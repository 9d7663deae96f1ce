"""Seed construction and analytic-partial tests."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlw.jetcalc import Branch, JetIndex
from dlw.seedlab.exprlang import EvaluationError, eval_dual, parse_coeff_expr
from dlw.seedlab.seeds import (
    SUPPORTED_INDICES,
    CoefficientError,
    HeatPolynomial,
    Kernel,
    SeedField,
    SeedSpec,
    _PHI,
    heat_residual,
)
from dlw.transform import POLE_TOLERANCE, PoleError, transform_point

P = parse_coeff_expr
BRANCHES = (Branch.PLUS, Branch.MINUS)
# what SeedField.transform_partials reads, as an index set for partials
TRANSFORM_INDICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))


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
    message = re.escape("kernels[0].a at y = 0.0: division by zero")
    for _ in range(2):  # the failure is raised again, never stored
        with pytest.raises(CoefficientError, match=f"^{message}$"):
            field.value((0.0, 0.0, 0.0))
        with pytest.raises(CoefficientError, match=f"^{message}$"):
            field.duals(0.0, 0)
    assert field.value((1.0, 0.5, 0.0)) == pytest.approx(1.0 + math.e**2)


def test_coefficient_error_names_its_member_and_y():
    spec = SeedSpec(
        Branch.MINUS,
        0.0,
        (Kernel(1.0, P("1"), P("0")), Kernel(1.0, P("1e308*10"), P("0"))),
        HeatPolynomial(P("1"), P("1/(y - 0.25)"), P("0")),
    )
    field = SeedField(spec)
    with pytest.raises(
        CoefficientError, match=r"^kernels\[1\]\.a at y = -0\.5: non-finite result$"
    ):
        field.value((0.0, -0.5, 0.0))
    with pytest.raises(CoefficientError, match=r"^poly\.c1 at y = 0\.25: division by zero$"):
        field.duals(0.25, -1)


def test_first_failing_term_names_the_error():
    # kernel 0 overflows at x = 1e4 before kernel 1's coefficient is needed
    spec = SeedSpec(
        Branch.PLUS, 1.0, (Kernel(1.0, P("1"), P("0")), Kernel(1.0, P("1"), P("1/y")))
    )
    with pytest.raises(EvaluationError, match=r"^kernel overflow at exponent 10000\.0$"):
        SeedField(spec).value((1e4, 0.0, 0.0))
    with pytest.raises(
        CoefficientError, match=re.escape("kernels[1].b at y = 0.0: division by zero")
    ):
        SeedField(spec).value((1.0, 0.0, 0.0))
    # kernel 0's a**2 past the float range, before kernel 1's coefficient
    spec = SeedSpec(
        Branch.PLUS, 1.0, (Kernel(1.0, P("1e160"), P("0")), Kernel(1.0, P("1"), P("1/y")))
    )
    with pytest.raises(EvaluationError, match="^non-finite seed value$"):
        SeedField(spec).value((1.0, 0.0, 0.0))


def test_cube_overflow_fails_only_the_index_sets_that_read_it():
    # a = 1e120: a**2 = 1e240 is finite and a**3 is not; theta = b at x = t = 0
    spec = SeedSpec(Branch.PLUS, 1.0, (Kernel(1.0, P("1e120"), P("0.5*y")),))
    field = SeedField(spec)
    point = (0.0, 0.0, 0.0)
    index_sets = [(index,) for index in ALL_INDICES]
    index_sets += [(first, second) for first in ALL_INDICES for second in ALL_INDICES]
    index_sets += [ALL_INDICES, tuple(reversed(ALL_INDICES))]
    for indices in index_sets:
        if (3, 0, 0) in indices:
            with pytest.raises(EvaluationError, match="^non-finite seed value$"):
                field.partials(point, indices)
        else:
            expected = reference_partials(spec, point, indices)
            assert repr(field.partials(point, indices)) == repr(expected)
    assert field.value(point) == 2.0


def test_duals_of_a_kernel_whose_square_overflows_fail_as_a_seed_value():
    # the exact path reads the duals; its exponent needs a**2 like `partials`
    field = unit_kernel_seed(Branch.PLUS, "y^400", "0")
    a, b = field.duals(2.428, 0)  # a**2 = 1.6e308
    assert (a.value, b.value) == (eval_dual(P("y^400"), 2.428).value, 0.0)
    for _ in range(2):
        with pytest.raises(EvaluationError, match="^non-finite seed value$"):
            field.duals(2.43, 0)


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


# The per-index factors as `partials` once looked them up, one function per
# index: the factor multiplying a kernel's amp*exp(theta).
REFERENCE_KERNEL_FACTORS = {
    (0, 0, 0): lambda a, a_prime, theta_y, sign: a**0,
    (1, 0, 0): lambda a, a_prime, theta_y, sign: a**1,
    (2, 0, 0): lambda a, a_prime, theta_y, sign: a**2,
    (3, 0, 0): lambda a, a_prime, theta_y, sign: a**3,
    (0, 1, 0): lambda a, a_prime, theta_y, sign: theta_y,
    (0, 0, 1): lambda a, a_prime, theta_y, sign: -sign * a * a,  # theta_t
    (1, 1, 0): lambda a, a_prime, theta_y, sign: a_prime + a * theta_y,
    (2, 1, 0): lambda a, a_prime, theta_y, sign: 2.0 * a * a_prime + a * a * theta_y,
}


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
    coefficients from eval_dual at every call, with no table, and each
    kernel factor from its own function."""
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
        try:
            theta = a.value * x - sign * a.value**2 * t + b.value
            theta_y = a.deriv * x - sign * 2.0 * a.value * a.deriv * t + b.deriv
            try:
                scale = kernel.amplitude * math.exp(theta)
            except OverflowError:
                raise EvaluationError(f"kernel overflow at exponent {theta!r}") from None
            for slot, index in enumerate(indices):
                factor = REFERENCE_KERNEL_FACTORS[index]
                totals[slot] += factor(a.value, a.deriv, theta_y, sign) * scale
        except OverflowError:  # a float power past the float range
            raise EvaluationError("non-finite seed value") from None
    if spec.poly is not None:
        poly = spec.poly
        c2, c1, c0 = (eval_dual(expr, y) for expr in (poly.c2, poly.c1, poly.c0))
        for slot, index in enumerate(indices):
            totals[slot] += reference_poly_partial(index, c2, c1, c0, x, t, sign)
    if not all(map(math.isfinite, totals)):
        raise EvaluationError("non-finite seed value")
    return tuple(totals)


def reference_transform(spec, point):
    phi, phi_x, phi_y, phi_xy = reference_partials(spec, point, TRANSFORM_INDICES)
    if abs(phi) < POLE_TOLERANCE * (1.0 + abs(phi_x) + abs(phi_y)):
        raise PoleError(point, phi)
    u = spec.branch.sign * 2.0 * phi_x / phi
    h = -2.0 * phi_x * phi_y / (phi * phi) + 2.0 * phi_xy / phi - 1.0
    return u, h


def exactly(values):
    """Floats compared with ==, the sign of zero included."""
    return [(value, math.copysign(1.0, value)) for value in values]


COEFF_EXPRS = ("1", "0.8 + 0.3*tanh(y)", "1.2 - 0.1*y", "sech(y) + 0.5", "0.2*y")
PHASE_EXPRS = ("0", "0.2*y", "sin(y)", "0.5*cos(y) - 0.3", "-0.4*y + 1")
# "0*y" and "-0.5*y^2" give signed zeros at y = -0.0 and y < 0
POLY_EXPRS = ("0", "0*y", "0.5", "cos(y)", "-0.5*y^2", "tanh(y)", "1 - 0.2*y")
USED_INDEX_SETS = (
    TRANSFORM_INDICES,
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


def _result(call):
    """What a call returns, by repr, or the exception it raises."""
    try:
        return repr(call())
    except Exception as exc:  # compared against the fresh field's
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("kind", ("kernels", "poly", "mixed"))
def test_interleaved_index_sets_each_get_their_own_plan(kind):
    # one field keeps a plan per index set and a row per y, which every call
    # shares; each call must still read as it does on a fresh field
    rng = random.Random(f"plans-{kind}")
    calls = (
        lambda field, point: field.partials(point, _PHI),
        lambda field, point: field.partials(point, TRANSFORM_INDICES),
        lambda field, point: field.value(point),
        lambda field, point: heat_residual(field, point),
        lambda field, point: field.partials(point, ((0, 0, 0), (0, 2, 0))),
        lambda field, point: transform_point(field, point),
        lambda field, point: field.partials(point, TRANSFORM_INDICES),
    )
    for branch in BRANCHES:
        spec = random_spec(rng, branch, kind)
        field = SeedField(spec)
        for point in random_points(rng):
            for call in calls + calls[::-1]:
                assert _result(lambda: call(field, point)) == _result(
                    lambda: call(SeedField(spec), point)
                )
    assert _result(lambda: calls[4](field, point))[0] == "ValueError"


def test_a_list_mutated_between_calls_gets_the_plan_for_its_new_contents():
    spec = random_spec(random.Random(5), Branch.PLUS, "mixed")
    field = SeedField(spec)
    point = (0.3, -0.7, 0.2)
    indices = []
    for contents in ([(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (2, 0, 0)], [(0, 0, 1)]):
        indices[:] = contents
        for _ in range(2):
            got = field.partials(point, indices)
            assert exactly(got) == exactly(SeedField(spec).partials(point, tuple(contents)))
    indices.append((0, 2, 0))
    with pytest.raises(ValueError, match="unsupported jet index"):
        field.partials(point, indices)


# -- the factor vector against the per-index functions, on drawn seeds -----------------

# Coefficients c + s*y: signed zeros, values whose cube (1e103, 1e120) or
# square (1e160) passes the float range, and ordinary values.
_VALUES = st.sampled_from((0.0, -0.0, 1.0, -1.5, 1e103, -1e120, 1e160)) | st.floats(-3, 3)
_SLOPES = st.just(0.0) | st.floats(-2, 2)
_COORDS = st.sampled_from((0.0, -0.0)) | st.floats(-2, 2)
_POINTS = st.tuples(_COORDS, _COORDS, st.sampled_from((0.0, -0.0)) | st.floats(0, 1))


@st.composite
def _coefficients(draw, values=_VALUES):
    value, slope = draw(values), draw(_SLOPES)
    return P(repr(value) if slope == 0.0 else f"{value!r} + {slope!r}*y")


@st.composite
def _seeds(draw):
    kernels = tuple(
        Kernel(
            draw(st.sampled_from((1.0, 0.5, -2.0, 0.0))),
            draw(_coefficients()),
            draw(_coefficients(st.floats(-3, 3))),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    poly = None
    if draw(st.booleans()):
        poly = HeatPolynomial(*(P(draw(st.sampled_from(POLY_EXPRS))) for _ in range(3)))
    constant = draw(st.sampled_from((0.0, 1.0)) | st.floats(-3, 3))
    return SeedSpec(draw(st.sampled_from(BRANCHES)), constant, kernels, poly)


def _outcome(evaluate):
    try:
        return "values", repr(evaluate())
    except EvaluationError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    spec=_seeds(),
    point=_POINTS,
    indices=st.lists(st.sampled_from(ALL_INDICES), min_size=1, max_size=8),
)
def test_factor_vector_equals_the_per_index_functions(spec, point, indices):
    expected = _outcome(lambda: reference_partials(spec, point, indices))
    field = SeedField(spec)
    for _ in range(2):  # a fresh coefficient row, then the stored one
        got = _outcome(lambda: field.partials(point, indices))
        if got != expected:
            # the one reordering: an a**3 past the float range is stored as
            # inf and fails at the final finiteness check, so a later
            # kernel's exponent overflow at the point is raised first
            assert expected == ("error", "non-finite seed value")
            assert (3, 0, 0) in indices
            assert got[1].startswith("kernel overflow at exponent")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=_seeds(), point=_POINTS)
def test_transform_partials_equal_the_general_partials(spec, point):
    expected = _outcome(lambda: SeedField(spec).partials(point, TRANSFORM_INDICES))
    field = SeedField(spec)
    for _ in range(2):  # a fresh coefficient row, then the stored one
        assert _outcome(lambda: field.transform_partials(point)) == expected
