"""Seed construction and analytic-partial tests."""

import functools
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlw.errors import EvaluationError
from dlw.branch import Branch
from dlw.seedlab import seeds
from dlw.seedlab.exprlang import eval_dual, parse_coeff_expr
from dlw.seedlab.seeds import HeatPolynomial, Kernel, SeedField, SeedSpec
from dlw.transform import POLE_TOLERANCE, PoleError, transform_point
from documents import BRANCH_NAMES, EXTREME_RATES, LINEAR_PHASES, POLY, points
from documents import seed_documents, seed_spec

P = parse_coeff_expr
BRANCHES = (Branch.PLUS, Branch.MINUS)
# what SeedField.partials returns, as an index set for reference_partials
TRANSFORM_INDICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))


def unit_kernel_seed(branch, a_text, b_text, constant=1.0, amplitude=1.0):
    return SeedField(
        SeedSpec(
            branch=branch,
            constant_term=constant,
            kernels=(Kernel(amplitude, P(a_text), P(b_text)),),
        )
    )


# -- examples --------------------------------------------------------------------


def test_constant_seed_partials():
    field = SeedField(SeedSpec(branch=Branch.PLUS, constant_term=1.0))
    assert field.partials(0.3, -1.2, 0.5) == (1.0, 0.0, 0.0, 0.0)


def test_headline_kernel_at_origin():
    field = unit_kernel_seed(Branch.PLUS, "1", "0")
    phi, phi_x, _, _ = field.partials(0.0, 0.7, 0.0)
    assert (phi, phi_x) == pytest.approx((2.0, 1.0), rel=1e-15)


def test_kernel_partials_at_log_three():
    # a = 1, b = y: at x = ln 3 the kernel value is 3
    field = unit_kernel_seed(Branch.PLUS, "1", "1*y")
    point = (math.log(3.0), 0.0, 0.0)
    phi, px, py, pxy = field.partials(*point)
    assert phi == pytest.approx(4.0, rel=1e-14)
    assert px == pytest.approx(3.0, rel=1e-14)
    assert py == pytest.approx(3.0, rel=1e-14)
    assert pxy == pytest.approx(3.0, rel=1e-14)


def test_heat_polynomial_seed():
    spec = SeedSpec(branch=Branch.PLUS, poly=HeatPolynomial(P("1"), P("0"), P("0")))
    field = SeedField(spec)
    point = (2.0, 0.0, 1.0)
    assert field.partials(*point) == (2.0 * 2.0 - 2.0 * 1.0, 4.0, 0.0, 0.0)
    reference = functools.partial(reference_partials, spec)
    assert reference(point, ((2, 0, 0), (0, 0, 1))) == (2.0, -2.0)
    assert heat_residual(reference, spec.branch, point) == 0.0


@pytest.mark.parametrize("branch", BRANCHES)
def test_kernel_exponent_follows_branch(branch):
    # theta = a*x - sign*a^2*t + b, so at x = 0, t = 1: phi = 1 + e^-sign
    field = unit_kernel_seed(branch, "1", "0")
    assert field.partials(0.0, 0.0, 1.0)[0] == pytest.approx(1.0 + math.exp(-branch.sign))


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
    for _ in range(25):
        point = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 1))
        for lhs, rhs in zip(halves.partials(*point), whole.partials(*point)):
            assert abs(lhs - rhs) <= 1e-15 * (1.0 + abs(rhs))


# -- the residual self-check -------------------------------------------------------


def heat_residual(partials, branch, point):
    """phi_t + sign*phi_xx at a point, from `partials(point, indices)`; zero
    for every genuine seed."""
    phi_t, phi_xx = partials(point, ((0, 0, 1), (2, 0, 0)))
    return phi_t + branch.sign * phi_xx


_SEED_CORPUS = [
    seed_spec({"kind": "kernels", "constant": 1.0, "kernels": [{"a": "1", "b": "1*y"}]}),
    seed_spec({"kind": "kernels", "constant": 1.0,
               "kernels": [{"a": "1 + 0.5*tanh(y)", "b": "0.2*y"}]}, "minus"),
    seed_spec({"kind": "kernels", "constant": 2.5, "kernels": [
        {"a": "1", "b": "0.3*y"}, {"amplitude": 0.7, "a": "1.6", "b": "-0.4*y"}]}),
    seed_spec({"kind": "mixed", "kernels": [{"a": "sech(y)", "b": "sin(y)"}], "poly": POLY},
              "minus"),
    seed_spec({"kind": "poly", "poly": {"c2": "1", "c1": "tanh(y)"}}),
]


@pytest.mark.parametrize("spec", _SEED_CORPUS)
def test_every_seed_satisfies_the_linear_equation(spec):
    # the table-free reference, whose phi the field's partials equal
    field = SeedField(spec)
    reference = functools.partial(reference_partials, spec)
    rng = random.Random(99)
    for _ in range(100):
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
        phi, phi_t = reference(point, ((0, 0, 0), (0, 0, 1)))
        assert field.partials(*point)[0] == phi
        residual = heat_residual(reference, spec.branch, point)
        assert abs(residual) <= 1e-12 * (1.0 + abs(phi_t))


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


def test_corrupted_exponent_is_flagged():
    a = 1.3
    field = _CorruptedField(a)
    point = (0.4, 0.0, 0.2)
    expected = a**2 * math.exp(a * 0.4 - 2.0 * a**2 * 0.2)
    residual = heat_residual(field.partials, field.branch, point)
    assert residual == pytest.approx(-expected, rel=1e-12)
    assert abs(residual) > 0.1


# -- errors -------------------------------------------------------------------------


def test_kernel_overflow_surfaces_as_evaluation_error():
    field = unit_kernel_seed(Branch.PLUS, "1", "0")
    with pytest.raises(EvaluationError):
        field.partials(1e4, 0.0, 0.0)
    # exp(709.5) is finite and twice it is not: partials returns the sums as
    # summed, and transform_point, which divides by them, refuses them
    doubled = SeedField(SeedSpec(Branch.PLUS, 0.0, (Kernel(2.0, P("1"), P("709")),)))
    assert repr(doubled.partials(0.5, 0.0, 0.0)) == "(inf, inf, nan, nan)"
    with pytest.raises(
        EvaluationError, match=r"^seed: non-finite seed value at point \(0\.5, 0\.0, 0\.0\)$"
    ):
        transform_point(doubled, 0.5, 0.0, 0.0)


def test_power_overflow_surfaces_as_evaluation_error():
    # float ** raises OverflowError where * gives inf; a**2 is in the exponent
    field = unit_kernel_seed(Branch.PLUS, "1e160", "0")
    for read in (field.partials, functools.partial(transform_point, field)):
        with pytest.raises(
            EvaluationError, match=r"^seed\.kernels\[0\]\.a at y = 0\.0: a\^2 overflows$"
        ):
            read(0.5, 0.0, 0.5)


def test_coefficient_evaluation_errors_propagate():
    field = unit_kernel_seed(Branch.PLUS, "1/y", "0")
    message = re.escape("seed.kernels[0].a at y = 0.0: division by zero")
    for _ in range(2):  # the failure is raised again, never stored
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            field.partials(0.0, 0.0, 0.0)
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            field.phi(0.0, 0.0, 0.0)
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            field.duals(0.0)
    assert field.partials(1.0, 0.5, 0.0)[0] == pytest.approx(1.0 + math.e**2)


def test_coefficient_error_names_its_member_and_y():
    spec = SeedSpec(
        Branch.MINUS,
        0.0,
        (Kernel(1.0, P("1"), P("0")), Kernel(1.0, P("1e308*10"), P("0"))),
        HeatPolynomial(P("1"), P("1/(y - 0.25)"), P("0")),
    )
    field = SeedField(spec)
    for read in (field.partials, field.phi):
        with pytest.raises(
            EvaluationError, match=r"^seed\.kernels\[1\]\.a at y = -0\.5: non-finite result$"
        ):
            read(0.0, -0.5, 0.0)
    # the poly is read after the kernels: drop the one that fails at every y
    field = SeedField(spec._replace(kernels=spec.kernels[:1]))
    for read in (field.partials, field.phi):
        with pytest.raises(
            EvaluationError, match=r"^seed\.poly\.c1 at y = 0\.25: division by zero$"
        ):
            read(0.0, 0.25, 0.0)


def test_first_failing_term_names_the_error():
    # kernel 0 overflows at x = 1e4 before kernel 1's coefficient is needed
    spec = SeedSpec(
        Branch.PLUS, 1.0, (Kernel(1.0, P("1"), P("0")), Kernel(1.0, P("1"), P("1/y")))
    )
    message = r"^seed\.kernels\[0\] at y = 0\.0: kernel overflow at exponent 10000\.0$"
    for read in (SeedField(spec).partials, SeedField(spec).phi,
                 functools.partial(transform_point, SeedField(spec))):
        with pytest.raises(EvaluationError, match=message):
            read(1e4, 0.0, 0.0)
    with pytest.raises(
        EvaluationError, match=re.escape("seed.kernels[1].b at y = 0.0: division by zero")
    ):
        SeedField(spec).partials(1.0, 0.0, 0.0)
    # kernel 0's a**2 past the float range, before kernel 1's coefficient
    spec = SeedSpec(
        Branch.PLUS, 1.0, (Kernel(1.0, P("1e160"), P("0")), Kernel(1.0, P("1"), P("1/y")))
    )
    message = r"^seed\.kernels\[0\]\.a at y = 0\.0: a\^2 overflows$"
    for read in (SeedField(spec).partials, SeedField(spec).phi,
                 functools.partial(transform_point, SeedField(spec))):
        with pytest.raises(EvaluationError, match=message):
            read(1.0, 0.0, 0.0)


def test_duals_of_a_kernel_whose_square_overflows_name_the_kernel():
    # the exact path reads the duals; its exponent needs a**2 like `partials`
    field = unit_kernel_seed(Branch.PLUS, "y^400", "0")
    _, a, _, b, *_ = field.duals(2.428)  # a**2 = 1.6e308
    assert (a, b) == (eval_dual(P("y^400"), 2.428)[0], 0.0)
    for _ in range(2):
        with pytest.raises(
            EvaluationError, match=r"^seed\.kernels\[0\]\.a at y = 2\.43: a\^2 overflows$"
        ):
            field.duals(2.43)


# -- the coefficient table ------------------------------------------------------------


def test_fields_with_different_specs_keep_separate_tables():
    one = unit_kernel_seed(Branch.PLUS, "1 + 0*y", "0.5*y")
    two = unit_kernel_seed(Branch.PLUS, "2 + 0*y", "0.5*y")
    point = (0.3, 0.7, 0.2)
    for first, second in ((one, two), (two, one)):
        first.partials(*point)
        second.partials(*point)
    a_one, a_two = one.duals(0.7)[1], two.duals(0.7)[1]
    assert (a_one, a_two) == (1.0, 2.0)
    assert one.partials(*point)[0] == 1.0 + math.exp(0.3 - 0.2 + 0.35)
    assert two.partials(*point)[0] == 1.0 + math.exp(0.6 - 0.8 + 0.35)


def test_table_keys_the_exact_float(monkeypatch):
    field = SeedField(
        SeedSpec(Branch.PLUS, 0.0, (), HeatPolynomial(P("2*y"), P("y"), P("y^3")))
    )
    pairs = []  # what the table stores, in evaluation order

    def recorded(expr, y):
        pairs.append(eval_dual(expr, y))
        return pairs[-1]

    monkeypatch.setattr(seeds, "eval_dual", recorded)
    y = 0.1 + 0.2  # 0.30000000000000004, a row apart from 0.3
    for probe in (0.3, y, 0.0, -0.0):
        pairs.clear()
        phi = field.partials(1.0, probe, 0.0)[0]
        field.partials(2.0, probe, 0.0)  # the row is filled: no evaluation
        (c2, _), (c1, _), (c0, _) = pairs  # one new row for this probe
        assert (c2, c1, c0) == (2 * probe, probe, probe**3)
        assert math.copysign(1.0, c1) == math.copysign(1.0, probe)
        assert phi == 0.0 + (c2 * 1.0 + c1 * 1.0 + c0)


# -- the field against a table-free reference -------------------------------------------


# Per index, the factor multiplying a kernel's amp*exp(theta).
REFERENCE_KERNEL_FACTORS = {
    (0, 0, 0): lambda a, a_prime, theta_y, sign: a**0,
    (1, 0, 0): lambda a, a_prime, theta_y, sign: a**1,
    (2, 0, 0): lambda a, a_prime, theta_y, sign: a**2,
    (0, 1, 0): lambda a, a_prime, theta_y, sign: theta_y,
    (0, 0, 1): lambda a, a_prime, theta_y, sign: -sign * a * a,  # theta_t
    (1, 1, 0): lambda a, a_prime, theta_y, sign: a_prime + a * theta_y,
}


def reference_poly_partial(index, c2, c1, c0, x, t, sign):
    """One partial of the poly part; c2, c1, c0 are (value, deriv) pairs."""
    (c2, c2_prime), (c1, c1_prime), (c0, c0_prime) = c2, c1, c0
    if index == (0, 0, 0):
        return c2 * (x * x - sign * 2.0 * t) + c1 * x + c0
    if index == (1, 0, 0):
        return 2.0 * c2 * x + c1
    if index == (2, 0, 0):
        return 2.0 * c2
    if index == (0, 1, 0):
        return c2_prime * (x * x - sign * 2.0 * t) + c1_prime * x + c0_prime
    if index == (0, 0, 1):
        return -sign * 2.0 * c2
    return 2.0 * c2_prime * x + c1_prime  # (1, 1, 0)


def reference_partials(spec, point, indices):
    """Each total from 0.0: the constant, the kernels in spec order, the poly;
    coefficients from eval_dual at every call, with no table, and each
    kernel factor from its own function."""
    x, y, t = point
    sign = spec.branch.sign
    totals = [0.0] * len(indices)
    if spec.constant_term:
        for slot, index in enumerate(indices):
            if index == (0, 0, 0):
                totals[slot] += spec.constant_term
    for pos, kernel in enumerate(spec.kernels):
        (a, a_prime), (b, b_prime) = eval_dual(kernel.a, y), eval_dual(kernel.b, y)
        try:
            theta = a * x - sign * a**2 * t + b
            theta_y = a_prime * x - sign * 2.0 * a * a_prime * t + b_prime
            try:
                scale = kernel.amplitude * math.exp(theta)
            except OverflowError:
                raise EvaluationError(
                    f"seed.kernels[{pos}] at y = {y!r}: "
                    f"kernel overflow at exponent {theta!r}"
                ) from None
            for slot, index in enumerate(indices):
                factor = REFERENCE_KERNEL_FACTORS[index]
                totals[slot] += factor(a, a_prime, theta_y, sign) * scale
        except OverflowError:  # a**2 past the float range
            raise EvaluationError(
                f"seed.kernels[{pos}].a at y = {y!r}: a^2 overflows"
            ) from None
    if spec.poly is not None:
        poly = spec.poly
        c2, c1, c0 = (eval_dual(expr, y) for expr in (poly.c2, poly.c1, poly.c0))
        for slot, index in enumerate(indices):
            totals[slot] += reference_poly_partial(index, c2, c1, c0, x, t, sign)
    return tuple(totals)


def reference_transform(spec, point):
    phi, phi_x, phi_y, phi_xy = reference_partials(spec, point, TRANSFORM_INDICES)
    if not all(map(math.isfinite, (phi, phi_x, phi_y, phi_xy))):
        raise EvaluationError(f"seed: non-finite seed value at point {point}")
    if abs(phi) < POLE_TOLERANCE * (1.0 + abs(phi_x) + abs(phi_y)):
        raise PoleError(point, phi)
    u = spec.branch.sign * 2.0 * phi_x / phi
    h = -2.0 * phi_x * phi_y / (phi * phi) + 2.0 * phi_xy / phi - 1.0
    return u, h


def exactly(values):
    """Floats compared with ==, the sign of zero included."""
    return [(value, math.copysign(1.0, value)) for value in values]


def test_zero_constant_adds_nothing_and_keeps_the_sign_of_zero():
    # c2 = c1 = 0*y are -0.0 at y < 0, so phi_x = 2*c2*x + c1 is -0.0 as a
    # term; the total starts at 0.0 and so reads +0.0, as the reference does
    spec = SeedSpec(Branch.PLUS, 0.0, (), HeatPolynomial(P("0*y"), P("0*y"), P("0")))
    field = SeedField(spec)
    point = (0.5, -1.0, 0.25)
    got = field.partials(*point)
    assert exactly(got) == exactly(reference_partials(spec, point, TRANSFORM_INDICES))
    assert exactly(got[1:2]) == exactly([0.0])


# -- the field against the reference, on drawn seeds -----------------------------------


def _outcome(evaluate):
    try:
        return "values", repr(evaluate())
    except (EvaluationError, PoleError) as exc:
        return "error", type(exc).__name__, str(exc)


# terms whose zeros carry the sign of y: "0*y" and "0.2*y" are -0.0 at y = -0.0
SIGNED_ZERO_SEED = {"kind": "mixed", "constant": 0.0, "kernels": [{"a": "0.2*y", "b": "0"}],
                    "poly": {"c2": "0*y", "c1": "-0.5*y^2", "c0": "0"}}


@settings(max_examples=300)
@given(
    seed=seed_documents(
        kinds=("kernels", "poly", "mixed"),
        rates=EXTREME_RATES,
        phases=LINEAR_PHASES,
        amplitudes=st.sampled_from((0.5, 1.0, 2.0, -2.0, 0.0)),
        constants=st.sampled_from((0.0, 1.0, 2.5)) | st.floats(-3, 3),
    ),
    branch=st.sampled_from(BRANCH_NAMES),
    point=points,
)
# phi = 1 + exp(709) is finite and phi_x = 4*exp(709) is not: only
# transform_point's check refuses it, where a pole test would see a pole
@example(seed={"kind": "kernels", "constant": 1.0, "kernels": [{"a": "4", "b": "707"}]},
         branch="plus", point=(0.5, 0.0, 0.0))
@example(seed=SIGNED_ZERO_SEED, branch="plus", point=(0.0, -0.0, 0.0))
@example(seed=SIGNED_ZERO_SEED, branch="minus", point=(-0.0, -1.5, 0.0))
@example(seed=SIGNED_ZERO_SEED, branch="plus", point=(0.7, 0.0, -0.0))
def test_partials_and_transform_point_equal_the_reference(seed, branch, point):
    spec = seed_spec(seed, branch)
    expected = _outcome(lambda: reference_partials(spec, point, TRANSFORM_INDICES))
    expected_uh = _outcome(lambda: reference_transform(spec, point))
    reads = ((SeedField.partials, expected), (transform_point, expected_uh))
    for order in (reads, reads[::-1]):  # each reader first on a fresh field
        field = SeedField(spec)
        for _ in range(2):  # a fresh coefficient row, then the stored one
            for read, want in order:
                assert _outcome(lambda: read(field, *point)) == want


@settings(max_examples=300)
@given(
    seed=seed_documents(
        rates=EXTREME_RATES,
        phases=LINEAR_PHASES,
        amplitudes=st.sampled_from((0.5, 1.0, 2.0, -2.0, 0.0)),
        constants=st.sampled_from((0.0, 1.0, 2.5)) | st.floats(-3, 3),
    ),
    branch=st.sampled_from(BRANCH_NAMES),
    point=points,
    y=st.none() | st.sampled_from((0.0, -0.0, math.nan)),
)
@example(seed={"kind": "kernels", "constant": 1.0, "kernels": [{"a": "4", "b": "707"}]},
         branch="plus", point=(0.5, 0.0, 0.0), y=None)
@example(seed=SIGNED_ZERO_SEED, branch="plus", point=(0.0, -0.0, 0.0), y=None)
@example(seed=SIGNED_ZERO_SEED, branch="minus", point=(-0.0, -1.5, 0.0), y=None)
# c2*q + c1*x + c0 rounds apart from c2*q + (c1*x + c0) here
@example(seed={"kind": "poly", "constant": 0.0, "poly": POLY}, branch="plus",
         point=(0.61, 1.15, 0.09), y=None)
def test_phi_is_the_first_partial_bit_for_bit(seed, branch, point, y):
    # repr tells the signed zeros, inf and nan apart; `y` replaces the
    # point's y with a signed zero or nan
    x, y, t = point if y is None else (point[0], y, point[2])
    spec = seed_spec(seed, branch)
    reads = (SeedField.phi, lambda field, *point: field.partials(*point)[0])
    for order in (reads, reads[::-1]):  # each reader first on a fresh field
        field = SeedField(spec)
        # -y after y, so the signed zeros must keep their rows apart, then y
        # again from its stored row
        for point in ((x, y, t), (x, -y, t), (x, y, t)):
            first, second = (_outcome(lambda: read(field, *point)) for read in order)
            assert first == second
