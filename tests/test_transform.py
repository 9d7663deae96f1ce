"""Tests for the point transformation and the closed-form profiles."""

import math
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlw.balance import build_ansatz, solve_balance_exponents
from dlw.branch import Branch
from dlw.jetcalc import specialize_log
from dlw.seedlab.exprlang import eval_dual, parse_coeff_expr, sech
from dlw.seedlab.seeds import HeatPolynomial, SeedField, SeedSpec
from dlw.transform import (
    PoleError,
    exact_phi,
    exact_phi_const,
    exact_uh,
    exact_uh_const,
    transform_point,
)
from test_seeds import unit_kernel_seed

P = parse_coeff_expr
BRANCHES = (Branch.PLUS, Branch.MINUS)


def pairs_field(a, b, branch):
    """A stand-in unit-kernel field whose `duals` returns the pairs a and b
    at every y."""
    return SimpleNamespace(branch=branch, duals=lambda y: (a, b))


def exact_at(a_expr, b_expr, branch, point):
    """exact_uh with its coefficient duals evaluated at the point's y."""
    y = point[1]
    return exact_uh(pairs_field(eval_dual(a_expr, y), eval_dual(b_expr, y), branch), *point)


def test_vacuum_from_constant_seed():
    field = SeedField(SeedSpec(branch=Branch.PLUS, constant_term=2.0))
    pair = transform_point(field, 1.0, -2.0, 3.0)
    assert pair == (0.0, -1.0)


def eval_specialized(poly, partials):
    """A phi-only JetPoly at floats (phi, phi_x, phi_y, phi_xy), summed over
    `monomials()`, with the sum of the terms' magnitudes."""
    phi, phi_x, phi_y, phi_xy = partials
    jets = {(1, 0, 0): phi_x, (0, 1, 0): phi_y, (1, 1, 0): phi_xy}
    terms = []
    for mono in poly.monomials():
        assert mono.syms == ()
        term = float(mono.coeff) * phi**mono.phi_power
        for jet in mono.jets:
            term *= jets[jet]
        terms.append(term)
    return math.fsum(terms), math.fsum(map(abs, terms))


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name.lower())
def test_transform_point_evaluates_the_derived_ansatz(branch):
    # derive's u and h, with the log resolution substituted, are the
    # formulas transform_point evaluates
    u_poly, h_poly = (
        specialize_log(p, branch) for p in build_ansatz(solve_balance_exponents())
    )
    rng = random.Random(31)
    for _ in range(200):
        phi = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0)
        partials = (phi, *(rng.uniform(-10.0, 10.0) for _ in range(3)))
        stub = SimpleNamespace(branch=branch, partials=lambda x, y, t: partials)
        u, h = transform_point(stub, 0.0, 0.0, 0.0)
        for got, poly in ((u, u_poly), (h, h_poly)):
            expected, scale = eval_specialized(poly, partials)
            assert abs(got - expected) <= 1e-12 * scale, (partials, got, expected)


def test_hand_evaluated_point():
    # phi = 4, phi_x = phi_y = phi_xy = 3 at x = ln 3 for a = 1, b = y
    field = unit_kernel_seed(Branch.PLUS, "1", "1*y")
    u, h = transform_point(field, math.log(3.0), 0.0, 0.0)
    assert u == pytest.approx(1.5, rel=1e-12)
    assert h == pytest.approx(-0.625, rel=1e-12)


def test_pole_detection_on_heat_polynomial_seed():
    field = SeedField(
        SeedSpec(branch=Branch.PLUS, poly=HeatPolynomial(P("1"), P("0"), P("0")))
    )
    with pytest.raises(PoleError) as err:
        transform_point(field, 0.0, 0.4, 0.0)
    assert err.value.point == (0.0, 0.4, 0.0)
    # away from the parabola x^2 = 2t the transform is regular
    u, _ = transform_point(field, 2.0, 0.4, 0.0)
    assert u == pytest.approx(2.0)


def test_gauge_invariance_under_seed_scaling():
    lam = 3.7
    base = unit_kernel_seed(Branch.PLUS, "1 + 0.5*tanh(y)", "0.2*y")
    scaled = unit_kernel_seed(
        Branch.PLUS, "1 + 0.5*tanh(y)", "0.2*y", constant=lam, amplitude=lam
    )
    rng = random.Random(5)
    for _ in range(50):
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
        u0, h0 = transform_point(base, *point)
        u1, h1 = transform_point(scaled, *point)
        assert abs(u1 - u0) <= 1e-12 * (1.0 + abs(u0))
        assert abs(h1 - h0) <= 1e-12 * (1.0 + abs(h0))


# -- closed forms -----------------------------------------------------------------


def test_exact_uh_trivial_coefficients():
    params = (P("1"), P("0"), Branch.PLUS)
    assert exact_at(*params, (0.0, 1.3, 0.0)) == (1.0, -1.0)


def test_exact_uh_hand_point():
    params = (P("1"), P("1*y"), Branch.PLUS)
    u, h = exact_at(*params, (math.log(3.0), 0.0, 0.0))
    assert u == pytest.approx(1.5, rel=1e-14)
    assert h == pytest.approx(-0.625, rel=1e-14)


@pytest.mark.parametrize("branch", BRANCHES)
def test_transform_equals_closed_form(branch):
    field = unit_kernel_seed(branch, "1 + 0.5*tanh(y)", "0.2*y")
    params = (P("1 + 0.5*tanh(y)"), P("0.2*y"), branch)
    rng = random.Random(17)
    for _ in range(1000):
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
        u_t, h_t = transform_point(field, *point)
        u_e, h_e = exact_at(*params, point)
        assert abs(u_t - u_e) <= 1e-10
        assert abs(h_t - h_e) <= 1e-10


def test_exact_const_at_origin():
    assert exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, 0.0, 0.0, 0.0) == (1.0, -0.5)


@pytest.mark.parametrize("branch", BRANCHES)
def test_exact_const_asymptotics(branch):
    a, c, d = 1.0, 1.0, 0.0
    # argument -40: upstream vacuum
    u, h = exact_uh_const(a, c, d, branch, -40.0, 0.0, 0.0)
    assert abs(u) <= 1e-12
    assert abs(h + 1.0) <= 1e-12
    # argument +40: u -> sign*2a
    u, h = exact_uh_const(a, c, d, branch, 40.0, 0.0, 0.0)
    assert abs(u - branch.sign * 2.0 * a) <= 1e-12
    assert abs(h + 1.0) <= 1e-12


def test_exact_const_specializes_exact_uh():
    params = (P("1"), P("1*y + 0"), Branch.PLUS)
    rng = random.Random(23)
    for _ in range(100):
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
        u_g, h_g = exact_at(*params, point)
        u_c, h_c = exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, *point)
        assert abs(u_g - u_c) <= 1e-14
        assert abs(h_g - h_c) <= 1e-14


def test_height_offset_bounded_for_positive_product():
    a, c = 1.4, 0.6
    rng = random.Random(31)
    for _ in range(200):
        point = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2))
        _, h = exact_uh_const(a, c, 0.3, Branch.PLUS, *point)
        assert 0.0 <= h + 1.0 <= a * c / 2.0


@pytest.mark.parametrize("branch", BRANCHES)
def test_branch_mirror(branch):
    # the opposite branch at mirrored time gives (-u, h)
    other = Branch.MINUS if branch is Branch.PLUS else Branch.PLUS
    rng = random.Random(37)
    for _ in range(50):
        x, y, t = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 1)
        u0, h0 = exact_uh_const(1.2, 0.8, 0.1, branch, x, y, t)
        u1, h1 = exact_uh_const(1.2, 0.8, 0.1, other, x, y, -t)
        assert u1 == pytest.approx(-u0, rel=1e-13, abs=1e-15)
        assert h1 == pytest.approx(h0, rel=1e-13)


def python_frames(fn, *args):
    """The name of each Python frame that one call fn(*args) opens, in order;
    C calls (math.exp, functools.partial) open none."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names


@pytest.mark.parametrize("branch", BRANCHES)
def test_closed_forms_are_leaf_calls(branch):
    # each runs in its own frame: no helper, no sech, no closure; on a field
    # whose table row at y is filled, the only other frame is its duals lookup
    field = unit_kernel_seed(branch, "1.2 + 0.3*y", "0.4 - 0.1*y")
    field.duals(0.7)
    assert python_frames(exact_uh, field, 0.5, 0.7, 0.2) == ["exact_uh", "duals"]
    assert python_frames(exact_phi, field, 0.5, 0.7, 0.2) == ["exact_phi", "duals"]
    const = (1.2, 0.8, 0.1, branch, 0.5, 0.7, 0.2)
    assert python_frames(exact_uh_const, *const) == ["exact_uh_const"]
    assert python_frames(exact_phi_const, *const) == ["exact_phi_const"]


@pytest.mark.parametrize("branch", BRANCHES)
def test_closed_form_phi_is_one_plus_exp_of_the_phase_and_inf_past_it(branch):
    # theta = 1*x - sign*1^2*t + 0.5*y on both paths; exp overflows past 709.78
    field = unit_kernel_seed(branch, "1", "0.5*y")
    for x in (-3.0, 0.0, 2.5, 700.0):
        expected = 1.0 + math.exp(x - branch.sign * 0.2 + 0.5 * 0.7)
        assert exact_phi(field, x, 0.7, 0.2) == expected
        assert exact_phi_const(1.0, 0.5, 0.0, branch, x, 0.7, 0.2) == expected
    assert exact_phi(field, 720.0, 0.7, 0.2) == math.inf
    assert exact_phi_const(1.0, 0.5, 0.0, branch, 720.0, 0.7, 0.2) == math.inf


# every float: subnormals, +-inf and nan among them
ANY_FLOAT = st.floats()
# any float, with finite, moderate values drawn as often
SOME_FLOAT = st.one_of(st.floats(-10.0, 10.0), ANY_FLOAT)


@settings(max_examples=300)
@given(a=SOME_FLOAT, c=SOME_FLOAT, d=SOME_FLOAT, x=SOME_FLOAT, y=SOME_FLOAT, t=SOME_FLOAT,
       branch=st.sampled_from(BRANCHES))
@example(a=1.0, c=1.0, d=1.7976931348623157e308, x=0.0, y=0.0, t=0.0, branch=Branch.PLUS)
@example(a=1.0, c=1.0, d=-1.7976931348623157e308, x=0.0, y=0.0, t=0.0, branch=Branch.MINUS)
@example(a=1.0, c=1.0, d=1e-310, x=0.0, y=0.0, t=0.0, branch=Branch.PLUS)
@example(a=1.0, c=1.0, d=math.inf, x=0.0, y=0.0, t=0.0, branch=Branch.PLUS)
@example(a=1.0, c=1.0, d=-math.inf, x=0.0, y=0.0, t=0.0, branch=Branch.MINUS)
@example(a=1.0, c=1.0, d=math.nan, x=0.0, y=0.0, t=0.0, branch=Branch.PLUS)
def test_exact_uh_const_is_bit_for_bit_its_formula_with_exprlang_sech(a, c, d, x, y, t, branch):
    # half reaches every float the sum can round to: subnormals, 8.99e307, inf, nan
    sign = branch.sign
    half = 0.5 * (a * x - sign * a * a * t + c * y + d)
    expected = (sign * a * (1.0 + math.tanh(half)), 0.5 * a * c * sech(half) ** 2 - 1.0)
    assert repr(exact_uh_const(a, c, d, branch, x, y, t)) == repr(expected)


@settings(max_examples=300)
@given(a=st.floats(-1e100, 1e100), a_prime=SOME_FLOAT, b=SOME_FLOAT, b_prime=SOME_FLOAT,
       x=SOME_FLOAT, y=SOME_FLOAT, t=SOME_FLOAT, branch=st.sampled_from(BRANCHES))
@example(a=0.0, a_prime=0.5, b=1.7976931348623157e308, b_prime=1.0, x=0.0, y=0.0, t=0.0,
         branch=Branch.PLUS)
@example(a=0.0, a_prime=0.5, b=1e-310, b_prime=1.0, x=0.0, y=0.0, t=0.0, branch=Branch.MINUS)
@example(a=0.0, a_prime=0.5, b=-math.inf, b_prime=1.0, x=0.0, y=0.0, t=0.0, branch=Branch.PLUS)
@example(a=0.0, a_prime=0.5, b=math.nan, b_prime=1.0, x=0.0, y=0.0, t=0.0, branch=Branch.MINUS)
def test_exact_uh_is_bit_for_bit_its_formula_with_exprlang_sech(
    a, a_prime, b, b_prime, x, y, t, branch
):
    # a is bounded as the kernel table bounds it: a^2 within the float range
    sign = branch.sign
    half = 0.5 * (a * x - sign * a**2 * t + b)
    theta_y = a_prime * x - sign * 2.0 * a * a_prime * t + b_prime
    th = math.tanh(half)
    expected = (
        sign * a * (1.0 + th),
        0.5 * a * theta_y * sech(half) ** 2 + a_prime * th + a_prime - 1.0,
    )
    got = exact_uh(pairs_field((a, a_prime), (b, b_prime), branch), x, y, t)
    assert repr(got) == repr(expected)


# -- reduction ---------------------------------------------------------------------


def test_reduce_at_origin():
    assert exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, 0, 0, 0) == (1.0, -0.5)


def test_reduction_depends_on_x_plus_y_only():
    a, d = 1.1, 0.4
    rng = random.Random(41)
    for _ in range(50):
        z, t = rng.uniform(-4, 4), rng.uniform(0, 1)
        shift = rng.uniform(-2, 2)
        first_u, first_h = exact_uh_const(a, a, d, Branch.PLUS, z, 0.0, t)
        second_u, second_h = exact_uh_const(a, a, d, Branch.PLUS, z - shift, shift, t)
        assert abs(first_u - second_u) <= 1e-14 * (1.0 + abs(first_u))
        assert abs(first_h - second_h) <= 1e-14 * (1.0 + abs(first_h))
