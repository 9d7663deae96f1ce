"""Tests for the point transformation and the closed-form profiles."""

import math
import random
from types import SimpleNamespace

import pytest

from dlw.balance import build_ansatz, solve_balance_exponents
from dlw.branch import Branch
from dlw.jetcalc import specialize_log
from dlw.seedlab.exprlang import eval_dual, parse_coeff_expr
from dlw.seedlab.seeds import HeatPolynomial, SeedField, SeedSpec
from dlw.transform import (
    PoleError,
    exact_uh,
    exact_uh_const,
    transform_point,
)
from test_seeds import unit_kernel_seed

P = parse_coeff_expr
BRANCHES = (Branch.PLUS, Branch.MINUS)


def exact_at(a_expr, b_expr, branch, point):
    """exact_uh with its coefficient duals evaluated at the point's y."""
    y = point[1]
    return exact_uh(eval_dual(a_expr, y), eval_dual(b_expr, y), branch, point)


def test_vacuum_from_constant_seed():
    field = SeedField(SeedSpec(branch=Branch.PLUS, constant_term=2.0))
    pair = transform_point(field, (1.0, -2.0, 3.0))
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
        stub = SimpleNamespace(branch=branch, partials=lambda point: partials)
        u, h = transform_point(stub, (0.0, 0.0, 0.0))
        for got, poly in ((u, u_poly), (h, h_poly)):
            expected, scale = eval_specialized(poly, partials)
            assert abs(got - expected) <= 1e-12 * scale, (partials, got, expected)


def test_hand_evaluated_point():
    # phi = 4, phi_x = phi_y = phi_xy = 3 at x = ln 3 for a = 1, b = y
    field = unit_kernel_seed(Branch.PLUS, "1", "1*y")
    u, h = transform_point(field, (math.log(3.0), 0.0, 0.0))
    assert u == pytest.approx(1.5, rel=1e-12)
    assert h == pytest.approx(-0.625, rel=1e-12)


def test_pole_detection_on_heat_polynomial_seed():
    field = SeedField(
        SeedSpec(branch=Branch.PLUS, poly=HeatPolynomial(P("1"), P("0"), P("0")))
    )
    with pytest.raises(PoleError) as err:
        transform_point(field, (0.0, 0.4, 0.0))
    assert err.value.point == (0.0, 0.4, 0.0)
    # away from the parabola x^2 = 2t the transform is regular
    u, _ = transform_point(field, (2.0, 0.4, 0.0))
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
        u0, h0 = transform_point(base, point)
        u1, h1 = transform_point(scaled, point)
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
        u_t, h_t = transform_point(field, point)
        u_e, h_e = exact_at(*params, point)
        assert abs(u_t - u_e) <= 1e-10
        assert abs(h_t - h_e) <= 1e-10


def test_exact_const_at_origin():
    assert exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, (0.0, 0.0, 0.0)) == (1.0, -0.5)


@pytest.mark.parametrize("branch", BRANCHES)
def test_exact_const_asymptotics(branch):
    a, c, d = 1.0, 1.0, 0.0
    # argument -40: upstream vacuum
    u, h = exact_uh_const(a, c, d, branch, (-40.0, 0.0, 0.0))
    assert abs(u) <= 1e-12
    assert abs(h + 1.0) <= 1e-12
    # argument +40: u -> sign*2a
    u, h = exact_uh_const(a, c, d, branch, (40.0, 0.0, 0.0))
    assert abs(u - branch.sign * 2.0 * a) <= 1e-12
    assert abs(h + 1.0) <= 1e-12


def test_exact_const_specializes_exact_uh():
    params = (P("1"), P("1*y + 0"), Branch.PLUS)
    rng = random.Random(23)
    for _ in range(100):
        point = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2))
        u_g, h_g = exact_at(*params, point)
        u_c, h_c = exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, point)
        assert abs(u_g - u_c) <= 1e-14
        assert abs(h_g - h_c) <= 1e-14


def test_height_offset_bounded_for_positive_product():
    a, c = 1.4, 0.6
    rng = random.Random(31)
    for _ in range(200):
        point = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 2))
        _, h = exact_uh_const(a, c, 0.3, Branch.PLUS, point)
        assert 0.0 <= h + 1.0 <= a * c / 2.0


@pytest.mark.parametrize("branch", BRANCHES)
def test_branch_mirror(branch):
    # the opposite branch at mirrored time gives (-u, h)
    other = Branch.MINUS if branch is Branch.PLUS else Branch.PLUS
    rng = random.Random(37)
    for _ in range(50):
        x, y, t = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 1)
        u0, h0 = exact_uh_const(1.2, 0.8, 0.1, branch, (x, y, t))
        u1, h1 = exact_uh_const(1.2, 0.8, 0.1, other, (x, y, -t))
        assert u1 == pytest.approx(-u0, rel=1e-13, abs=1e-15)
        assert h1 == pytest.approx(h0, rel=1e-13)


# -- reduction ---------------------------------------------------------------------


def test_reduce_at_origin():
    assert exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, (0, 0, 0)) == (1.0, -0.5)


def test_reduction_depends_on_x_plus_y_only():
    a, d = 1.1, 0.4
    rng = random.Random(41)
    for _ in range(50):
        z, t = rng.uniform(-4, 4), rng.uniform(0, 1)
        shift = rng.uniform(-2, 2)
        first_u, first_h = exact_uh_const(a, a, d, Branch.PLUS, (z, 0.0, t))
        second_u, second_h = exact_uh_const(a, a, d, Branch.PLUS, (z - shift, shift, t))
        assert abs(first_u - second_u) <= 1e-14 * (1.0 + abs(first_u))
        assert abs(first_h - second_h) <= 1e-14 * (1.0 + abs(first_h))
