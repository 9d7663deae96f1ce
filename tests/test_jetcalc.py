"""Exactness tests for the jet-variable calculus."""

import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlw import jetcalc
from dlw.branch import Branch
from dlw.jetcalc import (
    JetPoly,
    OrderLimitError,
    SpecializationError,
    _term_order,
    reduce_heat,
    specialize_log,
    total_derivative,
)

jet = JetPoly.jet
sym = JetPoly.symbol
BRANCHES = (Branch.PLUS, Branch.MINUS)


# -- oracle: repeated symbolic phi-differentiation of 2*ln(phi) -------------


def log_derivative_powers(n: int) -> dict[int, Fraction]:
    """n-th derivative of 2*ln(phi) as {phi_power: coeff}, computed by
    repeatedly differentiating rational powers; independent of the closed
    form used in specialize_log."""
    assert n >= 1
    terms = {-1: Fraction(2)}
    for _ in range(n - 1):
        terms = {power - 1: coeff * power for power, coeff in terms.items()}
    return terms


def poly_from_powers(terms: dict[int, Fraction], scale: int = 1) -> JetPoly:
    return JetPoly({(power, (), ()): coeff * scale for power, coeff in terms.items()})


# -- total derivative --------------------------------------------------------


def test_derivative_of_first_jet():
    assert total_derivative(jet(1, 0, 0), "x") == jet(2, 0, 0)


def test_derivative_with_symbol_chain_rule():
    # u = f'*phi_x gives u_x = f''*phi_x^2 + f'*phi_xx
    u = sym("F", 1) * jet(1, 0, 0)
    expected = sym("F", 2) * jet(1, 0, 0) * jet(1, 0, 0) + sym("F", 1) * jet(2, 0, 0)
    assert total_derivative(u, "x") == expected


def test_derivative_product_rule_on_square():
    p = jet(0, 1, 0) * jet(0, 1, 0)
    assert total_derivative(p, "t") == 2 * (jet(0, 1, 0) * jet(0, 1, 1))


def test_derivative_of_phi_power():
    # D_x(phi^2) = 2*phi*phi_x
    p = JetPoly({(2, (), ()): 1})
    assert total_derivative(p, "x") == 2 * (JetPoly({(1, (), ()): 1}) * jet(1, 0, 0))


def test_derivative_rejects_unknown_direction():
    with pytest.raises(ValueError):
        total_derivative(jet(1, 0, 0), "z")


def _cap_message(raw_key) -> str:
    """The validating constructor's OrderLimitError text for raw_key: an
    operation that checks the orders it raises must read the same."""
    with pytest.raises(OrderLimitError) as raised:
        JetPoly({raw_key: 1})
    return str(raised.value)


def test_derivative_order_cap_is_detected():
    p = jet(8, 0, 0)
    with pytest.raises(OrderLimitError) as raised:
        total_derivative(p, "x")
    assert str(raised.value) == _cap_message((0, ((9, 0, 0),), ()))


def test_symbol_order_cap_is_detected():
    p = sym("F", 8)
    with pytest.raises(OrderLimitError) as raised:
        total_derivative(p, "x")
    assert str(raised.value) == _cap_message((0, ((1, 0, 0),), (("F", 9),)))


# -- logarithmic specialization ----------------------------------------------


@pytest.mark.parametrize("branch", BRANCHES)
def test_specialize_first_symbol(branch):
    phi_inverse = JetPoly({(-1, (), ()): 1})
    assert specialize_log(sym("F", 1), branch) == branch.sign * phi_inverse * 2
    assert specialize_log(sym("G", 1), branch) == 2 * phi_inverse


def test_specialize_matches_oracle_values():
    # frozen from the oracle: g'' = -2*phi^-2, g'''' = -12*phi^-4
    assert log_derivative_powers(2) == {-2: Fraction(-2)}
    assert log_derivative_powers(4) == {-4: Fraction(-12)}
    for branch in BRANCHES:
        assert specialize_log(sym("G", 2), branch) == poly_from_powers(
            log_derivative_powers(2)
        )
        assert specialize_log(sym("G", 4), branch) == poly_from_powers(
            log_derivative_powers(4)
        )


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("order", range(1, 7))
def test_specialize_matches_oracle_to_order_six(branch, order):
    oracle = poly_from_powers(log_derivative_powers(order))
    assert specialize_log(sym("G", order), branch) == oracle
    assert specialize_log(sym("F", order), branch) == branch.sign * oracle


@pytest.mark.parametrize("branch", BRANCHES)
def test_specialize_quadratic_symbol_combination(branch):
    # f''^2 + f'f''' collapses to 12*phi^-4, cancelling g''''
    combo = sym("F", 2) * sym("F", 2) + sym("F", 1) * sym("F", 3)
    f2 = poly_from_powers(log_derivative_powers(2), branch.sign)
    expected = (
        f2 * f2
        + poly_from_powers(log_derivative_powers(1), branch.sign)
        * poly_from_powers(log_derivative_powers(3), branch.sign)
    )
    assert expected == 12 * JetPoly({(-4, (), ()): 1})
    assert specialize_log(combo, branch) == expected
    assert (
        specialize_log(combo + sym("G", 4), branch).is_zero
    ), "g'''' + f''^2 + f'f''' must vanish"


def test_specialize_rejects_zeroth_order():
    with pytest.raises(SpecializationError):
        specialize_log(sym("F", 0), Branch.PLUS)
    with pytest.raises(SpecializationError):
        specialize_log(sym("G", 0), Branch.MINUS)


# -- heat reduction -----------------------------------------------------------


@pytest.mark.parametrize("branch", BRANCHES)
def test_reduce_heat_first_derivative(branch):
    assert reduce_heat(jet(0, 0, 1), branch) == -branch.sign * jet(2, 0, 0)


@pytest.mark.parametrize("branch", BRANCHES)
def test_reduce_heat_differential_consequence(branch):
    assert reduce_heat(jet(1, 1, 1), branch) == -branch.sign * jet(3, 1, 0)


@pytest.mark.parametrize("branch", BRANCHES)
def test_reduce_heat_annihilates_constraint(branch):
    constraint = jet(0, 0, 1) + branch.sign * jet(2, 0, 0)
    assert reduce_heat(constraint, branch).is_zero


def test_reduce_heat_requires_symbol_free_input():
    with pytest.raises(SpecializationError):
        reduce_heat(sym("F", 1) * jet(0, 0, 1), Branch.PLUS)


def test_reduce_heat_order_cap():
    with pytest.raises(OrderLimitError) as raised:
        reduce_heat(jet(7, 0, 1), Branch.PLUS)
    assert str(raised.value) == _cap_message((0, ((9, 0, 0),), ()))


# -- rendering -----------------------------------------------------------------


def test_render_matches_debug_format():
    p = 2 * JetPoly({(-2, (), ()): 1}) * jet(1, 0, 0) * jet(0, 1, 0)
    assert p.render() == "2*phi^-2*phi_x*phi_y"
    assert JetPoly().render() == "0"
    q = sym("F", 2) * jet(1, 0, 0) * jet(1, 0, 0) - JetPoly.constant(1)
    assert q.render() == "phi_x*phi_x*f'' - 1"


def test_render_pins_factor_and_term_order():
    u = sym("F", 1) * jet(1, 0, 0)
    h = sym("G", 2) * jet(1, 0, 0) * jet(0, 1, 0) + sym("G", 1) * jet(1, 1, 0)
    assert total_derivative(u * (h + JetPoly.constant(-1)), "x").render() == (
        "phi_x*phi_x*phi_x*phi_y*f'*g''' + phi_x*phi_x*phi_x*phi_y*f''*g'' "
        "+ 2*phi_x*phi_x*phi_xy*f'*g'' + phi_x*phi_x*phi_xy*f''*g' "
        "+ 2*phi_x*phi_xx*phi_y*f'*g'' - phi_x*phi_x*f'' + phi_x*phi_xxy*f'*g' "
        "+ phi_xx*phi_xy*f'*g' - phi_xx*f'"
    )
    one_degree = (
        sym("F", 2) * jet(2, 0, 0)
        + sym("F", 1) * jet(1, 1, 0)
        + sym("F", 3) * jet(0, 1, 0)
    )
    assert specialize_log(one_degree, Branch.MINUS).render() == (
        "-2*phi^-1*phi_xy + 2*phi^-2*phi_xx - 4*phi^-3*phi_y"
    )


# -- randomized exact properties -----------------------------------------------

_coeffs = st.fractions(min_value=-5, max_value=5).filter(bool)
_jets = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)).filter(any)
_syms = st.tuples(st.sampled_from("FG"), st.integers(1, 3))
_keys = st.tuples(
    st.integers(-2, 2),
    st.lists(_jets, max_size=2).map(lambda items: tuple(sorted(items))),
    st.lists(_syms, max_size=2).map(lambda items: tuple(sorted(items))),
)
_polys = st.dictionaries(_keys, _coeffs, max_size=3).map(JetPoly)
_symbol_free_keys = st.tuples(
    st.integers(-2, 2),
    st.lists(_jets, max_size=2).map(lambda items: tuple(sorted(items))),
    st.just(()),
)
_symbol_free = st.dictionaries(_symbol_free_keys, _coeffs, max_size=3).map(JetPoly)


@settings(max_examples=60)
@given(
    st.dictionaries(_keys, _coeffs, max_size=4),
    st.dictionaries(_keys, _coeffs, max_size=2),
    _coeffs,
    st.randoms(use_true_random=False),
)
def test_raw_pairs_canonicalise_to_the_merged_mapping(terms, cancelled, split, rng):
    def shuffled(key):
        phi_power, jets, syms = key
        return (phi_power, rng.sample(jets, len(jets)), rng.sample(syms, len(syms)))

    pairs = []
    for key, coeff in terms.items():  # each coefficient split over two pairs
        pairs += [(shuffled(key), coeff - split), (shuffled(key), split)]
    for key, coeff in cancelled.items():  # pairs that cancel to nothing
        pairs += [(shuffled(key), coeff), (shuffled(key), -coeff)]
    rng.shuffle(pairs)
    merged = JetPoly(terms)
    got = JetPoly(pairs)
    assert got == merged
    assert got.monomials() == merged.monomials()  # the same terms in the same order
    assert len(got.monomials()) == len(terms)


def _raw_pairs(p: JetPoly, scale: Fraction | int = 1) -> list:
    return [((m.phi_power, m.jets, m.syms), m.coeff * scale) for m in p.monomials()]


def _product_pairs(p: JetPoly, q: JetPoly) -> list:
    """Raw pairs of p*q: every pair of terms, factors of p's term then q's,
    left for the validating constructor to sort."""
    return [
        ((p1 + p2, (*jets1, *jets2), (*syms1, *syms2)), c1 * c2)
        for (p1, jets1, syms1), c1 in _raw_pairs(p)
        for (p2, jets2, syms2), c2 in _raw_pairs(q)
    ]


def _derivative_pairs(p: JetPoly, direction: str) -> list:
    """Raw pairs of the total derivative of p, one per factor it acts on
    (Leibniz's rule term by term), each changed factor appended after the
    others, left for the validating constructor to merge and sort."""
    unit = {"x": (1, 0, 0), "y": (0, 1, 0), "t": (0, 0, 1)}[direction]
    pairs = []
    for (phi_power, jets, syms), coeff in _raw_pairs(p):
        if phi_power:
            pairs.append(((phi_power - 1, (*jets, unit), syms), coeff * phi_power))
        for n, jet in enumerate(jets):
            bumped = tuple(order + step for order, step in zip(jet, unit))
            pairs.append(((phi_power, (*jets[:n], *jets[n + 1 :], bumped), syms), coeff))
        for n, (family, order) in enumerate(syms):
            raised = (*syms[:n], *syms[n + 1 :], (family, order + 1))
            pairs.append(((phi_power, (*jets, unit), raised), coeff))
    return pairs


def _heat_pairs(p: JetPoly, branch: Branch) -> list:
    """Raw pairs of reduce_heat(p): every factor rewritten in place, so a
    rewritten factor may now sort before the ones it follows."""
    pairs = []
    for (phi_power, jets, syms), coeff in _raw_pairs(p):
        for _, _, k in jets:
            coeff *= (-branch.sign) ** k
        pairs.append(((phi_power, [(i + 2 * k, j, 0) for i, j, k in jets], syms), coeff))
    return pairs


@settings(max_examples=60)
@given(_polys, _polys, _coeffs, st.sampled_from(BRANCHES))
def test_canonical_operations_equal_the_validating_constructor(a, b, k, branch):
    # sums, scalar products, products, total derivatives, log
    # specialization and heat reduction skip key validation; each must still
    # give the polynomial, and the term order, of the full constructor
    special = specialize_log(a, branch)
    cases = [
        (a + b, _raw_pairs(a) + _raw_pairs(b)),
        (a - b, _raw_pairs(a) + _raw_pairs(b, -1)),
        (-1 * a, _raw_pairs(a, -1)),
        (k * a, _raw_pairs(a, k)),
        (a * k, _raw_pairs(a, k)),
        (0 * a, _raw_pairs(a, 0)),
        (a * Fraction(0), _raw_pairs(a, 0)),
        (a * b, _product_pairs(a, b)),
        (b * a, _product_pairs(b, a)),
        (b * b, _product_pairs(b, b)),
        (special, _raw_pairs(special)),
        (reduce_heat(special, branch), _heat_pairs(special, branch)),
        *((total_derivative(a, d), _derivative_pairs(a, d)) for d in "xyt"),
    ]
    for got, pairs in cases:
        expected = JetPoly(pairs)
        assert got == expected
        assert got.monomials() == expected.monomials()
        assert all(type(m.coeff) is Fraction for m in got.monomials())
    # the validating constructor is the one place the order cap is enforced
    for over_cap in ((0, ((9, 0, 0),), ()), (0, (), (("G", 9),))):
        with pytest.raises(OrderLimitError) as raised:
            JetPoly(_raw_pairs(a) + [(over_cap, k)])
        assert isinstance(raised.value, ValueError)


def _fraction_normalised(pairs):
    """Reference normaliser: every coefficient becomes a Fraction before it
    merges, so every result built under it holds Fractions only."""
    merged = {}
    for key, coeff in pairs:
        merged[key] = merged.get(key, Fraction(0)) + Fraction(coeff)
    kept = sorted((key for key, value in merged.items() if value), key=_term_order)
    return {key: merged[key] for key in kept}


def _operations(a: JetPoly, b: JetPoly, branch: Branch) -> list[JetPoly]:
    special = specialize_log(a * b, branch)
    return [
        a + b,
        a - b,
        -1 * a,
        3 * a,
        a * Fraction(3, 7),
        a * b,
        b * b,
        *(total_derivative(a * b, direction) for direction in ("x", "y", "t")),
        special,
        reduce_heat(special, branch),
    ]


_int_polys = st.dictionaries(_keys, st.integers(-5, 5).filter(bool), max_size=3).map(
    JetPoly
)


@settings(max_examples=60)
@given(_polys, _int_polys, st.sampled_from(BRANCHES))
def test_int_coefficients_match_a_fraction_only_reference(a, b, branch):
    got = _operations(a, b, branch) + _operations(b, a, branch)
    with mock.patch.object(jetcalc, "_normalised", _fraction_normalised):
        a_ref, b_ref = JetPoly(_raw_pairs(a)), JetPoly(_raw_pairs(b))
        expected = _operations(a_ref, b_ref, branch) + _operations(b_ref, a_ref, branch)
    assert all(type(c) is Fraction for p in expected for c in p._terms.values())
    assert len(got) == len(expected)
    for poly, ref in zip(got, expected):
        assert poly == ref
        assert poly.monomials() == ref.monomials()  # the same terms in the same order
        assert all(type(m.coeff) is Fraction for m in poly.monomials())
        assert poly.render() == ref.render()
        assert all(type(c) in (int, Fraction) for c in poly._terms.values())


@settings(max_examples=60)
@given(_polys, _polys, st.sampled_from(BRANCHES))
def test_term_order_is_imposed_where_it_is_read(a, b, branch):
    # the normaliser keeps terms in no particular order; monomials(), and
    # render() through it, must read them in _term_order all the same
    for p in _operations(a, b, branch):
        keys = [(m.phi_power, m.jets, m.syms) for m in p.monomials()]
        assert keys == sorted(keys, key=_term_order)
        pairs = _raw_pairs(p)
        assert JetPoly(pairs).render() == JetPoly(reversed(pairs)).render()


def _stored_types(p: JetPoly) -> set:
    return {type(c) for c in p._terms.values()}


def test_integral_coefficients_are_stored_as_ints():
    p = jet(1, 0, 0) * sym("F", 1) + 3 * jet(0, 1, 0)
    minus_one = JetPoly.constant(Fraction(-1))
    assert minus_one._terms == {(0, (), ()): -1}
    assert _stored_types(minus_one) == {int}
    assert _stored_types(JetPoly({(0, ((1, 0, 0),), ()): Fraction(4, 2)})) == {int}
    halved = Fraction(1, 2) * (2 * p)
    assert halved == p
    assert _stored_types(halved) == {int}
    assert _stored_types(p * Fraction(3, 1)) == {int}
    assert _stored_types(Fraction(7, 3) * (Fraction(3, 7) * p)) == {int}


def test_non_integral_coefficients_stay_fractions():
    p = jet(1, 0, 0) * sym("F", 1) + 3 * jet(0, 1, 0)
    scaled = Fraction(3, 7) * p
    assert _stored_types(scaled) == {Fraction}
    assert scaled.render() == "9/7*phi_y + 3/7*phi_x*f'"
    assert (Fraction(1, 2) * p).render() == "3/2*phi_y + 1/2*phi_x*f'"


@settings(max_examples=60)
@given(_polys, _polys, st.sampled_from(BRANCHES))
def test_no_normalised_result_holds_an_integral_fraction(a, b, branch):
    # every operation but a + b and a - b (the first two, which merge into a
    # copy of a's terms) goes through the normaliser, which stores an
    # integral coefficient as an int
    for p in _operations(a, b, branch)[2:] + _operations(b, a, branch)[2:]:
        assert not [
            c for c in p._terms.values() if type(c) is Fraction and c.denominator == 1
        ]


def test_no_float_coefficient_is_ever_stored():
    half = JetPoly.constant(0.5)
    assert [type(c) for c in half._terms.values()] == [Fraction]
    assert half._terms == {(0, (), ()): Fraction(1, 2)}
    built = JetPoly({(1, (), ()): 0.25, (2, (), ()): 3.0, (0, (), ()): True})
    assert all(type(c) is not float for c in built._terms.values())
    assert built.monomials() == JetPoly(
        {(1, (), ()): Fraction(1, 4), (2, (), ()): 3, (0, (), ()): 1}
    ).monomials()
    assert [type(c) for c in jet(1, 0, 0)._terms.values()] == [int]
    with pytest.raises(TypeError):
        jet(1, 0, 0) * 0.5


@settings(max_examples=60)
@given(_polys, _polys, _polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60)
@given(_polys)
def test_mixed_derivatives_commute(p):
    assert total_derivative(total_derivative(p, "x"), "y") == total_derivative(
        total_derivative(p, "y"), "x"
    )


@settings(max_examples=60)
@given(_polys, st.sampled_from(BRANCHES))
def test_specialize_log_commutes_with_total_derivative(p, branch):
    # the chain rule: differentiating f^(n) then resolving it equals
    # differentiating its resolved phi power, so an identity may be written
    # with f' before specialisation or with +/-2/phi after it
    for direction in ("x", "y", "t"):
        assert specialize_log(total_derivative(p, direction), branch) == (
            total_derivative(specialize_log(p, branch), direction)
        )


@settings(max_examples=60)
@given(_polys, _polys, st.sampled_from(["x", "y", "t"]))
def test_leibniz_rule(p, q, direction):
    lhs = total_derivative(p * q, direction)
    rhs = total_derivative(p, direction) * q + p * total_derivative(q, direction)
    assert lhs == rhs


@settings(max_examples=60)
@given(_keys, _keys)
def test_degree_grading_is_multiplicative(k1, k2):
    m1 = JetPoly({k1: Fraction(1)})
    m2 = JetPoly({k2: Fraction(1)})
    product = m1 * m2
    assert [len(m.jets) for m in product.monomials()] == [len(k1[1]) + len(k2[1])]


@settings(max_examples=60)
@given(_symbol_free, st.sampled_from(BRANCHES))
def test_reduce_heat_idempotent_and_additive(p, branch):
    once = reduce_heat(p, branch)
    assert reduce_heat(once, branch) == once
    q = jet(1, 0, 1) + 2 * jet(0, 0, 1)
    assert reduce_heat(p + q, branch) == reduce_heat(p, branch) + reduce_heat(q, branch)


@settings(max_examples=40)
@given(_symbol_free, _symbol_free, st.sampled_from(BRANCHES))
def test_reduce_heat_respects_products(p, q, branch):
    lhs = reduce_heat(p * q, branch)
    rhs = reduce_heat(reduce_heat(p, branch) * reduce_heat(q, branch), branch)
    assert lhs == rhs


def _single_step_reduce(p: JetPoly, branch: Branch, rng: random.Random) -> JetPoly:
    """Confluence oracle: rewrite one t-bearing factor at a time, picking the
    monomial and factor at random, until no t-derivatives remain."""
    while True:
        candidates = [
            m for m in p.monomials() if any(k for _, _, k in m.jets)
        ]
        if not candidates:
            return p
        mono = rng.choice(candidates)
        target = rng.choice([idx for idx in mono.jets if idx[2]])
        i, j, k = target
        jets = list(mono.jets)
        jets.remove(target)
        jets.append((i + 2, j, k - 1))
        original = JetPoly({(mono.phi_power, mono.jets, mono.syms): mono.coeff})
        rewritten = JetPoly(
            {
                (mono.phi_power, tuple(sorted(jets)), mono.syms): mono.coeff
                * -branch.sign
            }
        )
        p = p - original + rewritten


def test_reduce_heat_confluent_under_random_rewrite_order():
    rng = random.Random(20260809)
    pool = [jet(0, 0, 1), jet(1, 0, 1), jet(0, 1, 1), jet(2, 0, 0), jet(1, 1, 0)]
    for trial in range(25):
        p = JetPoly()
        for _ in range(3):
            coeff = Fraction(rng.randint(-4, 4))
            if not coeff:
                continue
            term = coeff * JetPoly({(rng.randint(-1, 1), (), ()): 1})
            for _ in range(rng.randint(1, 2)):
                term = term * rng.choice(pool)
            p = p + term
        for branch in BRANCHES:
            assert _single_step_reduce(p, branch, rng) == reduce_heat(p, branch)


# -- construction validation ----------------------------------------------------


def test_invalid_jet_factor_rejected():
    with pytest.raises(ValueError, match=r"invalid jet factor \(0, 0, 0\)$"):
        JetPoly({(0, ((0, 0, 0),), ()): Fraction(1)})
    with pytest.raises(ValueError, match=r"invalid jet factor \(0, 0, 0\)$"):
        JetPoly.jet(0, 0, 0)  # phi itself is a phi power, not a jet factor
    with pytest.raises(ValueError):
        JetPoly({(0, ((-1, 0, 0),), ()): Fraction(1)})
    with pytest.raises(ValueError):
        JetPoly({(0, ((9, 0, 0),), ()): Fraction(1)})
    # each part of a raw key is checked, not coerced: a phi power or jet
    # order that is not an int, or a factor of the wrong length, is refused
    # by name rather than rendered as some other term or failing later
    for key, part in (
        ((1.5, (), ()), "phi power 1.5"),
        (("3", (), ()), "phi power '3'"),
        ((True, (), ()), "phi power True"),
        ((0, ((1.5, 0, 0),), ()), "jet factor (1.5, 0, 0)"),
        ((0, ((1, 0),), ()), "jet factor (1, 0)"),
        ((0, ((1, 0, 0, 0),), ()), "jet factor (1, 0, 0, 0)"),
        ((0, ((0, 1, 0), (1,)), ()), "jet factor (1,)"),
    ):
        with pytest.raises(ValueError, match=f"^invalid {re.escape(part)}$"):
            JetPoly({key: 1})


def test_invalid_symbol_rejected():
    with pytest.raises(ValueError, match=r"invalid symbol \('H', 1\)$"):
        JetPoly({(0, (), (("H", 1),)): Fraction(1)})
    with pytest.raises(ValueError):
        JetPoly({(0, (), (("F", 9),)): Fraction(1)})
    for syms, part in (
        ((("F", 1.5),), "('F', 1.5)"),
        ((("G", "2"),), "('G', '2')"),
        ((("F",),), "('F',)"),
        ((("F", 1, 0),), "('F', 1, 0)"),
        ((("FG", 1),), "('FG', 1)"),
    ):
        with pytest.raises(ValueError, match=f"^invalid symbol {re.escape(part)}$"):
            JetPoly({(0, (), syms): 1})


def test_canonical_form_merges_terms():
    p = JetPoly(
        {
            (0, ((1, 0, 0), (0, 1, 0)), ()): Fraction(1),
        }
    )
    q = jet(0, 1, 0) * jet(1, 0, 0)
    assert p == q
    assert (p - q).is_zero
    # factors given as lists build the polynomial their tuples build
    from_lists = JetPoly([((-1, [[0, 1, 0], [1, 0, 0]], [["G", 2]]), 3)])
    from_tuples = JetPoly({(-1, ((1, 0, 0), (0, 1, 0)), (("G", 2),)): 3})
    assert from_lists.monomials() == from_tuples.monomials()
    assert from_lists.render() == "3*phi^-1*phi_x*phi_y*g''"
