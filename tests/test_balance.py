"""Exactness tests for the homogeneous-balance derivation."""

import functools
import itertools
import json
from fractions import Fraction

import pytest

from dlw import balance
from dlw.balance import (
    BalanceExponents,
    DerivationError,
    build_ansatz,
    build_residuals,
    check_ode_system,
    derive,
    render_report,
    report_to_dict,
    solve_balance_exponents,
    system_residuals,
    verify_factorization,
    _leading_coefficient,
)
from dlw.branch import Branch
from dlw.cli import main
from dlw.jetcalc import (
    JetPoly,
    reduce_heat,
    specialize_log,
    total_derivative,
)

jet = JetPoly.jet
sym = JetPoly.symbol
BRANCHES = (Branch.PLUS, Branch.MINUS)
# verify_factorization at the constant A = 0: patched in, it makes derive FAIL
with_a_zero = functools.partial(verify_factorization, a_const=Fraction(0))


# -- balance exponents ---------------------------------------------------------


def test_balance_exponents_value():
    assert tuple(solve_balance_exponents()) == (1, 0, 0, 1, 1, 0)


def test_balance_exponents_back_substitution():
    l, m, n, p, q, r = solve_balance_exponents()
    assert 2 * l + 1 == p + 2
    assert 2 * m + 1 == q
    assert 2 * n == r
    assert l + p + 1 == l + 2
    assert m + q == m + 1
    assert n + r == n


def test_balance_exponents_unique_by_independent_enumeration():
    hits = []
    for combo in itertools.product(range(5), repeat=6):
        l, m, n, p, q, r = combo
        if (
            2 * l + 1 == p + 2
            and 2 * m + 1 == q
            and 2 * n == r
            and p == 1
            and q == 1
            and r == 0
        ):
            hits.append(combo)
    assert hits == [(1, 0, 0, 1, 1, 0)]


def test_balance_search_without_a_solution_fails(monkeypatch):
    monkeypatch.setattr(balance, "_satisfies_balance", lambda *exponents: False)
    with pytest.raises(DerivationError, match="no solution in the search box"):
        solve_balance_exponents()


def test_balance_search_with_two_solutions_fails(monkeypatch):
    # the second tuple meets the first three equations, so the scan visits it
    accepted = {(1, 0, 0, 1, 1, 0), (2, 0, 0, 3, 1, 0)}
    monkeypatch.setattr(
        balance, "_satisfies_balance", lambda *exponents: exponents in accepted
    )
    with pytest.raises(DerivationError, match="not unique") as raised:
        solve_balance_exponents()
    for exponents in accepted:
        assert repr(BalanceExponents(*exponents)) in str(raised.value)


def test_balance_search_visits_every_tuple_the_first_equations_allow(monkeypatch):
    visited = []
    monkeypatch.setattr(
        balance, "_satisfies_balance", lambda *exponents: visited.append(exponents)
    )
    with pytest.raises(DerivationError, match="no solution"):
        solve_balance_exponents()
    allowed = {
        (l, m, n, p, q, r)
        for l, m, n, p, q, r in itertools.product(range(5), repeat=6)
        if 2 * l + 1 == p + 2 and 2 * m + 1 == q and 2 * n == r
    }
    assert len(visited) == len(set(visited))
    assert set(visited) == allowed


# -- ansatz ---------------------------------------------------------------------


def test_ansatz_shapes():
    u, h = build_ansatz(solve_balance_exponents())
    assert len(u.monomials()) == 1
    assert {len(m.jets) for m in u.monomials()} == {1}
    assert {len(m.jets) for m in h.monomials()} == {0, 1, 2}


def test_ansatz_x_derivative_structure():
    u, _ = build_ansatz(solve_balance_exponents())
    expected = sym("F", 2) * jet(1, 0, 0) * jet(1, 0, 0) + sym("F", 1) * jet(2, 0, 0)
    assert total_derivative(u, "x") == expected


def test_ansatz_rejects_other_exponents():
    with pytest.raises(ValueError):
        build_ansatz(BalanceExponents(2, 0, 0, 1, 1, 0))


# -- residual construction -------------------------------------------------------


def test_vacuum_annihilates_residuals():
    e1, e2 = system_residuals(JetPoly(), JetPoly.constant(-1))
    assert e1.is_zero and e2.is_zero


def test_leading_coefficients_match_ode_system():
    e1, e2 = build_residuals()
    assert _leading_coefficient(e1, "e1") == (
        sym("G", 4) + sym("F", 2) * sym("F", 2) + sym("F", 1) * sym("F", 3)
    )
    assert _leading_coefficient(e2, "e2") == (
        sym("F", 4) + sym("F", 2) * sym("G", 2) + sym("F", 1) * sym("G", 3)
    )


def test_leading_coefficient_names_the_first_unexpected_top_degree_term():
    x, y = jet(1, 0, 0), jet(0, 1, 0)
    e = (
        sym("F", 1) * x * x * x * y
        + 3 * sym("G", 2) * jet(2, 0, 0) * x * x * y
        + sym("G", 1) * jet(1, 1, 0) * x * x * x
        - 2 * x * x * jet(2, 0, 0) * jet(1, 1, 0)
        + jet(2, 0, 0)
    )
    with pytest.raises(DerivationError) as raised:
        _leading_coefficient(e, "e1")
    assert str(raised.value) == (
        "unexpected top-degree jet structure in phi_x*phi_x*phi_x*phi_xy*g'"
    )
    leading = 3 * sym("F", 1) * x * x * x * y + jet(2, 0, 0)
    assert _leading_coefficient(leading, "e1") == 3 * sym("F", 1)


def test_residual_degrees():
    e1, e2 = build_residuals()
    assert {len(m.jets) for m in e1.monomials()} == {1, 2, 3, 4}
    # e2 keeps its constant-coefficient tail at degrees 1 and 2 until A is fixed
    assert {len(m.jets) for m in e2.monomials()} == {1, 2, 3, 4}


def test_every_coefficient_on_the_passing_path_is_an_int():
    # A = -1 and the 1/2 of e1 enter as Fractions, but every coefficient
    # they leave on the path to PASS is integral, so each is stored as an int
    e1, e2 = build_residuals()
    leading = [_leading_coefficient(e1, "e1"), _leading_coefficient(e2, "e2")]
    polys = [e1, e2, *leading]
    for branch in BRANCHES:
        polys += [specialize_log(p, branch) for p in (e1, e2, *leading)]
    for check in derive().checks:
        polys += check.residuals.values()
    coefficients = [c for p in polys for c in p._terms.values()]
    assert coefficients
    assert [c for c in coefficients if type(c) is not int] == []


# -- ODE system and identities -----------------------------------------------------


@pytest.mark.parametrize("branch", BRANCHES)
def test_ode_system_reduces_to_zero(branch):
    check = check_ode_system(branch)
    assert list(check.residuals) == ["ode[0]", "ode[1]", "identity[0]", "identity[1]"]
    assert check.verdict == "PASS"
    assert all(check.residuals[f"ode[{i}]"].is_zero for i in range(2))
    assert all(check.residuals[f"identity[{i}]"].is_zero for i in range(2))


def test_log_identities_by_direct_construction():
    # g'g'' + g''' and g'^2 + 2g'' both vanish under the log resolution
    for branch in BRANCHES:
        first = specialize_log(sym("G", 1) * sym("G", 2) + sym("G", 3), branch)
        second = specialize_log(sym("G", 1) * sym("G", 1) + 2 * sym("G", 2), branch)
        assert first.is_zero and second.is_zero


# -- factorization -------------------------------------------------------------------


@pytest.mark.parametrize("branch", BRANCHES)
def test_factorization_reduces_to_zero(branch):
    check = verify_factorization(branch)
    assert list(check.residuals) == ["e1", "e2", "delta1", "delta2"]
    assert check.residuals["e1"].is_zero
    assert check.residuals["e2"].is_zero
    delta1, delta2 = check.residuals["delta1"], check.residuals["delta2"]
    assert delta1.is_zero and delta2.is_zero
    assert check.verdict == "PASS"


@pytest.mark.parametrize("branch", BRANCHES)
def test_wrong_constant_leaves_forced_remainder(branch):
    check = verify_factorization(branch, Fraction(0))
    assert check.residuals["e1"].is_zero  # the first equation never sees A
    # remainder is (A+1)*(f''*phi_x^2 + f'*phi_xx), specialized, with A = 0
    expected = reduce_heat(
        specialize_log(
            sym("F", 2) * jet(1, 0, 0) * jet(1, 0, 0)
            + sym("F", 1) * jet(2, 0, 0),
            branch,
        ),
        branch,
    )
    assert not expected.is_zero
    assert check.residuals["e2"] == expected
    assert check.verdict == "FAIL"


# Term order decides rendered output, and JetPoly equality ignores it.
_A_ZERO_FAILURES = {
    Branch.PLUS: [
        "e2: -2*phi^-2*phi_x*phi_x + 2*phi^-1*phi_xx",
        "delta2: -2*phi^-2*phi_x*phi_x + 2*phi^-1*phi_xx",
    ],
    Branch.MINUS: [
        "e2: 2*phi^-2*phi_x*phi_x - 2*phi^-1*phi_xx",
        "delta2: 2*phi^-2*phi_x*phi_x - 2*phi^-1*phi_xx",
    ],
}


@pytest.mark.parametrize("branch", BRANCHES)
def test_wrong_constant_failures_render_in_canonical_order(branch):
    failures = verify_factorization(branch, Fraction(0)).failures()
    assert failures == _A_ZERO_FAILURES[branch]


# The same remainder at other constants, scaled by A + 1: how a FAIL report
# renders an int and a Fraction coefficient.
_OTHER_CONSTANT_FAILURES = {
    (Fraction(1), Branch.PLUS): [
        "e2: -4*phi^-2*phi_x*phi_x + 4*phi^-1*phi_xx",
        "delta2: -4*phi^-2*phi_x*phi_x + 4*phi^-1*phi_xx",
    ],
    (Fraction(1), Branch.MINUS): [
        "e2: 4*phi^-2*phi_x*phi_x - 4*phi^-1*phi_xx",
        "delta2: 4*phi^-2*phi_x*phi_x - 4*phi^-1*phi_xx",
    ],
    (Fraction(3, 7), Branch.PLUS): [
        "e2: -20/7*phi^-2*phi_x*phi_x + 20/7*phi^-1*phi_xx",
        "delta2: -20/7*phi^-2*phi_x*phi_x + 20/7*phi^-1*phi_xx",
    ],
    (Fraction(3, 7), Branch.MINUS): [
        "e2: 20/7*phi^-2*phi_x*phi_x - 20/7*phi^-1*phi_xx",
        "delta2: 20/7*phi^-2*phi_x*phi_x - 20/7*phi^-1*phi_xx",
    ],
    (Fraction(-2), Branch.PLUS): [
        "e2: 2*phi^-2*phi_x*phi_x - 2*phi^-1*phi_xx",
        "delta2: 2*phi^-2*phi_x*phi_x - 2*phi^-1*phi_xx",
    ],
    (Fraction(-2), Branch.MINUS): [
        "e2: -2*phi^-2*phi_x*phi_x + 2*phi^-1*phi_xx",
        "delta2: -2*phi^-2*phi_x*phi_x + 2*phi^-1*phi_xx",
    ],
}


@pytest.mark.parametrize("a_const, branch", list(_OTHER_CONSTANT_FAILURES))
def test_other_constant_failures_render_in_canonical_order(a_const, branch):
    check = verify_factorization(branch, a_const)
    assert check.failures() == _OTHER_CONSTANT_FAILURES[a_const, branch]
    # an integral remainder is stored as ints, a fractional one as Fractions
    expected = int if a_const.denominator == 1 else Fraction
    remainders = (check.residuals["e2"], check.residuals["delta2"])
    assert {type(c) for p in remainders for c in p._terms.values()} == {expected}


def test_derive_with_a_wrong_constant_reports_fail_and_still_writes_output(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(balance, "verify_factorization", with_a_zero)
    assert derive().verdict == "FAIL"
    target = tmp_path / "derivation.json"
    assert main(["derive", "--output", str(target)]) == 1
    lines = capsys.readouterr().out.splitlines()
    payload = json.loads(target.read_text())
    expected = []
    for branch in BRANCHES:
        name = branch.name.lower()
        expected.append(
            f"branch {name}: ode system, log identities, "
            "residual reduction, factorization -> FAIL"
        )
        expected += [f"  {line}" for line in _A_ZERO_FAILURES[branch]]
        assert payload["branches"][name] == {
            "passed": False,
            "failures": _A_ZERO_FAILURES[branch],
        }
    assert lines[6:] == expected


def test_derive_fails_an_ansatz_without_the_g_prime_term(capsys, monkeypatch):
    # dropping g'*phi_xy from h leaves the top degree, and so the ODE system,
    # as it was: only the residual reduction and the identity catch it
    intact = build_ansatz

    def defective(exponents, a_const):
        u, h = intact(exponents, a_const)
        return u, h - sym("G", 1) * jet(1, 1, 0)

    monkeypatch.setattr(balance, "build_ansatz", defective)
    report = derive()
    assert report.verdict == "FAIL"
    for check in report.checks:
        failed = [label for label, poly in check.residuals.items() if not poly.is_zero]
        assert failed == ["e1", "e2", "delta1", "delta2"]
    assert main(["derive"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line for line in lines if line.startswith("branch ")] == [
        f"branch {branch.name.lower()}: ode system, log identities, "
        "residual reduction, factorization -> FAIL"
        for branch in BRANCHES
    ]
    # the ansatz line is a fixed string, so it still prints the intact
    # ansatz (ROADMAP item 5: derive should render what it checked)
    assert lines[1] == "ansatz: u = f'*phi_x, h = g''*phi_x*phi_y + g'*phi_xy + A"


@pytest.mark.parametrize("a_const", [Fraction(1), Fraction(3, 7), Fraction(-2)])
def test_any_constant_other_than_minus_one_fails(a_const):
    base = specialize_log(
        sym("F", 2) * jet(1, 0, 0) * jet(1, 0, 0)
        + sym("F", 1) * jet(2, 0, 0),
        Branch.PLUS,
    )
    check = verify_factorization(Branch.PLUS, a_const)
    assert check.residuals["e2"] == (a_const + 1) * base
    assert not check.residuals["e2"].is_zero


# -- full derivation -----------------------------------------------------------------


def test_derive_report_contents():
    report = derive()
    assert tuple(report.exponents) == (1, 0, 0, 1, 1, 0)
    assert balance.A_CONSTANT == Fraction(-1)
    assert len(report.checks) == 2
    assert [check.verdict for check in report.checks] == ["PASS", "PASS"]


def test_derive_is_deterministic():
    first = render_report(derive())
    second = render_report(derive())
    assert first == second
    assert "(l,m,n,p,q,r) = (1,0,0,1,1,0)" in first
    assert "A = -1" in first
    assert "u = +/-2*phi_x/phi" in first


_JET_LEAVES = {
    "_PHI_X": (1, 0, 0),
    "_PHI_Y": (0, 1, 0),
    "_PHI_XY": (1, 1, 0),
    "_PHI_XX": (2, 0, 0),
    "_PHI_T": (0, 0, 1),
}


def _assert_leaves_unchanged():
    for name, orders in _JET_LEAVES.items():
        assert getattr(balance, name) == jet(*orders), name
    assert sorted(balance._SYMBOLS) == [("F", 1), ("G", 1), ("G", 2), ("G", 3)]
    for (family, order), leaf in balance._SYMBOLS.items():
        assert leaf == sym(family, order)


def test_derive_leaves_the_shared_leaves_unchanged():
    # every derive() builds from the same module-level leaves, so an
    # operation that wrote into an operand's terms would show here; each
    # branch is checked alone too, as the minus branch's constraint would
    # cancel the term that such a write by the plus branch adds to phi_t
    for branch in BRANCHES:
        check_ode_system(branch)
        verify_factorization(branch)
        _assert_leaves_unchanged()
    first, second = derive(), derive()
    assert first.verdict == "PASS"
    assert render_report(first) == render_report(second)
    assert report_to_dict(first) == report_to_dict(second)
    _assert_leaves_unchanged()


def test_report_dict_roundtrips_key_facts():
    payload = report_to_dict(derive())
    assert payload["exponents"] == {"l": 1, "m": 0, "n": 0, "p": 1, "q": 1, "r": 0}
    assert payload["A"] == "-1"
    assert payload["branches"]["plus"]["passed"]
    assert payload["branches"]["minus"]["passed"]
    assert payload["branches"]["plus"]["failures"] == []
