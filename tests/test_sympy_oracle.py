"""An independent oracle for the symbolic path: sympy, not jetcalc.

The transformation is rebuilt from phi(x, y, t) as an undefined sympy
function, differentiated by sympy, and checked against the dispersive long
wave system under the seed constraint.  The residuals jetcalc expands from
the ansatz are converted to sympy and compared with sympy's own expansion
term by term, so total_derivative, the key canonicaliser and specialize_log
are checked by a second CAS, not only through the final zero.  So is the
identity derive checks: each residual is one mixed derivative of the seed
constraint over phi.  The float closed forms of `dlw.transform` are run on
sympy expressions and proved equal to the transformation of their seed.
"""

from types import SimpleNamespace

import pytest
import sympy as sp

from dlw import transform
from dlw.balance import build_residuals
from dlw.branch import Branch
from dlw.jetcalc import JetPoly, specialize_log, total_derivative
from test_transform import pairs_field

X, Y, T = sp.symbols("x y t")
PHI = sp.Function("phi")(X, Y, T)
BRANCHES = (Branch.PLUS, Branch.MINUS)


def _jet(i: int, j: int, k: int):
    return sp.Derivative(PHI, *[(var, n) for var, n in zip((X, Y, T), (i, j, k)) if n])


def transformation(branch: Branch, a_const: int):
    """(u, h) = (sign*2*phi_x/phi, -2*phi_x*phi_y/phi^2 + 2*phi_xy/phi + A)."""
    u = branch.sign * 2 * PHI.diff(X) / PHI
    h = -2 * PHI.diff(X) * PHI.diff(Y) / PHI**2 + 2 * PHI.diff(X, Y) / PHI + a_const
    return u, h


def system_residuals(branch: Branch, a_const: int):
    """(e1, e2) of the transformation, by sympy alone."""
    u, h = transformation(branch, a_const)
    e1 = u.diff(Y, T) + h.diff(X, 2) + sp.Rational(1, 2) * (u**2).diff(X, Y)
    e2 = h.diff(T) + (u * h + u + u.diff(X, Y)).diff(X)
    return e1, e2


def mixed_constraint(branch: Branch):
    """D_x D_y(w/phi) for the seed constraint w = phi_t + sign*phi_xx."""
    w = PHI.diff(T) + branch.sign * PHI.diff(X, 2)
    return (w / PHI).diff(X, Y)


def _counts(derivative) -> tuple[int, int, int]:
    counts = {X: 0, Y: 0, T: 0}
    for var, n in derivative.variable_count:
        counts[var] += n
    return counts[X], counts[Y], counts[T]


def _rewrite_jets(expr, rule):
    """Replace every derivative of phi by rule(i, j, k) of its orders."""
    return expr.replace(
        lambda e: isinstance(e, sp.Derivative) and e.expr == PHI,
        lambda e: rule(*_counts(e)),
    )


def heat_reduced(expr, branch: Branch):
    """Rewrite every t-derivative through phi_t = -sign*phi_xx."""
    return _rewrite_jets(
        expr, lambda i, j, k: (-branch.sign) ** k * _jet(i + 2 * k, j, 0)
    )


def to_sympy(p: JetPoly):
    terms = []
    for mono in p.monomials():
        assert not mono.syms, "only specialised polynomials convert"
        coeff = sp.Rational(mono.coeff.numerator, mono.coeff.denominator)
        factors = [_jet(*idx) for idx in mono.jets]
        terms.append(coeff * PHI**mono.phi_power * sp.Mul(*factors))
    return sp.Add(*terms)


def expanded_terms(expr) -> dict:
    # sympy keeps mixed derivatives in the order they were taken, so each is
    # rebuilt in x, y, t order before terms are compared
    return dict(sp.expand(_rewrite_jets(expr, _jet)).as_coefficients_dict())


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_transformation_solves_the_system_under_the_seed_constraint(branch):
    for residual in system_residuals(branch, -1):
        assert sp.cancel(heat_reduced(residual, branch)) == 0


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_constant_zero_leaves_a_nonzero_residual(branch):
    # the control: with A = 0 the second equation keeps
    # sign*2*(phi*phi_xx - phi_x^2)/phi^2
    e1, e2 = (
        sp.cancel(heat_reduced(residual, branch))
        for residual in system_residuals(branch, 0)
    )
    assert e1 == 0
    assert e2 != 0
    expected = branch.sign * 2 * (PHI * PHI.diff(X, 2) - PHI.diff(X) ** 2) / PHI**2
    assert sp.cancel(e2 - expected) == 0


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_jetcalc_residuals_equal_sympy_term_by_term(branch):
    ours = [specialize_log(e, branch) for e in build_residuals()]
    theirs = system_residuals(branch, -1)
    for jet_poly, expr in zip(ours, theirs):
        got = expanded_terms(to_sympy(jet_poly))
        assert got == expanded_terms(expr)
        assert len(got) == len(jet_poly.monomials())



@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_each_residual_is_one_mixed_derivative_of_the_constraint(branch):
    # e1 = sign*2*D_x D_y(w/phi) and e2 = 2*D_x D_y(w/phi) identically,
    # with no heat reduction
    e1, e2 = system_residuals(branch, -1)
    mixed = mixed_constraint(branch)
    assert sp.cancel(e1 - branch.sign * 2 * mixed) == 0
    assert sp.cancel(e2 - 2 * mixed) == 0


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_the_transformation_is_cole_hopf_and_the_system_is_burgers(branch):
    """u = s*2*phi_x/phi, s the branch sign, is the Cole-Hopf map (Hopf,
    Comm. Pure Appl. Math. 3 (1950) 201; Cole, Quart. Appl. Math. 9 (1951)
    225). With Burgers' equation B(u) = u_t + u*u_x + s*u_xx, four
    identities hold for every phi, with no heat reduction: h + 1 = s*u_y,
    e1 = D_y B(u), e2 = s*e1, and B(u) = s*2*D_x(w/phi) for the seed
    constraint w = phi_t + s*phi_xx."""
    s = branch.sign
    u, h = transformation(branch, -1)
    e1, e2 = system_residuals(branch, -1)
    burgers = u.diff(T) + u * u.diff(X) + s * u.diff(X, 2)
    w = PHI.diff(T) + s * PHI.diff(X, 2)
    assert sp.cancel(h + 1 - s * u.diff(Y)) == 0
    assert sp.cancel(e1 - burgers.diff(Y)) == 0
    assert sp.cancel(e2 - s * e1) == 0
    assert sp.cancel(burgers - s * 2 * (w / PHI).diff(X)) == 0


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_jetcalc_identity_equals_sympy_term_by_term(branch):
    # jetcalc's D_x D_y(c*w), c the specialised f' or g', against sympy's
    # expansion of the same mixed derivative
    w = JetPoly.jet(0, 0, 1) + branch.sign * JetPoly.jet(2, 0, 0)
    mixed = mixed_constraint(branch)
    for family, scale in (("F", branch.sign), ("G", 1)):
        c = specialize_log(JetPoly.symbol(family, 1), branch)
        ours = total_derivative(total_derivative(c * w, "x"), "y")
        got = expanded_terms(to_sympy(ours))
        assert got == expanded_terms(scale * 2 * mixed)
        assert len(got) == len(ours.monomials())


# -- the closed forms, run on sympy expressions -------------------------------------

A_OF_Y = sp.Function("a")(Y)
B_OF_Y = sp.Function("b")(Y)


@pytest.fixture
def symbolic_transform(monkeypatch):
    """dlw.transform with `math` swapped for sympy's exp and tanh and `abs`
    shadowed by the identity, which test_overflow_guard_is_exact shows is
    exact: each closed form then returns its own formula as an expression."""
    monkeypatch.setattr(transform, "math", SimpleNamespace(exp=sp.exp, tanh=sp.tanh))
    monkeypatch.setattr(transform, "abs", lambda z: z, raising=False)
    return transform


def _vanishes(expr) -> bool:
    # the closed forms' float constants (0.5, 1.0, 2.0) are binary fractions,
    # so each is its Rational exactly
    exact = expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})
    return sp.simplify(exact.rewrite(sp.exp)) == 0


def test_overflow_guard_is_exact():
    # 2e^{-|z|}/(1 + e^{-2|z|}) = sech|z| = sech z: the identity holds for
    # every z, and sech is even, so reading |z| as z changes nothing
    z = sp.Symbol("z", real=True)
    assert sp.simplify(2 * sp.exp(-z) / (1 + sp.exp(-2 * z)) - sp.sech(z).rewrite(sp.exp)) == 0
    assert sp.sech(-z) == sp.sech(z)


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_exact_uh_is_the_transformation_of_one_plus_exp(symbolic_transform, branch):
    # kills the exact_uh mutants that drop a'*tanh(theta/2) from h, drop h's
    # constant + a', or drop theta_y's t term
    theta = A_OF_Y * X - branch.sign * A_OF_Y**2 * T + B_OF_Y
    phi = 1 + sp.exp(theta)
    u = branch.sign * 2 * phi.diff(X) / phi
    h = -2 * phi.diff(X) * phi.diff(Y) / phi**2 + 2 * phi.diff(X, Y) / phi - 1
    field = pairs_field((A_OF_Y, A_OF_Y.diff(Y)), (B_OF_Y, B_OF_Y.diff(Y)), branch)
    got_u, got_h = symbolic_transform.exact_uh(field, X, Y, T)
    assert _vanishes(got_u - u)
    assert _vanishes(got_h - h)


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_exact_uh_const_is_exact_uh_with_linear_b(symbolic_transform, branch):
    a, c, d = sp.symbols("a c d")
    field = pairs_field((a, 0), (c * Y + d, c), branch)
    const = symbolic_transform.exact_uh_const(a, c, d, branch, X, Y, T)
    general = symbolic_transform.exact_uh(field, X, Y, T)
    for got, expected in zip(const, general):
        assert _vanishes(got - expected)
    # and so are their phi columns
    const_phi = symbolic_transform.exact_phi_const(a, c, d, branch, X, Y, T)
    assert _vanishes(const_phi - symbolic_transform.exact_phi(field, X, Y, T))


@pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: b.name)
def test_one_plus_exp_solves_the_seed_constraint(symbolic_transform, branch):
    # with derive's theorem, this closes the chain from the closed forms to
    # the system: their seed, the exact path's phi column, is 1 + e^theta,
    # which solves phi_t + sign*phi_xx = 0
    theta = A_OF_Y * X - branch.sign * A_OF_Y**2 * T + B_OF_Y
    field = pairs_field((A_OF_Y, A_OF_Y.diff(Y)), (B_OF_Y, B_OF_Y.diff(Y)), branch)
    phi = symbolic_transform.exact_phi(field, X, Y, T)
    assert _vanishes(phi - (1 + sp.exp(theta)))
    assert _vanishes(phi.diff(T) + branch.sign * phi.diff(X, 2))
