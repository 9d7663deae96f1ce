"""Homogeneous balance derivation of the seed-to-solution transformation.

Re-derives, in exact rational arithmetic, the three steps that turn the
dispersive long wave system into a linear heat-type constraint: balance the
leading derivative degrees, resolve the ansatz functions to logarithms, and
factor the system residuals through the constraint w = phi_t + sign*phi_xx:
each residual is the one identity e_i = D_x D_y(c_i*w), with c_i the
specialized first coefficient of its family.  Every check lands on the zero
polynomial, or the report names the nonzero residuals and reads FAIL.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .branch import Branch
from .jetcalc import (
    JetPoly,
    reduce_heat,
    specialize_log,
    total_derivative,
)

__all__ = [
    "A_CONSTANT",
    "BalanceExponents",
    "BalanceReport",
    "DerivationCheck",
    "DerivationError",
    "solve_balance_exponents",
    "build_ansatz",
    "system_residuals",
    "build_residuals",
    "check_ode_system",
    "verify_factorization",
    "derive",
    "render_report",
    "report_to_dict",
]

_SEARCH_BOX = 4  # exponents are searched over [0, 4]^6
# phi_x^3 * phi_y with its factors in JetPoly's canonical order
_TOP_JETS = ((1, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0))

# The leaves every polynomial below is built from, made once at import:
# JetPoly is immutable, so each is a literal, not a cache.
_PHI_X = JetPoly.jet(1, 0, 0)
_PHI_Y = JetPoly.jet(0, 1, 0)
_PHI_XY = JetPoly.jet(1, 1, 0)
_PHI_XX = JetPoly.jet(2, 0, 0)
_PHI_T = JetPoly.jet(0, 0, 1)
_SYMBOLS = {
    key: JetPoly.symbol(*key) for key in (("F", 1), ("G", 1), ("G", 2), ("G", 3))
}

# The additive constant of h that the factorization pins, and the resolved
# ansatz functions; every derivation reports these.
A_CONSTANT = Fraction(-1)
F_RESOLVED = "f = +2*ln(phi) (plus branch) or -2*ln(phi) (minus branch)"
G_RESOLVED = "g = 2*ln(phi)"


class DerivationError(Exception):
    """The derivation cannot be set up: the balance system has no unique
    solution, or a residual has no terms or a top-degree part with an
    unexpected jet."""


class BalanceExponents(NamedTuple):
    l: int
    m: int
    n: int
    p: int
    q: int
    r: int


def _satisfies_balance(l: int, m: int, n: int, p: int, q: int, r: int) -> bool:
    # Highest-degree matching between the paired flux/dispersion terms of the
    # two equations, in both degree and derivative count.
    return (
        2 * l + 1 == p + 2
        and 2 * m + 1 == q
        and 2 * n == r
        and l + p + 1 == l + 2
        and m + q == m + 1
        and n + r == n
    )


def solve_balance_exponents() -> BalanceExponents:
    """Solve the six balance equations by a scan of 12 candidates.

    The first three equations fix (p, q, r) = (2l - 1, 2m + 1, 2n), so the
    scan draws l, m and n from the ranges that keep p, q and r in [0, 4]:
    l in [1, 2], m in [0, 1] and n in [0, 2].  Those candidates are exactly
    the tuples of the box [0, 4]^6 that can pass, and each must satisfy all
    six equations, so the uniqueness assertion still covers the whole box.
    """
    solutions = []
    for l, m, n in itertools.product(
        range(1, (_SEARCH_BOX + 1) // 2 + 1),  # 0 <= 2l - 1 <= _SEARCH_BOX
        range((_SEARCH_BOX - 1) // 2 + 1),  # 2m + 1 <= _SEARCH_BOX
        range(_SEARCH_BOX // 2 + 1),  # 2n <= _SEARCH_BOX
    ):
        p, q, r = 2 * l - 1, 2 * m + 1, 2 * n
        if _satisfies_balance(l, m, n, p, q, r):
            solutions.append(BalanceExponents(l, m, n, p, q, r))
    if not solutions:
        raise DerivationError("balance system has no solution in the search box")
    if len(solutions) > 1:
        raise DerivationError(f"balance system is not unique: {solutions}")
    return solutions[0]


def build_ansatz(
    exponents: BalanceExponents, a_const: Fraction | int = A_CONSTANT
) -> tuple[JetPoly, JetPoly]:
    """Quasisolution ansatz for the solved exponents.

    u = f'*phi_x and h = g''*phi_x*phi_y + g'*phi_xy + A, with the additive
    constant A carried as an exact rational whose value is pinned by the
    factorization step.
    """
    if tuple(exponents) != (1, 0, 0, 1, 1, 0):
        raise ValueError(f"unsupported exponent tuple {tuple(exponents)}")
    u = _SYMBOLS["F", 1] * _PHI_X
    h = (
        _SYMBOLS["G", 2] * _PHI_X * _PHI_Y
        + _SYMBOLS["G", 1] * _PHI_XY
        + JetPoly.constant(a_const)
    )
    return u, h


def system_residuals(u: JetPoly, h: JetPoly) -> tuple[JetPoly, JetPoly]:
    """Left-hand sides of the dispersive long wave system for formal u, h.

    e1 = u_yt + h_xx + (1/2)(u^2)_xy
    e2 = h_t + (u*h + u + u_xy)_x
    """
    d = total_derivative
    e1 = (
        d(d(u, "y"), "t")
        + d(d(h, "x"), "x")
        + Fraction(1, 2) * d(d(u * u, "x"), "y")
    )
    e2 = d(h, "t") + d(u * h + u + d(d(u, "x"), "y"), "x")
    return e1, e2


def build_residuals(
    a_const: Fraction | int = A_CONSTANT,
) -> tuple[JetPoly, JetPoly]:
    """System residuals expanded from the ansatz, with formal symbols.

    The expansion is recomputed from scratch via the jet calculus; nothing is
    transcribed.  The branch plays no role at this formal stage: it enters
    only through specialization and the heat constraint.
    """
    u, h = build_ansatz(solve_balance_exponents(), a_const)
    return system_residuals(u, h)


def _leading_coefficient(e: JetPoly, name: str) -> JetPoly:
    """Symbol-only coefficient of the top-degree part (phi_x^3 * phi_y) of
    the residual called name; only the top degree's terms are read."""
    if e.is_zero:
        raise DerivationError(f"residual {name} has no terms")
    degree = max(len(jets) for _, jets, _ in e._terms)
    top = [(key, coeff) for key, coeff in e._terms.items() if len(key[1]) == degree]
    if any(jets != _TOP_JETS for (_, jets, _), _ in top):
        first = next(
            m for m in JetPoly._canonical(top).monomials() if m.jets != _TOP_JETS
        )
        raise DerivationError(
            f"unexpected top-degree jet structure in {first.render()}"
        )
    # dropping the one shared jet part leaves the keys canonical and distinct
    return JetPoly._canonical(
        ((phi_power, (), syms), coeff) for (phi_power, _, syms), coeff in top
    )


class DerivationCheck(NamedTuple):
    """Residual polynomials of one branch's symbolic checks, by label in
    report order (ode[i], identity[i], e1, e2, delta1, delta2).

    Its verdict is "PASS" iff every residual is the zero polynomial.
    """

    branch: Branch
    residuals: dict[str, JetPoly]

    @property
    def verdict(self) -> str:
        return "PASS" if all(p.is_zero for p in self.residuals.values()) else "FAIL"

    def failures(self) -> list[str]:
        return [
            f"{label}: {poly.render()}"
            for label, poly in self.residuals.items()
            if not poly.is_zero
        ]


def check_ode_system(branch: Branch) -> DerivationCheck:
    """Reduce the leading-coefficient ODE system under the log resolution.

    Extracts the top-degree coefficients of both residuals (g'''' + f''^2 +
    f'f''' and f'''' + f''g'' + f'g'''), specializes them, and also verifies
    the two first-integral identities g'g'' + g''' = 0 and g'^2 + 2g'' = 0.
    """
    e1, e2 = build_residuals()
    g1, g2, g3 = (_SYMBOLS["G", order] for order in (1, 2, 3))
    return DerivationCheck(
        branch,
        {
            "ode[0]": specialize_log(_leading_coefficient(e1, "e1"), branch),
            "ode[1]": specialize_log(_leading_coefficient(e2, "e2"), branch),
            "identity[0]": specialize_log(g1 * g2 + g3, branch),
            "identity[1]": specialize_log(g1 * g1 + 2 * g2, branch),
        },
    )


def verify_factorization(
    branch: Branch, a_const: Fraction | int = A_CONSTANT
) -> DerivationCheck:
    """Certify that both residuals factor through the heat constraint.

    (a) Specializes and heat-reduces both residuals; with A = -1 they must be
    the zero polynomial.  (b) Checks, without using the constraint, that each
    specialized residual is the mixed derivative D_x D_y(c*w) of the heat
    constraint w = phi_t + sign*phi_xx times the specialized first coefficient
    c of its family: f' = sign*2/phi for the first equation, g' = 2/phi for
    the second.
    """
    d = total_derivative
    e1, e2 = build_residuals(a_const)
    s1 = specialize_log(e1, branch)
    s2 = specialize_log(e2, branch)
    w = _PHI_T + branch.sign * _PHI_XX
    c1, c2 = (specialize_log(_SYMBOLS[family, 1], branch) for family in ("F", "G"))
    return DerivationCheck(
        branch,
        {
            "e1": reduce_heat(s1, branch),
            "e2": reduce_heat(s2, branch),
            "delta1": s1 - d(d(c1 * w, "x"), "y"),
            "delta2": s2 - d(d(c2 * w, "x"), "y"),
        },
    )


class BalanceReport(NamedTuple):
    """Outcome of the full derivation: exponents and per-branch checks."""

    exponents: BalanceExponents
    checks: tuple[DerivationCheck, ...]

    @property
    def verdict(self) -> str:
        return "PASS" if all(c.verdict == "PASS" for c in self.checks) else "FAIL"


def derive() -> BalanceReport:
    """Run every symbolic check for both branches and assemble the report;
    `report.verdict` reads PASS or FAIL."""
    exponents = solve_balance_exponents()
    checks = []
    for branch in (Branch.PLUS, Branch.MINUS):
        ode = check_ode_system(branch)
        fact = verify_factorization(branch)
        checks.append(DerivationCheck(branch, {**ode.residuals, **fact.residuals}))
    return BalanceReport(exponents=exponents, checks=tuple(checks))


def render_report(report: BalanceReport) -> str:
    e = report.exponents
    lines = [
        f"balance exponents: (l,m,n,p,q,r) = ({e.l},{e.m},{e.n},{e.p},{e.q},{e.r})",
        "ansatz: u = f'*phi_x, h = g''*phi_x*phi_y + g'*phi_xy + A",
        f"resolved: {F_RESOLVED}; {G_RESOLVED}",
        f"constant: A = {A_CONSTANT}",
        "transformation: u = +/-2*phi_x/phi, "
        "h = -2*phi_x*phi_y/phi^2 + 2*phi_xy/phi - 1",
        "seed equation: phi_t +/- phi_xx = 0",
    ]
    for check in report.checks:
        lines.append(
            f"branch {check.branch.name.lower()}: ode system, log identities, "
            f"residual reduction, factorization -> {check.verdict}"
        )
        lines.extend(f"  {line}" for line in check.failures())
    return "\n".join(lines)


def report_to_dict(report: BalanceReport) -> dict:
    return {
        "exponents": {k: v for k, v in zip("lmnpqr", report.exponents)},
        "f": F_RESOLVED,
        "g": G_RESOLVED,
        "A": str(A_CONSTANT),
        "branches": {
            check.branch.name.lower(): {
                "passed": check.verdict == "PASS",
                "failures": check.failures(),
            }
            for check in report.checks
        },
    }
