"""Exact symbolic calculus over jet variables: formal partial derivatives of a
single scalar field phi(x, y, t).

A monomial multiplies an exact rational coefficient, an integer power of phi,
a multiset of proper-derivative factors (phi_x, phi_xy, ...), each a tuple
(i, j, k) of its orders in x, y and t, and a multiset of formal symbols f^(n),
g^(n), each a pair ("F", n) or ("G", n), standing for derivatives of two
undetermined functions of phi.  Polynomials are kept in a canonical normal
form, and every operation is exact: no floating point enters this module.  A
coefficient the normaliser stores is an int when it is integral and a
Fraction otherwise; a sum or difference, which merges without the
normaliser, may keep an integral Fraction.  Monomial.coeff is always a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add, itemgetter, sub
from typing import Iterable, NamedTuple

from .branch import Branch

__all__ = [
    "MAX_ORDER",
    "Monomial",
    "JetPoly",
    "OrderLimitError",
    "SpecializationError",
    "total_derivative",
    "specialize_log",
    "reduce_heat",
]

# Derivations in this package never exceed total order 4; the cap leaves
# headroom while turning runaway differentiation into a detected error.
MAX_ORDER = 8


class OrderLimitError(ValueError):
    """A jet factor or symbol order above MAX_ORDER; raised by _check_cap
    alone, which _canonical_key runs on every factor of a raw key and
    total_derivative and reduce_heat on each factor whose order they raise."""


class SpecializationError(Exception):
    """Logarithmic specialization hit an unsupported or leftover symbol."""


_Jet = tuple[int, int, int]
_Symbol = tuple[str, int]
_UNITS = {"x": (1, 0, 0), "y": (0, 1, 0), "t": (0, 0, 1)}


def _render_jet(jet: _Jet) -> str:
    i, j, k = jet
    return "phi_" + "x" * i + "y" * j + "t" * k


def _render_symbol(sym: _Symbol) -> str:
    family, order = sym
    base = "f" if family == "F" else "g"
    if 1 <= order <= 3:
        return base + "'" * order
    return f"{base}^({order})"


class Monomial(NamedTuple):
    """One normalized term of a JetPoly."""

    coeff: Fraction
    phi_power: int
    jets: tuple[_Jet, ...]
    syms: tuple[_Symbol, ...]

    def render(self) -> str:
        factors = []
        if self.phi_power:
            factors.append("phi" if self.phi_power == 1 else f"phi^{self.phi_power}")
        factors.extend(map(_render_jet, self.jets))
        factors.extend(map(_render_symbol, self.syms))
        if not factors:
            return str(self.coeff)
        body = "*".join(factors)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return "-" + body
        return f"{self.coeff}*{body}"


_Key = tuple[int, tuple[_Jet, ...], tuple[_Symbol, ...]]
_Coeff = int | Fraction

# conventional factor order: phi_x, phi_xx, phi_y, phi_xy, ..., phi_t, ...
_jet_key = itemgetter(2, 1, 0)


def _sorted_jets(jets) -> tuple[_Jet, ...]:
    return tuple(sorted(jets, key=_jet_key))


def _check_cap(order: int, factor, render) -> None:
    """The one home of the order cap and its message."""
    if order > MAX_ORDER:
        raise OrderLimitError(f"{render(factor)} exceeds order cap {MAX_ORDER}")


def _is_order(n) -> bool:
    return type(n) is int and n >= 0


def _canonical_key(phi_power, jets, syms) -> _Key:
    """Checks every part of a raw key and sorts its factors; a factor given
    as a list becomes a tuple, and a tuple is kept as it is."""
    if type(phi_power) is not int:
        raise ValueError(f"invalid phi power {phi_power!r}")
    jets = tuple(map(tuple, jets))
    for jet in jets:  # each length is checked before the factor is read or sorted
        if not (len(jet) == 3 and all(map(_is_order, jet)) and any(jet)):
            raise ValueError(f"invalid jet factor {jet}")
        _check_cap(sum(jet), jet, _render_jet)
    syms = tuple(map(tuple, syms))
    for sym in syms:
        if not (len(sym) == 2 and sym[0] in ("F", "G") and _is_order(sym[1])):
            raise ValueError(f"invalid symbol {sym}")
        _check_cap(sym[1], sym, _render_symbol)
    return (phi_power, _sorted_jets(jets), tuple(sorted(syms)))


def _term_order(key: _Key):
    phi_power, jets, syms = key
    return (-len(jets), -phi_power, jets, syms)


def _normalised(pairs: Iterable[tuple[_Key, _Coeff]]) -> dict[_Key, _Coeff]:
    """Terms of (canonical key, int or Fraction) pairs: like terms merged,
    zeros dropped, and an integral coefficient stored as an int, the one
    home of that rule.  The terms are in no particular order; monomials()
    sorts them by _term_order when they are read."""
    merged: dict[_Key, _Coeff] = {}
    for key, coeff in pairs:
        merged[key] = merged.get(key, 0) + coeff
    return {
        key: value.numerator
        if type(value) is Fraction and value.denominator == 1
        else value
        for key, value in merged.items()
        if value
    }


def _times(coeff: _Coeff, scalar: _Coeff) -> _Coeff:
    """coeff * scalar.  An int coeff times a Fraction scalar builds no
    Fraction where the product is integral (the 1/2 of balance's e1); the
    normaliser stores the result by its rule either way."""
    if type(coeff) is int and type(scalar) is Fraction:
        quotient, remainder = divmod(coeff * scalar.numerator, scalar.denominator)
        if not remainder:
            return quotient
    return coeff * scalar


class JetPoly:
    """Exact polynomial in jet variables, phi powers and coefficient symbols.

    Instances are immutable and canonical: factor tuples sorted, like terms
    merged, zero coefficients dropped.  Term order is imposed where it is
    read: monomials(), and render() through it, sort the terms by
    _term_order.  The constructor takes raw (key, coeff) pairs, in which a
    key may repeat and factors may come in any order: it validates and sorts
    each key (_canonical_key), then hands the pairs to the one normaliser
    (_normalised), which merges and drops zeros; balance builds its jet and
    symbol leaves through it once, at import.  No arithmetic or calculus
    operation goes through the constructor: each builds keys that are
    canonical already and skips full validation.  Scalar products and log
    specialization call the normaliser alone;
    sums and differences merge the other operand into a copy of the terms,
    dropping only keys that cancel; products re-sort the factors of two
    canonical keys, and total_derivative and reduce_heat the factors of
    each key they change.  No operation writes into an operand's terms.
    The order cap is enforced where an order can rise: the constructor
    checks every factor, and total_derivative and reduce_heat each factor
    they raise (a product raises none).  Arithmetic accepts ints and
    Fractions as scalars; there is no negation, so -p is written -1 * p.
    A stored coefficient is an int or a Fraction, never a float: the
    constructor converts anything else with Fraction().  Every result built
    through the normaliser stores an integral coefficient as an int; a sum
    or difference of two Fractions that comes out integral may stay a
    Fraction, which no equality or rendered byte can tell apart.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: dict[_Key, _Coeff] | Iterable[tuple[_Key, _Coeff]] = (),
    ):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _normalised(
            (
                _canonical_key(*key),
                coeff if type(coeff) is int or type(coeff) is Fraction
                else Fraction(coeff),
            )
            for key, coeff in terms
        )

    @classmethod
    def _canonical(cls, pairs: Iterable[tuple[_Key, _Coeff]]) -> "JetPoly":
        """Skips _canonical_key: every key must be canonical already."""
        poly = cls.__new__(cls)
        poly._terms = _normalised(pairs)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Fraction | int) -> "JetPoly":
        return cls({(0, (), ()): value})

    @classmethod
    def jet(cls, i: int, j: int, k: int) -> "JetPoly":
        return cls({(0, ((i, j, k),), ()): 1})

    @classmethod
    def symbol(cls, family: str, order: int) -> "JetPoly":
        return cls({(0, (), ((family, order),)): 1})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def monomials(self) -> tuple[Monomial, ...]:
        """The terms in _term_order, the one order output is rendered in."""
        terms = self._terms
        return tuple(
            Monomial(Fraction(terms[key]), *key)
            for key in sorted(terms, key=_term_order)
        )

    def has_symbols(self) -> bool:
        return any(syms for _, _, syms in self._terms)

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono in self.monomials():
            text = mono.render()
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append("- " + text[1:])
            else:
                parts.append("+ " + text)
        return " ".join(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"JetPoly({self.render()})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable mapping inside; equality is structural

    # -- arithmetic --------------------------------------------------------

    def _merged(self, other: "JetPoly", op) -> "JetPoly":
        """self op other, merged into a copy of self's terms: other's keys
        are canonical and its coefficients nonzero, so a key drops only
        where it cancels.  The normaliser is skipped, so two Fractions whose
        sum is integral may leave a Fraction; equality and rendering read
        values, not types."""
        if not isinstance(other, JetPoly):
            return NotImplemented
        terms = self._terms.copy()
        for key, coeff in other._terms.items():
            value = op(terms.get(key, 0), coeff)
            if value:
                terms[key] = value
            else:
                del terms[key]
        poly = JetPoly.__new__(JetPoly)
        poly._terms = terms
        return poly

    def __add__(self, other: "JetPoly") -> "JetPoly":
        return self._merged(other, add)

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        return self._merged(other, sub)

    def __mul__(self, other) -> "JetPoly":
        if isinstance(other, (int, Fraction)):
            return JetPoly._canonical(
                (key, _times(coeff, other)) for key, coeff in self._terms.items()
            )
        if not isinstance(other, JetPoly):
            return NotImplemented
        return JetPoly._canonical(
            (
                (
                    p1 + p2,
                    _sorted_jets(jets1 + jets2),
                    tuple(sorted(syms1 + syms2)),
                ),
                c1 * c2,
            )
            for (p1, jets1, syms1), c1 in self._terms.items()
            for (p2, jets2, syms2), c2 in other._terms.items()
        )

    __rmul__ = __mul__


def total_derivative(p: JetPoly, direction: str) -> JetPoly:
    """Total derivative along x, y or t.

    phi and every jet variable are treated as functions of (x, y, t), so a
    factor phi^e contributes e*phi^(e-1)*phi_d, a jet factor gets its order
    bumped, and a symbol C_n contributes C_(n+1)*phi_d by the chain rule.
    Each output key is a canonical key of p with one factor raised or one
    unit jet added, so only the raised factor is checked against the cap
    and only that key's factors are re-sorted: the result skips
    _canonical_key.
    """
    if direction not in _UNITS:
        raise ValueError(f"unknown direction {direction!r}")
    di, dj, dk = unit = _UNITS[direction]
    out: list[tuple[_Key, _Coeff]] = []
    for (phi_power, jets, syms), coeff in p._terms.items():
        if phi_power or syms:
            with_unit = _sorted_jets((*jets, unit))
        if phi_power:
            out.append(((phi_power - 1, with_unit, syms), coeff * phi_power))
        for n, jet in enumerate(jets):
            if n and jet == jets[n - 1]:
                continue  # a repeated factor, counted at its first place
            i, j, k = jet
            bumped = (i + di, j + dj, k + dk)
            _check_cap(i + j + k + 1, bumped, _render_jet)
            key = (phi_power, _sorted_jets((*jets[:n], bumped, *jets[n + 1 :])), syms)
            out.append((key, coeff * jets.count(jet)))
        for n, sym in enumerate(syms):
            if n and sym == syms[n - 1]:
                continue
            family, order = sym
            raised = (family, order + 1)
            _check_cap(order + 1, raised, _render_symbol)
            raised_syms = tuple(sorted((*syms[:n], raised, *syms[n + 1 :])))
            out.append(((phi_power, with_unit, raised_syms), coeff * syms.count(sym)))
    return JetPoly._canonical(out)


def specialize_log(p: JetPoly, branch: Branch) -> JetPoly:
    """Substitute the logarithmic resolution of the ansatz functions.

    Every F_n becomes sign*2*(-1)^(n-1)*(n-1)!*phi^(-n) and every G_n becomes
    2*(-1)^(n-1)*(n-1)!*phi^(-n), for n >= 1.  Zeroth-order symbols are
    rejected: the undifferentiated logarithm never appears in final
    expressions.
    """
    out: list[tuple[_Key, _Coeff]] = []
    for (phi_power, jets, syms), coeff in p._terms.items():
        power = phi_power
        value = coeff
        for family, order in syms:
            if order == 0:
                raise SpecializationError(
                    f"cannot specialize zeroth-order symbol {family}_0"
                )
            value *= 2 * (-1) ** (order - 1) * factorial(order - 1)
            if family == "F":
                value *= branch.sign
            power -= order
        out.append(((power, jets, ()), value))
    # jets come from a canonical key and stay sorted without the symbols
    return JetPoly._canonical(out)


def reduce_heat(p: JetPoly, branch: Branch) -> JetPoly:
    """Rewrite all t-derivatives through the constraint phi_t = -sign*phi_xx.

    Each jet factor (i, j, k) with k >= 1 becomes (-sign)^k * (i+2k, j, 0);
    the rewrite is a substitution on independent generators, so it is
    confluent and idempotent.  Requires a symbol-free (already specialized)
    polynomial.  A key without t-derivatives is kept as it is; in any other
    only the rewritten factors are checked against the cap before the key's
    factors are re-sorted: the result skips _canonical_key.
    """
    if p.has_symbols():
        raise SpecializationError("reduce_heat requires a symbol-free polynomial")
    out: list[tuple[_Key, _Coeff]] = []
    for key, coeff in p._terms.items():
        phi_power, jets, _ = key
        if not (jets and jets[-1][2]):  # t-orders sort last: this key has none
            out.append((key, coeff))
            continue
        factor = 1
        new_jets = []
        for jet in jets:
            i, j, k = jet
            if k:
                factor *= (-branch.sign) ** k
                jet = (i + 2 * k, j, 0)
                _check_cap(i + j + 2 * k, jet, _render_jet)
            new_jets.append(jet)
        out.append(((phi_power, _sorted_jets(new_jets), ()), coeff * factor))
    return JetPoly._canonical(out)

