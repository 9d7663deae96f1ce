"""Exact symbolic calculus over jet variables: formal partial derivatives of a
single scalar field phi(x, y, t).

A monomial multiplies an exact rational coefficient, an integer power of phi,
a multiset of proper-derivative factors (phi_x, phi_xy, ...), each a tuple
(i, j, k) of its orders in x, y and t, and a multiset of formal symbols f^(n),
g^(n), each a pair ("F", n) or ("G", n), standing for derivatives of two
undetermined functions of phi.  Polynomials are kept in a canonical normal
form, and every operation is exact: no floating point enters this module.  A
coefficient is held as an int while it is integral and as a Fraction once a
Fraction enters; Monomial.coeff is always a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from operator import itemgetter
from typing import Iterable

__all__ = [
    "MAX_ORDER",
    "Branch",
    "Monomial",
    "JetPoly",
    "OrderLimitError",
    "SpecializationError",
    "total_derivative",
    "specialize_log",
    "reduce_heat",
    "degree_decompose",
]

# Derivations in this package never exceed total order 4; the cap leaves
# headroom while turning runaway differentiation into a detected error.
MAX_ORDER = 8


class OrderLimitError(ValueError):
    """A jet factor or symbol order above MAX_ORDER; raised by _canonical_key
    alone, so every operation that builds keys through it is capped."""


class SpecializationError(Exception):
    """Logarithmic specialization hit an unsupported or leftover symbol."""


class Branch(Enum):
    """Coupled upper/lower sign choice.

    The seed constraint phi_t + sign*phi_xx = 0 pairs with u = sign*2*phi_x/phi
    and with the matching sign in the exponential seeds; no mixed-sign
    configuration is constructible.
    """

    PLUS = 1
    MINUS = -1

    def __init__(self, sign: int):
        self.sign = sign  # an attribute, not a property: read on every sample

    @classmethod
    def from_name(cls, name: str) -> "Branch":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown branch {name!r} (expected 'plus' or 'minus')"
            ) from None


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


@dataclass(frozen=True)
class Monomial:
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


def _canonical_key(phi_power, jets, syms) -> _Key:
    """Checks every part of a raw key and sorts its factors; a factor given
    as a list becomes a tuple, and a tuple is kept as it is."""
    if type(phi_power) is not int:
        raise ValueError(f"invalid phi power {phi_power!r}")
    jets = tuple(map(tuple, jets))
    for jet in jets:
        if len(jet) != 3:  # checked before the factor is unpacked or sorted
            raise ValueError(f"invalid jet factor {jet}")
        i, j, k = jet
        if not (type(i) is type(j) is type(k) is int and min(jet) >= 0 and i + j + k):
            raise ValueError(f"invalid jet factor {jet}")
        if i + j + k > MAX_ORDER:
            raise OrderLimitError(f"{_render_jet(jet)} exceeds order cap {MAX_ORDER}")
    syms = tuple(map(tuple, syms))
    for sym in syms:
        if len(sym) != 2:
            raise ValueError(f"invalid symbol {sym}")
        family, order = sym
        if family not in ("F", "G") or type(order) is not int or order < 0:
            raise ValueError(f"invalid symbol {sym}")
        if order > MAX_ORDER:
            raise OrderLimitError(
                f"{_render_symbol(sym)} exceeds order cap {MAX_ORDER}"
            )
    return (phi_power, tuple(sorted(jets, key=_jet_key)), tuple(sorted(syms)))


def _term_order(key: _Key):
    phi_power, jets, syms = key
    return (-len(jets), -phi_power, jets, syms)


def _normalised(pairs: Iterable[tuple[_Key, _Coeff]]) -> dict[_Key, _Coeff]:
    """Terms of (canonical key, int or Fraction) pairs: like terms merged,
    zeros dropped.  The terms are in no particular order; monomials() sorts
    them by _term_order when they are read."""
    merged: dict[_Key, _Coeff] = {}
    for key, coeff in pairs:
        merged[key] = merged.get(key, 0) + coeff
    return {key: value for key, value in merged.items() if value}


class JetPoly:
    """Exact polynomial in jet variables, phi powers and coefficient symbols.

    Instances are immutable and canonical: factor tuples sorted, like terms
    merged, zero coefficients dropped.  Term order is imposed where it is
    read: monomials(), and render() through it, sort the terms by
    _term_order.  The constructor takes raw (key, coeff) pairs, in which a
    key may repeat and factors may come in any order: it validates and sorts
    each key (_canonical_key), then hands the pairs to the one normaliser
    (_normalised), which merges and drops zeros.  Sums, negation, scalar
    products, log specialization and degree decomposition, whose keys are
    canonical already, call the normaliser alone, as do products, which
    re-sort the factors of two canonical keys but need not re-validate
    them: a product raises no factor's order.  Arithmetic
    accepts ints and Fractions as scalars.  A stored coefficient is an int
    or a Fraction, never a float: the constructor converts anything else
    with Fraction().
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
    def phi_power(cls, power: int) -> "JetPoly":
        return cls({(power, (), ()): 1})

    @classmethod
    def jet(cls, i: int, j: int, k: int) -> "JetPoly":
        if i == j == k == 0:
            return cls.phi_power(1)
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

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"JetPoly({self.render()})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable mapping inside; equality is structural

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "JetPoly") -> "JetPoly":
        if not isinstance(other, JetPoly):
            return NotImplemented
        return JetPoly._canonical([*self._terms.items(), *other._terms.items()])

    def __neg__(self) -> "JetPoly":
        return JetPoly._canonical((key, -coeff) for key, coeff in self._terms.items())

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        if not isinstance(other, JetPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "JetPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return JetPoly()
            return JetPoly._canonical(
                (key, coeff * other) for key, coeff in self._terms.items()
            )
        if not isinstance(other, JetPoly):
            return NotImplemented
        return JetPoly._canonical(
            (
                (
                    p1 + p2,
                    tuple(sorted(jets1 + jets2, key=_jet_key)),
                    tuple(sorted(syms1 + syms2)),
                ),
                c1 * c2,
            )
            for (p1, jets1, syms1), c1 in self._terms.items()
            for (p2, jets2, syms2), c2 in other._terms.items()
        )

    def __rmul__(self, other) -> "JetPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "JetPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("JetPoly powers must be nonnegative integers")
        result = JetPoly.constant(1)
        for _ in range(n):
            result = result * self
        return result


def _with_replaced(factors: tuple, old, new) -> list:
    items = list(factors)
    items.remove(old)
    items.append(new)
    return items


def total_derivative(p: JetPoly, direction: str) -> JetPoly:
    """Total derivative along x, y or t.

    phi and every jet variable are treated as functions of (x, y, t), so a
    factor phi^e contributes e*phi^(e-1)*phi_d, a jet factor gets its order
    bumped, and a symbol C_n contributes C_(n+1)*phi_d by the chain rule.
    """
    if direction not in _UNITS:
        raise ValueError(f"unknown direction {direction!r}")
    di, dj, dk = unit = _UNITS[direction]
    out: list[tuple[_Key, _Coeff]] = []
    for (phi_power, jets, syms), coeff in p._terms.items():
        if phi_power:
            out.append(((phi_power - 1, (*jets, unit), syms), coeff * phi_power))
        for jet in set(jets):
            i, j, k = jet
            bumped = _with_replaced(jets, jet, (i + di, j + dj, k + dk))
            out.append(((phi_power, bumped, syms), coeff * jets.count(jet)))
        for sym in set(syms):
            raised = _with_replaced(syms, sym, (sym[0], sym[1] + 1))
            out.append(((phi_power, (*jets, unit), raised), coeff * syms.count(sym)))
    return JetPoly(out)


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
    polynomial.
    """
    if p.has_symbols():
        raise SpecializationError("reduce_heat requires a symbol-free polynomial")
    out: list[tuple[_Key, _Coeff]] = []
    for (phi_power, jets, _), coeff in p._terms.items():
        factor = 1
        new_jets = []
        for jet in jets:
            i, j, k = jet
            if k:
                factor *= (-branch.sign) ** k
                new_jets.append((i + 2 * k, j, 0))
            else:
                new_jets.append(jet)
        out.append(((phi_power, new_jets, ()), coeff * factor))
    return JetPoly(out)


def degree_decompose(p: JetPoly) -> dict[int, JetPoly]:
    """Partition terms by homogeneous degree (count of proper jet factors)."""
    buckets: dict[int, list[tuple[_Key, _Coeff]]] = {}
    for pair in p._terms.items():  # canonical keys, so each bucket is canonical
        buckets.setdefault(len(pair[0][1]), []).append(pair)
    return {d: JetPoly._canonical(pairs) for d, pairs in sorted(buckets.items())}
