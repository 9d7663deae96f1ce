"""Seeds of the linear constraint phi_t + sign*phi_xx = 0.

A seed superposes an additive constant, exponential kernels
amp * exp(a(y)*x - sign*a(y)^2*t + b(y)) with arbitrary differentiable
coefficient expressions, and a quadratic heat-polynomial part
c2(y)*(x^2 - sign*2t) + c1(y)*x + c0(y).  Each component satisfies the
constraint by construction, hence so does the superposition; partial
derivatives are analytic, never numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ..jetcalc import Branch, JetIndex
from .exprlang import CoeffExpr, Dual, EvaluationError, eval_dual

__all__ = [
    "SUPPORTED_INDICES",
    "Kernel",
    "HeatPolynomial",
    "SeedSpec",
    "SeedField",
    "heat_residual",
]

Point = tuple[float, float, float]

# Per supported index (i, j, k): the factor multiplying a kernel's
# amp*exp(theta), from a, a' = da/dy, theta_y and the branch sign (a power
# stays a power: a**3 and a*a*a can round apart) ...
_KERNEL_FACTORS = {
    (0, 0, 0): lambda a, a_prime, theta_y, sign: a**0,
    (1, 0, 0): lambda a, a_prime, theta_y, sign: a**1,
    (2, 0, 0): lambda a, a_prime, theta_y, sign: a**2,
    (3, 0, 0): lambda a, a_prime, theta_y, sign: a**3,
    (0, 1, 0): lambda a, a_prime, theta_y, sign: theta_y,
    (0, 0, 1): lambda a, a_prime, theta_y, sign: -sign * a * a,  # theta_t
    (1, 1, 0): lambda a, a_prime, theta_y, sign: a_prime + a * theta_y,
    (2, 1, 0): lambda a, a_prime, theta_y, sign: 2.0 * a * a_prime + a * a * theta_y,
}

# ... and the heat polynomial's term, from the duals of c2, c1, c0.
_POLY_TERMS = {
    (0, 0, 0): lambda c2, c1, c0, x, t, sign: (
        c2.value * (x * x - sign * 2.0 * t) + c1.value * x + c0.value
    ),
    (1, 0, 0): lambda c2, c1, c0, x, t, sign: 2.0 * c2.value * x + c1.value,
    (2, 0, 0): lambda c2, c1, c0, x, t, sign: 2.0 * c2.value,
    (3, 0, 0): lambda c2, c1, c0, x, t, sign: 0.0,
    (0, 1, 0): lambda c2, c1, c0, x, t, sign: (
        c2.deriv * (x * x - sign * 2.0 * t) + c1.deriv * x + c0.deriv
    ),
    (0, 0, 1): lambda c2, c1, c0, x, t, sign: -sign * 2.0 * c2.value,
    (1, 1, 0): lambda c2, c1, c0, x, t, sign: 2.0 * c2.deriv * x + c1.deriv,
    (2, 1, 0): lambda c2, c1, c0, x, t, sign: 2.0 * c2.deriv,
}

SUPPORTED_INDICES = frozenset(_KERNEL_FACTORS)
_PHI = ((0, 0, 0),)


class _Plan(NamedTuple):
    """A validated index set, resolved once per field."""

    start: tuple[float, ...]  # 0.0 per index, plus the constant term at phi
    kernel_factors: tuple  # one _KERNEL_FACTORS entry per index
    poly_terms: tuple  # one _POLY_TERMS entry per index


@dataclass(frozen=True)
class Kernel:
    """One exponential component amp * exp(a(y)*x - sign*a(y)^2*t + b(y))."""

    amplitude: float
    a: CoeffExpr
    b: CoeffExpr


@dataclass(frozen=True)
class HeatPolynomial:
    """Quadratic component c2(y)*(x^2 - sign*2t) + c1(y)*x + c0(y)."""

    c2: CoeffExpr
    c1: CoeffExpr
    c0: CoeffExpr


@dataclass(frozen=True)
class SeedSpec:
    branch: Branch
    constant_term: float = 0.0
    kernels: tuple[Kernel, ...] = ()
    poly: HeatPolynomial | None = None


class SeedField:
    """Evaluator of a seed and its supported partial derivatives at a point.

    The coefficients depend on y alone, so the field keeps a table with one
    row per distinct y and one slot per coefficient group: each kernel's
    (a, b), then the poly's (c2, c1, c0). A slot is evaluated when a point
    first needs it, in the order the seed's terms are summed, so an error
    surfaces where it would without the table; an EvaluationError leaves the
    slot empty and is raised again on the next request. Each index set asked
    of `partials` is validated once into a plan, kept per field; an
    unsupported index stores no plan and is rejected on every call. Both are
    filled idempotently: a field shared across threads may evaluate a slot
    or a plan twice, never differently.
    """

    def __init__(self, spec: SeedSpec):
        self.spec = spec
        self.branch = spec.branch
        self._amplitudes = tuple(kernel.amplitude for kernel in spec.kernels)
        self._groups = tuple((kernel.a, kernel.b) for kernel in spec.kernels)
        if spec.poly is not None:
            self._groups += ((spec.poly.c2, spec.poly.c1, spec.poly.c0),)
        self._rows: dict[object, list[tuple[Dual, ...] | None]] = {}
        self._plans: dict[tuple, _Plan] = {}

    def _row(self, y: float) -> list[tuple[Dual, ...] | None]:
        # Keyed on the exact float. Equal floats share a row except the
        # signed zeros, which eval_dual can tell apart; NaNs, equal to
        # nothing, share one key.
        key = y if y and y == y else repr(y)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [None] * len(self._groups)
        return row

    def _resolve(self, row: list, slot: int, y: float) -> tuple[Dual, ...]:
        duals = tuple(eval_dual(expr, y) for expr in self._groups[slot])
        row[slot] = duals
        return duals

    def duals(self, y: float, slot: int) -> tuple[Dual, ...]:
        """Duals of one coefficient group at y: kernel `slot`'s (a, b), or
        the poly's (c2, c1, c0) at slot -1."""
        row = self._row(y)
        return row[slot] or self._resolve(row, slot, y)

    def partials(self, point: Point, indices) -> tuple[float, ...]:
        """Evaluate several partial derivatives sharing one coefficient pass."""
        try:
            plan = self._plans[indices]
        except (KeyError, TypeError):  # a new index set, or an unhashable one
            plan = self._plan(indices)
        x, y, t = point
        sign = self.branch.sign
        totals = list(plan.start)

        key = y if y and y == y else repr(y)  # as in _row
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [None] * len(self._groups)
        try:
            for pos, amplitude in enumerate(self._amplitudes):
                a, b = row[pos] or self._resolve(row, pos, y)
                a_value, a_prime = a.value, a.deriv
                theta = a_value * x - sign * a_value**2 * t + b.value
                theta_y = a_prime * x - sign * 2.0 * a_value * a_prime * t + b.deriv
                try:
                    scale = amplitude * math.exp(theta)
                except OverflowError:
                    raise EvaluationError(
                        f"kernel overflow at exponent {theta!r}"
                    ) from None
                for slot, factor in enumerate(plan.kernel_factors):
                    totals[slot] += factor(a_value, a_prime, theta_y, sign) * scale
        except OverflowError:
            # float ** raises where * rounds to inf: a power past the float
            # range is a non-finite value, failed like the check below
            raise EvaluationError("non-finite seed value") from None

        if self.spec.poly is not None:
            c2, c1, c0 = row[-1] or self._resolve(row, -1, y)
            for slot, term in enumerate(plan.poly_terms):
                totals[slot] += term(c2, c1, c0, x, t, sign)

        if not all(map(math.isfinite, totals)):
            raise EvaluationError("non-finite seed value")
        return tuple(totals)

    def _plan(self, indices) -> _Plan:
        key = tuple(self._checked(index) for index in indices)
        constant = self.spec.constant_term
        plan = _Plan(
            start=tuple(
                0.0 + constant if constant and index == (0, 0, 0) else 0.0
                for index in key
            ),
            kernel_factors=tuple(_KERNEL_FACTORS[index] for index in key),
            poly_terms=tuple(_POLY_TERMS[index] for index in key),
        )
        self._plans[key] = plan
        return plan

    def partial(self, point: Point, index) -> float:
        return self.partials(point, (index,))[0]

    def value(self, point: Point) -> float:
        return self.partials(point, _PHI)[0]

    @staticmethod
    def _checked(index) -> tuple[int, int, int]:
        key = tuple(index)
        if key not in SUPPORTED_INDICES:
            name = JetIndex(*key).render() if len(key) == 3 else repr(key)
            raise ValueError(f"unsupported jet index {name}")
        return key


def heat_residual(field, point: Point) -> float:
    """phi_t + sign*phi_xx at a point; zero for every genuine seed."""
    phi_t, phi_xx = field.partials(point, ((0, 0, 1), (2, 0, 0)))
    return phi_t + field.branch.sign * phi_xx
