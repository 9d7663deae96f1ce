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

from ..jetcalc import Branch, JetIndex
from .exprlang import CoeffExpr, Dual, EvaluationError, eval_dual

__all__ = [
    "SUPPORTED_INDICES",
    "Kernel",
    "HeatPolynomial",
    "SeedSpec",
    "SeedField",
    "make_seed",
    "seed_partial",
    "heat_residual",
]

SUPPORTED_INDICES = frozenset(
    [
        (0, 0, 0),
        (1, 0, 0),
        (2, 0, 0),
        (3, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (2, 1, 0),
    ]
)

Point = tuple[float, float, float]


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
    slot empty and is raised again on the next request. Filling is
    idempotent: a field shared across threads may evaluate a slot twice,
    never differently.
    """

    def __init__(self, spec: SeedSpec):
        self.spec = spec
        self.branch = spec.branch
        self._groups = tuple((kernel.a, kernel.b) for kernel in spec.kernels)
        if spec.poly is not None:
            self._groups += ((spec.poly.c2, spec.poly.c1, spec.poly.c0),)
        self._rows: dict[object, list[tuple[Dual, ...] | None]] = {}

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

    def coefficients(self, y: float) -> tuple[tuple[Dual, ...], ...]:
        """Duals of each kernel's (a, b), then of the poly's (c2, c1, c0)."""
        row = self._row(y)
        return tuple(
            row[slot] or self._resolve(row, slot, y) for slot in range(len(row))
        )

    def partials(self, point: Point, indices) -> tuple[float, ...]:
        """Evaluate several partial derivatives sharing one coefficient pass."""
        indices = [self._checked(index) for index in indices]
        x, y, t = point
        sign = self.branch.sign
        totals = [0.0] * len(indices)

        if self.spec.constant_term:
            for slot, index in enumerate(indices):
                if index == (0, 0, 0):
                    totals[slot] += self.spec.constant_term

        row = self._row(y)
        for pos, kernel in enumerate(self.spec.kernels):
            a, b = row[pos] or self._resolve(row, pos, y)
            theta = a.value * x - sign * a.value**2 * t + b.value
            theta_y = a.deriv * x - sign * 2.0 * a.value * a.deriv * t + b.deriv
            try:
                scale = kernel.amplitude * math.exp(theta)
            except OverflowError:
                raise EvaluationError(
                    f"kernel overflow at exponent {theta!r}"
                ) from None
            for slot, index in enumerate(indices):
                totals[slot] += (
                    _kernel_factor(index, a.value, a.deriv, theta_y, sign) * scale
                )

        if self.spec.poly is not None:
            c2, c1, c0 = row[-1] or self._resolve(row, -1, y)
            for slot, index in enumerate(indices):
                totals[slot] += _poly_partial(index, c2, c1, c0, x, t, sign)

        for value in totals:
            if not math.isfinite(value):
                raise EvaluationError("non-finite seed value")
        return tuple(totals)

    def partial(self, point: Point, index) -> float:
        return self.partials(point, (index,))[0]

    def value(self, point: Point) -> float:
        return self.partial(point, (0, 0, 0))

    @staticmethod
    def _checked(index) -> tuple[int, int, int]:
        key = tuple(index)
        if key not in SUPPORTED_INDICES:
            raise ValueError(f"unsupported jet index {JetIndex(*key).render()}")
        return key


def _kernel_factor(
    index, a: float, a_prime: float, theta_y: float, sign: int
) -> float:
    i, j, _ = index
    if index == (0, 0, 1):
        return -sign * a * a  # theta_t
    if j == 0:
        return a**i
    if index == (0, 1, 0):
        return theta_y
    if index == (1, 1, 0):
        return a_prime + a * theta_y
    return 2.0 * a * a_prime + a * a * theta_y  # (2, 1, 0)


def _poly_partial(index, c2, c1, c0, x: float, t: float, sign: int) -> float:
    if index == (0, 0, 0):
        return c2.value * (x * x - sign * 2.0 * t) + c1.value * x + c0.value
    if index == (1, 0, 0):
        return 2.0 * c2.value * x + c1.value
    if index == (2, 0, 0):
        return 2.0 * c2.value
    if index == (3, 0, 0):
        return 0.0
    if index == (0, 1, 0):
        return c2.deriv * (x * x - sign * 2.0 * t) + c1.deriv * x + c0.deriv
    if index == (0, 0, 1):
        return -sign * 2.0 * c2.value
    if index == (1, 1, 0):
        return 2.0 * c2.deriv * x + c1.deriv
    return 2.0 * c2.deriv  # (2, 1, 0)


def make_seed(spec: SeedSpec) -> SeedField:
    """Build the evaluator for a seed specification."""
    return SeedField(spec)


def seed_partial(field: SeedField, point: Point, index) -> float:
    """Analytic partial derivative of the seed at a point."""
    return field.partial(point, index)


def heat_residual(field, point: Point) -> float:
    """phi_t + sign*phi_xx at a point; zero for every genuine seed."""
    phi_t, phi_xx = field.partials(point, ((0, 0, 1), (2, 0, 0)))
    return phi_t + field.branch.sign * phi_xx
