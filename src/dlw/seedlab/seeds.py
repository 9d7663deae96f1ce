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
from typing import NamedTuple

from ..branch import Branch
from ..errors import EvaluationError
from .exprlang import CoeffExpr, eval_dual

__all__ = [
    "Kernel",
    "HeatPolynomial",
    "SeedSpec",
    "SeedField",
]


class Kernel(NamedTuple):
    """One exponential component amp * exp(a(y)*x - sign*a(y)^2*t + b(y))."""

    amplitude: float
    a: CoeffExpr
    b: CoeffExpr


class HeatPolynomial(NamedTuple):
    """Quadratic component c2(y)*(x^2 - sign*2t) + c1(y)*x + c0(y)."""

    c2: CoeffExpr
    c1: CoeffExpr
    c0: CoeffExpr


class SeedSpec(NamedTuple):
    branch: Branch
    constant_term: float = 0.0
    kernels: tuple[Kernel, ...] = ()
    poly: HeatPolynomial | None = None


class SeedField:
    """Evaluator of a seed and the four partials the transformation reads.

    The coefficients depend on y alone, so the field keeps a table with one
    row per distinct y and one slot per coefficient group: each kernel, then
    the poly. A coefficient is held as its (value, y-derivative) float pair.
    A kernel's slot holds its x- and t-free constants (amplitude, a, a', b,
    b', sign*a^2 and sign*2aa' of its exponent); the poly's holds the pairs
    (c2, c1, c0). A slot is filled when a point first needs it, in the order
    the seed's terms are summed, so an error surfaces where it would without
    the table; an EvaluationError leaves the slot empty and is raised again
    on the next request, named from `seed` by its member and y
    (`seed.kernels[0].a at y = ...`). Three readers share the table:
    `partials`; `phi`, which sums the seed alone, as `partials` does; and
    `duals`, which returns kernel 0's whole slot for the exact path. Beside
    the table the field holds `sign_2`, the branch sign times 2.0, formed
    once: the factor of u in `transform.transform_point` and of t in the
    poly's x^2 - sign*2t. The table is its only mutable state, filled
    idempotently: a field shared across threads may evaluate a slot twice,
    never differently.
    """

    def __init__(self, spec: SeedSpec):
        self.spec = spec
        self.branch = spec.branch
        self.sign_2 = spec.branch.sign * 2.0
        self._poly = spec.poly
        self._kernel_slots = range(len(spec.kernels))
        self._groups = tuple(
            ((f"seed.kernels[{pos}].a", kernel.a), (f"seed.kernels[{pos}].b", kernel.b))
            for pos, kernel in enumerate(spec.kernels)
        )
        if spec.poly is not None:
            members = ("seed.poly.c2", "seed.poly.c1", "seed.poly.c0")
            self._groups += (tuple(zip(members, spec.poly)),)
        constant = spec.constant_term
        self._phi_start = 0.0 + constant if constant else 0.0  # never -0.0
        self._rows: dict[object, list[tuple | None]] = {}

    def _resolve(self, row: list, slot: int, y: float) -> tuple:
        pairs = []
        for member, expr in self._groups[slot]:
            try:
                pairs.append(eval_dual(expr, y))
            except EvaluationError as exc:
                raise EvaluationError(f"{member} at y = {y!r}: {exc}") from None
        entry = tuple(pairs)
        if slot in self._kernel_slots:
            (a, a_prime), (b, b_prime) = entry
            sign = self.branch.sign
            try:
                sign_a2 = sign * a**2
            except OverflowError:
                # float ** raises where * rounds to inf; every sample needs a**2
                raise EvaluationError(
                    f"seed.kernels[{slot}].a at y = {y!r}: a^2 overflows"
                ) from None
            amplitude = self.spec.kernels[slot].amplitude
            sign_2aa_prime = sign * 2.0 * a * a_prime
            entry = amplitude, a, a_prime, b, b_prime, sign_a2, sign_2aa_prime
        row[slot] = entry
        return entry

    def duals(self, y: float) -> tuple:
        """Kernel 0's whole slot at y, (amplitude, a, a', b, b', sign*a^2,
        sign*2aa'), which the exact path's `transform.exact_uh` and
        `exact_phi` read, so they form no product of a and a' at a sample. A
        kernel whose a^2 passes the float range raises the EvaluationError
        `seed.kernels[0].a at y = <y>: a^2 overflows`, as `partials` does."""
        key = y if y and y == y else repr(y)  # as in partials
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [None] * len(self._groups)
        return row[0] or self._resolve(row, 0, y)

    def partials(self, x: float, y: float, t: float) -> tuple[float, float, float, float]:
        """(phi, phi_x, phi_y, phi_xy) at (x, y, t), in one pass over its table
        row: the constant, the kernels in spec order, then the poly. The sums
        are returned as summed, inf or nan included. Raises an EvaluationError
        naming the member and y: a coefficient that fails (`seed.poly.c1 at
        y = <y>: ...`), `seed.kernels[<pos>].a at y = <y>: a^2 overflows`, or
        `seed.kernels[<pos>] at y = <y>: kernel overflow at exponent ...`."""
        phi = self._phi_start
        phi_x = phi_y = phi_xy = 0.0

        # Keyed on the exact float. Equal floats share a row except the
        # signed zeros, which eval_dual can tell apart; NaNs, equal to
        # nothing, share one key.
        key = y if y and y == y else repr(y)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [None] * len(self._groups)
        for pos in self._kernel_slots:
            amplitude, a, a_prime, b, b_prime, sign_a2, sign_2aa_prime = (
                row[pos] or self._resolve(row, pos, y)
            )
            theta = a * x - sign_a2 * t + b
            theta_y = a_prime * x - sign_2aa_prime * t + b_prime
            try:
                scale = amplitude * math.exp(theta)
            except OverflowError:
                raise _kernel_overflow(pos, y, theta) from None
            phi += scale
            phi_x += a * scale
            phi_y += theta_y * scale
            phi_xy += (a_prime + a * theta_y) * scale

        if self._poly is not None:
            (c2, c2_prime), (c1, c1_prime), (c0, c0_prime) = (
                row[-1] or self._resolve(row, -1, y)
            )
            quadratic = x * x - self.sign_2 * t
            phi += c2 * quadratic + c1 * x + c0
            phi_x += 2.0 * c2 * x + c1
            phi_y += c2_prime * quadratic + c1_prime * x + c0_prime
            phi_xy += 2.0 * c2_prime * x + c1_prime
        return phi, phi_x, phi_y, phi_xy

    def phi(self, x: float, y: float, t: float) -> float:
        """The seed alone, `partials(x, y, t)[0]` bit for bit, for the phi
        column: the same table row, the same float operations in the same
        order, and the same EvaluationErrors in the same order."""
        phi = self._phi_start
        key = y if y and y == y else repr(y)  # as in partials
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [None] * len(self._groups)
        for pos in self._kernel_slots:
            amplitude, a, _, b, _, sign_a2, _ = row[pos] or self._resolve(row, pos, y)
            theta = a * x - sign_a2 * t + b
            try:
                phi += amplitude * math.exp(theta)
            except OverflowError:
                raise _kernel_overflow(pos, y, theta) from None
        if self._poly is not None:
            (c2, _), (c1, _), (c0, _) = row[-1] or self._resolve(row, -1, y)
            phi += c2 * (x * x - self.sign_2 * t) + c1 * x + c0
        return phi


def _kernel_overflow(pos: int, y: float, theta: float) -> EvaluationError:
    """The error of kernel `pos`, whose exp(theta) passes the float range at y."""
    return EvaluationError(f"seed.kernels[{pos}] at y = {y!r}: "
                           f"kernel overflow at exponent {theta!r}")
