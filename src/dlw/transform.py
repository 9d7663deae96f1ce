"""Point maps from linear seeds to solutions of the dispersive long wave
system: the logarithmic-derivative transformation, the closed-form solitary
profiles it produces for single exponential kernels, and the constant
coefficient specialization with its (1+1)-dimensional reduction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .jetcalc import Branch
from .seedlab import Dual, SeedField, sech

__all__ = [
    "FieldPair",
    "POLE_TOLERANCE",
    "PoleError",
    "transform_point",
    "exact_uh",
    "exact_uh_const",
    "one_plus_exp",
    "reduce_1plus1",
]

Point = tuple[float, float, float]

# |phi| below this fraction of 1 + |phi_x| + |phi_y| is a pole.
POLE_TOLERANCE = 1e-12


class FieldPair(NamedTuple):
    """Field values (u, h) of the dispersive long wave system at one point."""

    u: float
    h: float


class PoleError(ArithmeticError):
    """The transformation is singular: phi vanishes at the sampled point."""

    def __init__(self, point: Point, phi: float):
        super().__init__(f"pole at point {point}: phi = {phi!r}")
        self.point = point
        self.phi = phi


_TRANSFORM_INDICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))


def transform_point(field: SeedField, point: Point) -> FieldPair:
    """u = sign*2*phi_x/phi, h = -2*phi_x*phi_y/phi^2 + 2*phi_xy/phi - 1."""
    phi, phi_x, phi_y, phi_xy = field.partials(point, _TRANSFORM_INDICES)
    if abs(phi) < POLE_TOLERANCE * (1.0 + abs(phi_x) + abs(phi_y)):
        raise PoleError(point, phi)
    u = field.branch.sign * 2.0 * phi_x / phi
    h = -2.0 * phi_x * phi_y / (phi * phi) + 2.0 * phi_xy / phi - 1.0
    return FieldPair(u, h)


def exact_uh(a: Dual, b: Dual, branch: Branch, point: Point) -> FieldPair:
    """Closed-form solution generated by the unit single-kernel seed.

    a and b are the duals (value, y-derivative) of the kernel coefficients at
    the point's y. With theta = a(y)*x - sign*a(y)^2*t + b(y):
      u = sign*a*(1 + tanh(theta/2))
      h = (a/2)*(a'x - sign*2aa't + b')*sech(theta/2)^2 + a'*tanh(theta/2) + a' - 1
    """
    x, _, t = point
    sign = branch.sign
    theta = a.value * x - sign * a.value**2 * t + b.value
    theta_y = a.deriv * x - sign * 2.0 * a.value * a.deriv * t + b.deriv
    th = math.tanh(0.5 * theta)
    sh2 = sech(0.5 * theta) ** 2
    u = sign * a.value * (1.0 + th)
    h = 0.5 * a.value * theta_y * sh2 + a.deriv * th + a.deriv - 1.0
    return FieldPair(u, h)


def exact_uh_const(
    a: float, c: float, d: float, branch: Branch, point: Point
) -> FieldPair:
    """Constant-coefficient solitary wave.

    u = sign*a*(1 + tanh(arg/2)), h = (a*c/2)*sech(arg/2)^2 - 1 with
    arg = a*x - sign*a^2*t + c*y + d.
    """
    x, y, t = point
    sign = branch.sign
    arg = a * x - sign * a * a * t + c * y + d
    u = sign * a * (1.0 + math.tanh(0.5 * arg))
    h = 0.5 * a * c * sech(0.5 * arg) ** 2 - 1.0
    return FieldPair(u, h)


def one_plus_exp(arg: float) -> float:
    """The seed 1 + exp(arg) behind the constant-coefficient solitary waves.

    Past exp's float range the seed rounds to inf, while u and h, formed
    through tanh and sech, stay finite.
    """
    try:
        return 1.0 + math.exp(arg)
    except OverflowError:
        return math.inf


def reduce_1plus1(a: float, d: float, branch: Branch, z: float, t: float) -> FieldPair:
    """(1+1)-dimensional solitary wave in z = x + y, from the c = a case."""
    return exact_uh_const(a, a, d, branch, (z, 0.0, t))
