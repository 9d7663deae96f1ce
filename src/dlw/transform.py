"""Point maps from linear seeds to solutions of the dispersive long wave
system: the logarithmic-derivative transformation, the closed-form solitary
profiles it produces for single exponential kernels, and the constant
coefficient specialization. Each map takes `x, y, t` last, so bound to its
field or coefficients, e.g. `partial(transform_point, field)` or
`partial(exact_uh_const, a, c, d, branch)`, it is a sampler with no wrapper
frame; the closed forms call only `math`.
"""

from __future__ import annotations

import math

from .branch import Branch
from .errors import EvaluationError
from .seedlab.seeds import SeedField

__all__ = [
    "POLE_TOLERANCE",
    "PoleError",
    "transform_point",
    "exact_uh",
    "exact_uh_const",
    "one_plus_exp",
]

# |phi| below this fraction of 1 + |phi_x| + |phi_y| is a pole.
POLE_TOLERANCE = 1e-12


class PoleError(ArithmeticError):
    """The transformation is singular: phi vanishes at the sampled point."""

    def __init__(self, point: tuple[float, float, float], phi: float):
        super().__init__(f"pole at point {point}: phi = {phi!r}")
        self.point = point
        self.phi = phi


def transform_point(field: SeedField, x: float, y: float, t: float) -> tuple[float, float]:
    """u = sign*2*phi_x/phi, h = -2*phi_x*phi_y/phi^2 + 2*phi_xy/phi - 1.
    Raises the EvaluationError `seed: non-finite seed value at point (x, y, t)`
    where a partial is inf or nan, then PoleError at a pole."""
    phi, phi_x, phi_y, phi_xy = field.partials(x, y, t)
    isfinite = math.isfinite
    if not (isfinite(phi) and isfinite(phi_x) and isfinite(phi_y) and isfinite(phi_xy)):
        raise EvaluationError(f"seed: non-finite seed value at point {(x, y, t)}")
    if abs(phi) < POLE_TOLERANCE * (1.0 + abs(phi_x) + abs(phi_y)):
        raise PoleError((x, y, t), phi)
    u = field.branch.sign * 2.0 * phi_x / phi
    h = -2.0 * phi_x * phi_y / (phi * phi) + 2.0 * phi_xy / phi - 1.0
    return u, h


def exact_uh(
    a: tuple[float, float], b: tuple[float, float], branch: Branch, x: float, y: float, t: float
) -> tuple[float, float]:
    """Closed-form solution generated by the unit single-kernel seed.

    a and b are the (value, y-derivative) float pairs of the kernel
    coefficients at y, as `SeedField.duals(y)` returns them; y itself enters
    only through them. With theta = a(y)*x - sign*a(y)^2*t + b(y):
      u = sign*a*(1 + tanh(theta/2))
      h = (a/2)*(a'x - sign*2aa't + b')*sech(theta/2)^2 + a'*tanh(theta/2) + a' - 1
    """
    a, a_prime = a
    b, b_prime = b
    sign = branch.sign
    half = 0.5 * (a * x - sign * a**2 * t + b)
    theta_y = a_prime * x - sign * 2.0 * a * a_prime * t + b_prime
    th = math.tanh(half)
    # sech(half)^2 in exprlang.sech's float operations, overflow-safe
    e = math.exp(-abs(half))
    sh2 = (2.0 * e / (1.0 + e * e)) ** 2
    u = sign * a * (1.0 + th)
    h = 0.5 * a * theta_y * sh2 + a_prime * th + a_prime - 1.0
    return u, h


def exact_uh_const(
    a: float, c: float, d: float, branch: Branch, x: float, y: float, t: float
) -> tuple[float, float]:
    """Constant-coefficient solitary wave.

    u = sign*a*(1 + tanh(arg/2)), h = (a*c/2)*sech(arg/2)^2 - 1 with
    arg = a*x - sign*a^2*t + c*y + d.
    """
    sign = branch.sign
    half = 0.5 * (a * x - sign * a * a * t + c * y + d)
    # sech(half)^2 in exprlang.sech's float operations, overflow-safe
    e = math.exp(-abs(half))
    u = sign * a * (1.0 + math.tanh(half))
    h = 0.5 * a * c * (2.0 * e / (1.0 + e * e)) ** 2 - 1.0
    return u, h


def one_plus_exp(arg: float) -> float:
    """The seed 1 + exp(arg) behind the constant-coefficient solitary waves.

    Past exp's float range the seed rounds to inf, while u and h, formed
    through tanh and sech, stay finite.
    """
    try:
        return 1.0 + math.exp(arg)
    except OverflowError:
        return math.inf
