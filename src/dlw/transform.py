"""Point maps from linear seeds to solutions of the dispersive long wave
system: the logarithmic-derivative transformation, and the closed-form
solitary profiles and seeds of one unit exponential kernel and of its
constant-coefficient specialization. Each map takes `x, y, t` last, so bound
to its field or coefficients, e.g. `partial(exact_uh, field)` or
`partial(exact_phi_const, a, c, d, branch)`, it is a sampler or a phi column
with no wrapper frame; the closed forms call only `math` and `field.duals`.
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
    "exact_phi",
    "exact_phi_const",
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


def exact_uh(field: SeedField, x: float, y: float, t: float) -> tuple[float, float]:
    """Closed-form solution generated by the unit single-kernel seed
    1 + exp(theta), theta = a(y)*x - sign*a(y)^2*t + b(y).

    `field` holds that one kernel: its (value, y-derivative) float pairs of
    a and b come from `field.duals(y)` and its sign from `field.branch`, so
    y enters only through them.
      u = sign*a*(1 + tanh(theta/2))
      h = (a/2)*(a'x - sign*2aa't + b')*sech(theta/2)^2 + a'*tanh(theta/2) + a' - 1
    """
    (a, a_prime), (b, b_prime) = field.duals(y)
    sign = field.branch.sign
    half = 0.5 * (a * x - sign * a**2 * t + b)
    theta_y = a_prime * x - sign * 2.0 * a * a_prime * t + b_prime
    th = math.tanh(half)
    # sech(half)^2 in exprlang.sech's float operations, overflow-safe
    e = math.exp(-abs(half))
    sh2 = (2.0 * e / (1.0 + e * e)) ** 2
    u = sign * a * (1.0 + th)
    h = 0.5 * a * theta_y * sh2 + a_prime * th + a_prime - 1.0
    return u, h


def exact_phi(field: SeedField, x: float, y: float, t: float) -> float:
    """The seed 1 + exp(theta) of exact_uh, read from the same pairs. Past
    exp's float range it rounds to inf, while u and h, formed through tanh
    and sech, stay finite."""
    (a, _), (b, _) = field.duals(y)
    try:
        return 1.0 + math.exp(a * x - field.branch.sign * a**2 * t + b)
    except OverflowError:
        return math.inf


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


def exact_phi_const(
    a: float, c: float, d: float, branch: Branch, x: float, y: float, t: float
) -> float:
    """The seed 1 + exp(arg) of exact_uh_const, inf past exp's float range."""
    try:
        return 1.0 + math.exp(a * x - branch.sign * a * a * t + c * y + d)
    except OverflowError:
        return math.inf
