"""Point maps from linear seeds to solutions of the dispersive long wave
system: the logarithmic-derivative transformation, and the closed-form
solitary profiles and seeds of one unit exponential kernel and of its
constant-coefficient specialization. Each map takes `x, y, t` last, so bound
to its field or wave, e.g. `partial(exact_uh, field)` or
`partial(exact_phi_const, const_wave(a, c, d, branch))`, it is a sampler or a
phi column with no wrapper frame; the closed forms call only `math` and
`field.duals`, which hands them the table slot of the field's one kernel.
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
    "const_wave",
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
    u = field.sign_2 * phi_x / phi
    h = -2.0 * phi_x * phi_y / (phi * phi) + 2.0 * phi_xy / phi - 1.0
    return u, h


def exact_uh(field: SeedField, x: float, y: float, t: float) -> tuple[float, float]:
    """Closed-form solution generated by the unit single-kernel seed
    1 + exp(theta), theta = a(y)*x - sign*a(y)^2*t + b(y).

    `field` holds that one kernel: a, a', b, b' and the products sign*a^2
    and sign*2aa', formed once per y, come from its slot `field.duals(y)`,
    and the sign from `field.branch`, so y enters only through them.
      u = sign*a*(1 + tanh(theta/2))
      h = (a/2)*(a'x - sign*2aa't + b')*sech(theta/2)^2 + a'*tanh(theta/2) + a' - 1
    """
    _, a, a_prime, b, b_prime, sign_a2, sign_2aa_prime = field.duals(y)
    sign = field.branch.sign
    half = 0.5 * (a * x - sign_a2 * t + b)
    theta_y = a_prime * x - sign_2aa_prime * t + b_prime
    th = math.tanh(half)
    # sech(half)^2 in exprlang.sech's float operations, overflow-safe
    e = math.exp(-abs(half))
    sh2 = (2.0 * e / (1.0 + e * e)) ** 2
    u = sign * a * (1.0 + th)
    h = 0.5 * a * theta_y * sh2 + a_prime * th + a_prime - 1.0
    return u, h


def exact_phi(field: SeedField, x: float, y: float, t: float) -> float:
    """The seed 1 + exp(theta) of exact_uh, read from the same slot. Past
    exp's float range it rounds to inf, while u and h, formed through tanh
    and sech, stay finite."""
    _, a, _, b, _, sign_a2, _ = field.duals(y)
    try:
        return 1.0 + math.exp(a * x - sign_a2 * t + b)
    except OverflowError:
        return math.inf


def const_wave(a: float, c: float, d: float, branch: Branch) -> tuple[float, ...]:
    """The wave (a, c, d, sign*a*a, sign*a, a*c/2) that exact_uh_const and
    exact_phi_const read: the products that do not depend on x, y or t,
    formed once per run in the operand order of the inline formulas
    (`sign*a*a*t`, `0.5*a*c`), so each sample rounds exactly as they do."""
    sign = branch.sign
    return (a, c, d, sign * a * a, sign * a, 0.5 * a * c)


def exact_uh_const(wave: tuple[float, ...], x: float, y: float, t: float) -> tuple[float, float]:
    """Constant-coefficient solitary wave of `const_wave(a, c, d, branch)`.

    u = sign*a*(1 + tanh(arg/2)), h = (a*c/2)*sech(arg/2)^2 - 1 with
    arg = a*x - sign*a^2*t + c*y + d.
    """
    a, c, d, sign_a2, sign_a, half_ac = wave
    half = 0.5 * (a * x - sign_a2 * t + c * y + d)
    # sech(half)^2 in exprlang.sech's float operations, overflow-safe
    e = math.exp(-abs(half))
    u = sign_a * (1.0 + math.tanh(half))
    h = half_ac * (2.0 * e / (1.0 + e * e)) ** 2 - 1.0
    return u, h


def exact_phi_const(wave: tuple[float, ...], x: float, y: float, t: float) -> float:
    """The seed 1 + exp(arg) of exact_uh_const, inf past exp's float range."""
    a, c, d, sign_a2, _, _ = wave
    try:
        return 1.0 + math.exp(a * x - sign_a2 * t + c * y + d)
    except OverflowError:
        return math.inf
