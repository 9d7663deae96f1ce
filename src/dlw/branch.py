"""The sign choice that couples the seed constraint to the solution.

Both halves of the package read it: the exact symbolic layers (`jetcalc`,
`balance`) and the numeric ones (`scenario`, `seedlab`, `transform`). It
lives in its own module, which imports only `enum`, so that neither half
loads the other to get it.
"""

from enum import Enum

__all__ = ["Branch"]


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
