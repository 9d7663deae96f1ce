"""The two errors every command reports as one `error:` line and exit 2.

They live apart from the layers that raise them, so that `dlw.cli` can
catch both without importing the numeric layers.
"""

__all__ = ["ConfigError", "EvaluationError"]


class ConfigError(ValueError):
    """Invalid scenario document or flag; the message names where it is."""


class EvaluationError(ArithmeticError):
    """A float evaluation failed: a coefficient expression divided by zero,
    overflowed or gave a non-finite value; a kernel's a^2 or exponent passed
    the float range; or the summed seed, or one of its partials, was not
    finite at a point. Past the expression layer the message is named from
    `seed` (`seed.kernels[0].a at y = ...`, `seed: ... at point ...`)."""
