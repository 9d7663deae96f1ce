"""The two errors every command reports as one `error:` line and exit 2.

They live apart from the layers that raise them, so that `dlw.cli` can
catch both without importing the numeric layers.
"""

__all__ = ["ConfigError", "EvaluationError"]


class ConfigError(ValueError):
    """Invalid scenario document or flag; the message names where it is."""


class EvaluationError(ArithmeticError):
    """A float evaluation failed. A coefficient expression divided by zero,
    overflowed or gave a non-finite value; a seed kernel's constants passed
    the float range (as a `CoefficientError`, which names the seed member);
    or the summed seed, or one of its partials, was not finite at a point."""
