"""The two errors every command reports as one `error:` line and exit 2,
and `shown` and `cut`, the one rendering of a document value and of a
document key inside such a line.

They live apart from the layers that raise them, so that `dlw.cli` can
catch both without importing the numeric layers.
"""

__all__ = ["ConfigError", "EvaluationError", "cut", "shown"]

# the most characters of a value's repr that an error message echoes, and
# of the path that names a member nested in a document or of a file name
SHOWN = 60
PATH_SHOWN = 2 * SHOWN


def cut(text: str, limit: int = SHOWN) -> str:
    """text, cut to its first `limit` characters and "..." if longer: how an
    error line names a document's key, or its path, where it prints it as it
    stands."""
    return text if len(text) <= limit else text[:limit] + "..."


def shown(value) -> str:
    """repr(value), cut to its first SHOWN characters and "..." if longer,
    so that no value a document holds makes an error line long."""
    return cut(repr(value))


class ConfigError(ValueError):
    """Invalid scenario document or flag; the message names where it is."""


class EvaluationError(ArithmeticError):
    """A float evaluation failed: a coefficient expression divided by zero,
    overflowed or gave a non-finite value; a kernel's a^2 or exponent passed
    the float range; or the summed seed, or one of its partials, was not
    finite at a point. Past the expression layer the message is named from
    `seed` (`seed.kernels[0].a at y = ...`, `seed: ... at point ...`)."""
