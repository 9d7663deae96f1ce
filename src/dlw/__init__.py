"""Exact solutions of the (2+1)-dimensional dispersive long wave system.

Solutions of the linear constraint phi_t +/- phi_xx = 0 map to exact
solutions (u, h) of the nonlinear system through logarithmic derivatives of
phi.  This package re-derives that transformation symbolically in exact
rational arithmetic, evaluates seed fields and closed-form solitary waves,
and certifies every produced solution with an independent finite-difference
residual oracle.
"""

import importlib

__version__ = "0.1.0"

# What the README's library example imports, name -> the module that
# defines it; everything else is reached through its module. Each name is
# imported from its module when first read, so `import dlw.cli` loads no
# layer that its command does not run. Nothing is cached here: every read
# returns the defining module's current binding, so a function patched
# there and later restored is never kept in this module.
_SOURCES = {
    "Branch": "branch",
    "GridSpec": "residual",
    "Kernel": "seedlab.seeds",
    "SeedField": "seedlab.seeds",
    "SeedSpec": "seedlab.seeds",
    "StencilConfig": "residual",
    "derive": "balance",
    "evaluate_grid": "scenario",
    "fd_residual_dlw": "residual",
    "parse_coeff_expr": "seedlab.exprlang",
    "transform_point": "transform",
}
__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{source}", __name__), name)
