"""Exact solutions of the (2+1)-dimensional dispersive long wave system.

Solutions of the linear constraint phi_t +/- phi_xx = 0 map to exact
solutions (u, h) of the nonlinear system through logarithmic derivatives of
phi.  This package re-derives that transformation symbolically in exact
rational arithmetic, evaluates seed fields and closed-form solitary waves,
and certifies every produced solution with an independent finite-difference
residual oracle.
"""

from .balance import derive
from .jetcalc import Branch
from .residual import GridSpec, StencilConfig, fd_residual_dlw
from .scenario import evaluate_grid
from .seedlab import Kernel, SeedField, SeedSpec
from .transform import transform_point

__version__ = "0.1.0"

# What the README's library example imports; everything else is reached
# through its module.
__all__ = [
    "Branch",
    "GridSpec",
    "Kernel",
    "SeedField",
    "SeedSpec",
    "StencilConfig",
    "derive",
    "evaluate_grid",
    "fd_residual_dlw",
    "transform_point",
    "__version__",
]
