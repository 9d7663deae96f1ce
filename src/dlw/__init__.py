"""Exact solutions of the (2+1)-dimensional dispersive long wave system.

Solutions of the linear constraint phi_t +/- phi_xx = 0 map to exact
solutions (u, h) of the nonlinear system through logarithmic derivatives of
phi.  This package re-derives that transformation symbolically in exact
rational arithmetic, evaluates seed fields and closed-form solitary waves,
and certifies every produced solution with an independent finite-difference
residual oracle.
"""

from .balance import (
    BalanceExponents,
    BalanceReport,
    DerivationCheck,
    DerivationError,
    derive,
    solve_balance_exponents,
)
from .jetcalc import (
    Branch,
    CoeffSymbol,
    JetIndex,
    JetPoly,
    Monomial,
    degree_decompose,
    reduce_heat,
    specialize_log,
    total_derivative,
)
from .residual import (
    ConvergenceResult,
    GridSpec,
    ResidualReport,
    StencilConfig,
    convergence_order,
    fd_residual_1d,
    fd_residual_dlw,
    grid_report,
)
from .seedlab import (
    Dual,
    HeatPolynomial,
    Kernel,
    SeedField,
    SeedSpec,
    eval_dual,
    heat_residual,
    make_seed,
    parse_coeff_expr,
)
from .transform import (
    FieldPair,
    PoleError,
    TransformOptions,
    exact_uh,
    exact_uh_const,
    reduce_1plus1,
    transform_point,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceExponents",
    "BalanceReport",
    "Branch",
    "CoeffSymbol",
    "ConvergenceResult",
    "DerivationCheck",
    "DerivationError",
    "Dual",
    "FieldPair",
    "GridSpec",
    "HeatPolynomial",
    "JetIndex",
    "JetPoly",
    "Kernel",
    "Monomial",
    "PoleError",
    "ResidualReport",
    "SeedField",
    "SeedSpec",
    "StencilConfig",
    "TransformOptions",
    "convergence_order",
    "degree_decompose",
    "derive",
    "eval_dual",
    "exact_uh",
    "exact_uh_const",
    "fd_residual_1d",
    "fd_residual_dlw",
    "grid_report",
    "heat_residual",
    "make_seed",
    "parse_coeff_expr",
    "reduce_1plus1",
    "reduce_heat",
    "solve_balance_exponents",
    "specialize_log",
    "total_derivative",
    "transform_point",
    "__version__",
]
