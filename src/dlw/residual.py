"""Independent finite-difference verification of candidate solutions.

The oracle consumes only point samples of (u, h) from an opaque sampler and
differences them with second-order central stencils; it shares no derivative
machinery with the seed or transform code.  Flux terms are sampled as
composite quantities (u*h is formed from samples, then differenced), so the
product rule is exercised rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .transform import FieldPair

__all__ = [
    "FieldSampler",
    "ReducedSampler",
    "StencilConfig",
    "GridSpec",
    "ResidualReport",
    "ConvergenceResult",
    "fd_residual_dlw",
    "fd_residual_1d",
    "convergence_order",
    "aggregate_residuals",
    "nan_max",
]

Point = tuple[float, float, float]
FieldSampler = Callable[[float, float, float], FieldPair]
ReducedSampler = Callable[[float, float], FieldPair]

# Residuals below this are treated as exact to roundoff.
ROUNDOFF_FLOOR = 1e-13


@dataclass(frozen=True)
class StencilConfig:
    """Second-order central differencing with a fixed step."""

    step: float = 5e-3

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Inclusive-endpoint evaluation grid; any count may be 1."""

    x0: float
    x1: float
    nx: int
    y0: float
    y1: float
    ny: int
    t0: float
    t1: float
    nt: int

    def __post_init__(self):
        for count in (self.nx, self.ny, self.nt):
            if count < 1:
                raise ValueError("grid counts must be >= 1")
        for lo, hi in ((self.x0, self.x1), (self.y0, self.y1), (self.t0, self.t1)):
            if hi < lo:
                raise ValueError("grid ranges must be ordered")

    def xs(self) -> list[float]:
        return _linspace(self.x0, self.x1, self.nx)

    def ys(self) -> list[float]:
        return _linspace(self.y0, self.y1, self.ny)

    def ts(self) -> list[float]:
        return _linspace(self.t0, self.t1, self.nt)

    def points(self) -> list[Point]:
        """Grid points with x varying fastest, then y, then t."""
        return [
            (x, y, t) for t in self.ts() for y in self.ys() for x in self.xs()
        ]

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nt


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    span = hi - lo
    return [lo + span * i / (count - 1) for i in range(count)]


def fd_residual_dlw(
    sampler: FieldSampler, point: Point, cfg: StencilConfig = StencilConfig()
) -> tuple[float, float]:
    """Finite-difference residuals of both equations at one point.

    r1 = u_yt + h_xx + (1/2)(u^2)_xy  with cross derivatives from the 4-point
    cross stencil; r2 = h_t + (u*h + u)_x + u_xxy with u_xxy formed as the
    x-second-difference of the y-first-difference.  Raises PoleError if any
    stencil sample hits a pole.
    """
    x, y, t = point
    s = cfg.step

    center = sampler(x, y, t)
    xp, xm = sampler(x + s, y, t), sampler(x - s, y, t)
    yp, ym = sampler(x, y + s, t), sampler(x, y - s, t)
    tp, tm = sampler(x, y, t + s), sampler(x, y, t - s)
    xpyp, xpym = sampler(x + s, y + s, t), sampler(x + s, y - s, t)
    xmyp, xmym = sampler(x - s, y + s, t), sampler(x - s, y - s, t)
    yptp, yptm = sampler(x, y + s, t + s), sampler(x, y + s, t - s)
    ymtp, ymtm = sampler(x, y - s, t + s), sampler(x, y - s, t - s)

    quarter = 1.0 / (4.0 * s * s)
    u_yt = (yptp.u - yptm.u - ymtp.u + ymtm.u) * quarter
    h_xx = (xp.h - 2.0 * center.h + xm.h) / (s * s)
    usq_xy = (
        xpyp.u * xpyp.u - xpym.u * xpym.u - xmyp.u * xmyp.u + xmym.u * xmym.u
    ) * quarter
    r1 = u_yt + h_xx + 0.5 * usq_xy

    h_t = (tp.h - tm.h) / (2.0 * s)
    flux = lambda fp: fp.u * fp.h + fp.u
    flux_x = (flux(xp) - flux(xm)) / (2.0 * s)
    u_y_at = lambda plus, minus: (plus.u - minus.u) / (2.0 * s)
    u_xxy = (
        u_y_at(xpyp, xpym) - 2.0 * u_y_at(yp, ym) + u_y_at(xmyp, xmym)
    ) / (s * s)
    r2 = h_t + flux_x + u_xxy
    return r1, r2


def fd_residual_1d(
    sampler: ReducedSampler, z: float, t: float, cfg: StencilConfig = StencilConfig()
) -> tuple[float, float]:
    """Residuals of the (1+1)-dimensional system at one point.

    r1 = u_t + h_z + (1/2)(u^2)_z; r2 = h_t + (u*h + u)_z + u_zzz with u_zzz
    from the z-second-difference of the z-first-difference (5-point central).
    """
    s = cfg.step
    zp, zm = sampler(z + s, t), sampler(z - s, t)
    zpp, zmm = sampler(z + 2.0 * s, t), sampler(z - 2.0 * s, t)
    tp, tm = sampler(z, t + s), sampler(z, t - s)

    u_t = (tp.u - tm.u) / (2.0 * s)
    h_z = (zp.h - zm.h) / (2.0 * s)
    usq_z = (zp.u * zp.u - zm.u * zm.u) / (2.0 * s)
    r1 = u_t + h_z + 0.5 * usq_z

    h_t = (tp.h - tm.h) / (2.0 * s)
    flux_z = ((zp.u * zp.h + zp.u) - (zm.u * zm.h + zm.u)) / (2.0 * s)
    u_zzz = (zpp.u - 2.0 * zp.u + 2.0 * zm.u - zmm.u) / (2.0 * s**3)
    r2 = h_t + flux_z + u_zzz
    return r1, r2


@dataclass(frozen=True)
class ConvergenceResult:
    """Residuals at two steps and the estimated order per equation.

    An order of None means both residuals sit at the roundoff floor: the
    sampler is exact to machine precision there, a success state.
    """

    coarse: tuple[float, float]
    fine: tuple[float, float]
    orders: tuple[float | None, float | None]


def convergence_order(
    sampler: FieldSampler, point: Point, steps: tuple[float, float] = (0.1, 0.05)
) -> ConvergenceResult:
    """Estimate the truncation order log2(|r(h)| / |r(h/2)|) per equation."""
    big, small = steps
    coarse = fd_residual_dlw(sampler, point, StencilConfig(big))
    fine = fd_residual_dlw(sampler, point, StencilConfig(small))
    orders = []
    for rc, rf in zip(coarse, fine):
        if abs(rc) < ROUNDOFF_FLOOR and abs(rf) < ROUNDOFF_FLOOR:
            orders.append(None)
        elif abs(rf) == 0.0:
            orders.append(math.inf)
        else:
            orders.append(math.log2(abs(rc) / abs(rf)))
    return ConvergenceResult(coarse=coarse, fine=fine, orders=tuple(orders))


@dataclass(frozen=True)
class ResidualReport:
    """Aggregated grid residuals: max/mean per equation, worst point, skips."""

    max_abs: tuple[float, float]
    mean_abs: tuple[float, float]
    worst_point: Point | None
    skipped: int
    evaluated: int
    grid: GridSpec
    stencil: StencilConfig

    def to_dict(self) -> dict:
        return {
            "max_abs": list(self.max_abs),
            "mean_abs": list(self.mean_abs),
            "worst_point": list(self.worst_point) if self.worst_point else None,
            "skipped": self.skipped,
            "evaluated": self.evaluated,
            "grid": {
                "x": [self.grid.x0, self.grid.x1, self.grid.nx],
                "y": [self.grid.y0, self.grid.y1, self.grid.ny],
                "t": [self.grid.t0, self.grid.t1, self.grid.nt],
            },
            "stencil": {"step": self.stencil.step},
        }


def nan_max(current: float, value: float) -> float:
    """max(current, value) with NaN above every number.

    The built-in max keeps `current` when `value` is NaN, which scores a NaN
    residual as 0 and lets it pass a threshold.
    """
    return value if value > current or value != value else current


def aggregate_residuals(
    points: Sequence[Point],
    results: Iterable[tuple[float, float] | None],
    grid: GridSpec,
    cfg: StencilConfig,
) -> ResidualReport:
    max_abs = [0.0, 0.0]
    sums = [0.0, 0.0]
    worst: Point | None = None
    worst_size = -1.0
    skipped = 0
    evaluated = 0
    for point, result in zip(points, results):
        if result is None:
            skipped += 1
            continue
        evaluated += 1
        r1, r2 = abs(result[0]), abs(result[1])
        sums[0] += r1
        sums[1] += r2
        max_abs[0] = nan_max(max_abs[0], r1)
        max_abs[1] = nan_max(max_abs[1], r2)
        size = nan_max(r1, r2)
        # the first NaN point is the worst; no later point displaces it
        if size > worst_size or (size != size and worst_size == worst_size):
            worst_size = size
            worst = point
    if evaluated:
        mean_abs = (sums[0] / evaluated, sums[1] / evaluated)
    else:
        mean_abs = (math.nan, math.nan)
        max_abs = [math.nan, math.nan]
    return ResidualReport(
        max_abs=(max_abs[0], max_abs[1]),
        mean_abs=mean_abs,
        worst_point=worst,
        skipped=skipped,
        evaluated=evaluated,
        grid=grid,
        stencil=cfg,
    )
