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
    "StencilConfig",
    "GridSpec",
    "ResidualReport",
    "ConvergenceResult",
    "fd_residual_dlw",
    "fd_residual_1d",
    "convergence_order",
    "aggregate_residuals",
]

Point = tuple[float, float, float]
FieldSampler = Callable[[float, float, float], FieldPair]

# Residuals below this are treated as exact to roundoff.
ROUNDOFF_FLOOR = 1e-13


@dataclass(frozen=True)
class StencilConfig:
    """Second-order central differencing with a fixed step."""

    step: float = 5e-3

    def __post_init__(self):
        s = self.step
        if not s > 0:
            raise ValueError("step must be positive")
        # the stencils divide by s*s and s**3; s**3 raises past about 5.6e102
        try:
            usable = 0.0 < s * s < math.inf and 0.0 < s**3 < math.inf
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(
                f"step {s!r} is out of range: its square and cube must be "
                "nonzero and finite"
            )


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
        for axis, lo, hi, count in (
            ("x", self.x0, self.x1, self.nx),
            ("y", self.y0, self.y1, self.ny),
            ("t", self.t0, self.t1, self.nt),
        ):
            if count < 1:
                raise ValueError(f"{axis} count must be >= 1")
            if hi < lo:
                raise ValueError(f"{axis} range must be ordered")

    def points(self) -> list[Point]:
        """Grid points with x varying fastest, then y, then t."""
        xs = _linspace(self.x0, self.x1, self.nx)
        ys = _linspace(self.y0, self.y1, self.ny)
        ts = _linspace(self.t0, self.t1, self.nt)
        return [(x, y, t) for t in ts for y in ys for x in xs]

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
    flux_x = ((xp.u * xp.h + xp.u) - (xm.u * xm.h + xm.u)) / (2.0 * s)
    # each y-difference is scaled before it is combined
    u_xxy = (
        (xpyp.u - xpym.u) / (2.0 * s)
        - 2.0 * ((yp.u - ym.u) / (2.0 * s))
        + (xmyp.u - xmym.u) / (2.0 * s)
    ) / (s * s)
    r2 = h_t + flux_x + u_xxy
    return r1, r2


def fd_residual_1d(
    sampler: FieldSampler, point: Point, cfg: StencilConfig = StencilConfig()
) -> tuple[float, float]:
    """Residuals of the (1+1)-dimensional system at one point (z, y, t).

    The sampler is read along z at the point's own y only.
    r1 = u_t + h_z + (1/2)(u^2)_z; r2 = h_t + (u*h + u)_z + u_zzz with u_zzz
    from the z-second-difference of the z-first-difference (5-point central).
    """
    z, y, t = point
    s = cfg.step
    zp, zm = sampler(z + s, y, t), sampler(z - s, y, t)
    zpp, zmm = sampler(z + 2.0 * s, y, t), sampler(z - 2.0 * s, y, t)
    tp, tm = sampler(z, y, t + s), sampler(z, y, t - s)

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

    def passes(self, threshold: float) -> bool:
        """PASS: some point was evaluated and both maxima are within threshold.

        A NaN maximum (see nan_max) compares false and so fails.
        """
        return (
            self.evaluated > 0
            and self.max_abs[0] <= threshold
            and self.max_abs[1] <= threshold
        )


def nan_max(current: float, value: float) -> float:
    """max(current, value) with NaN above every number.

    The built-in max keeps `current` when `value` is NaN, which scores a NaN
    residual as 0 and lets it pass a threshold.
    """
    return value if value > current or value != value else current


def aggregate_residuals(
    points: Sequence[Point],
    results: Iterable[tuple[float, float] | None],
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
    )
