"""Independent finite-difference verification of candidate solutions.

The oracle consumes only point samples of (u, h) from an opaque sampler and
differences them with second-order central stencils; it shares no derivative
machinery with the seed or transform code.  Flux terms are sampled as
composite quantities (u*h is formed from samples, then differenced), so the
product rule is exercised rather than assumed.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

__all__ = [
    "FieldSampler",
    "StencilConfig",
    "GridSpec",
    "ResidualReport",
    "Terms",
    "fd_residual_dlw",
    "fd_residual_1d",
    "ResidualFold",
    "aggregate_residuals",
]

Point = tuple[float, float, float]
FieldSampler = Callable[[float, float, float], tuple[float, float]]
# A stencil's six terms, three per equation: r1 is the sum of the first three
# and r2 of the last three, each added left to right.
Terms = tuple[float, float, float, float, float, float]


class _Checked:
    """Mixin for a record whose constructor checks its fields: `_replace`
    and `_make` build through the constructor too, so no record escapes
    `_check`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _StencilFields(NamedTuple):
    step: float = 5e-3


class StencilConfig(_Checked, _StencilFields):
    """Second-order central differencing with a fixed step."""

    __slots__ = ()

    def _check(self):
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


class _GridFields(NamedTuple):
    x: tuple[float, float, int]
    y: tuple[float, float, int]
    t: tuple[float, float, int]


class GridSpec(_Checked, _GridFields):
    """Inclusive-endpoint evaluation grid, one (lo, hi, count) per axis as a
    scenario document gives it; any count may be 1."""

    __slots__ = ()

    def _check(self):
        for axis, (lo, hi, count) in zip("xyt", (self.x, self.y, self.t)):
            if count < 1:
                raise ValueError(f"{axis} count must be >= 1")
            if hi < lo:
                raise ValueError(f"{axis} range must be ordered")
        for axis, coords in zip("xyt", self._axes()):
            if not all(map(math.isfinite, coords)):
                raise ValueError(f"{axis} range gives a non-finite coordinate")

    def _axes(self) -> tuple[list[float], list[float], list[float]]:
        """The coordinates the grid takes on x, y and t."""
        return tuple(_linspace(*span) for span in (self.x, self.y, self.t))

    def points(self) -> Iterator[Point]:
        """Grid points with x varying fastest, then y, then t, made one at a
        time as they are read."""
        xs, ys, ts = self._axes()
        return ((x, y, t) for t in ts for y in ys for x in xs)

    def check_step(self, step: float) -> None:
        """Raise ValueError if `step` leaves some grid coordinate unchanged.

        Where c + step == c, every stencil sample equals its centre and the
        residual reads 0 whatever the fields are.
        """
        for coords in self._axes():
            for c in coords:
                if c + step == c or c - step == c:
                    raise ValueError(
                        f"step {step!r} leaves the coordinate {c!r} unchanged"
                    )

    @property
    def size(self) -> int:
        return self.x[2] * self.y[2] * self.t[2]


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    span = hi - lo
    return [lo + span * i / (count - 1) for i in range(count)]


def fd_residual_dlw(
    sampler: FieldSampler, point: Point, cfg: StencilConfig = StencilConfig()
) -> Terms:
    """Finite-difference terms of both equations at one point:
    (u_yt, h_xx, (1/2)(u^2)_xy, h_t, (u*h + u)_x, u_xxy).

    r1 = u_yt + h_xx + (1/2)(u^2)_xy with cross derivatives from the 4-point
    cross stencil; r2 = h_t + (u*h + u)_x + u_xxy with u_xxy formed as the
    x-second-difference of the y-first-difference.  Raises PoleError if any
    stencil sample hits a pole.
    """
    x, y, t = point
    s = cfg.step

    _, center_h = sampler(x, y, t)
    (xp_u, xp_h), (xm_u, xm_h) = sampler(x + s, y, t), sampler(x - s, y, t)
    (yp_u, _), (ym_u, _) = sampler(x, y + s, t), sampler(x, y - s, t)
    (_, tp_h), (_, tm_h) = sampler(x, y, t + s), sampler(x, y, t - s)
    (xpyp_u, _), (xpym_u, _) = sampler(x + s, y + s, t), sampler(x + s, y - s, t)
    (xmyp_u, _), (xmym_u, _) = sampler(x - s, y + s, t), sampler(x - s, y - s, t)
    (yptp_u, _), (yptm_u, _) = sampler(x, y + s, t + s), sampler(x, y + s, t - s)
    (ymtp_u, _), (ymtm_u, _) = sampler(x, y - s, t + s), sampler(x, y - s, t - s)

    quarter = 1.0 / (4.0 * s * s)
    u_yt = (yptp_u - yptm_u - ymtp_u + ymtm_u) * quarter
    h_xx = (xp_h - 2.0 * center_h + xm_h) / (s * s)
    usq_xy = (
        xpyp_u * xpyp_u - xpym_u * xpym_u - xmyp_u * xmyp_u + xmym_u * xmym_u
    ) * quarter

    h_t = (tp_h - tm_h) / (2.0 * s)
    flux_x = ((xp_u * xp_h + xp_u) - (xm_u * xm_h + xm_u)) / (2.0 * s)
    # each y-difference is scaled before it is combined
    u_xxy = (
        (xpyp_u - xpym_u) / (2.0 * s)
        - 2.0 * ((yp_u - ym_u) / (2.0 * s))
        + (xmyp_u - xmym_u) / (2.0 * s)
    ) / (s * s)
    return u_yt, h_xx, 0.5 * usq_xy, h_t, flux_x, u_xxy


def fd_residual_1d(
    sampler: FieldSampler, point: Point, cfg: StencilConfig = StencilConfig()
) -> Terms:
    """Terms of the (1+1)-dimensional system at one point (z, y, t):
    (u_t, h_z, (1/2)(u^2)_z, h_t, (u*h + u)_z, u_zzz).

    The sampler is read along z at the point's own y only.
    r1 = u_t + h_z + (1/2)(u^2)_z; r2 = h_t + (u*h + u)_z + u_zzz with u_zzz
    from the z-second-difference of the z-first-difference (5-point central).
    """
    z, y, t = point
    s = cfg.step
    (zp_u, zp_h), (zm_u, zm_h) = sampler(z + s, y, t), sampler(z - s, y, t)
    (zpp_u, _), (zmm_u, _) = sampler(z + 2.0 * s, y, t), sampler(z - 2.0 * s, y, t)
    (tp_u, tp_h), (tm_u, tm_h) = sampler(z, y, t + s), sampler(z, y, t - s)

    u_t = (tp_u - tm_u) / (2.0 * s)
    h_z = (zp_h - zm_h) / (2.0 * s)
    usq_z = (zp_u * zp_u - zm_u * zm_u) / (2.0 * s)

    h_t = (tp_h - tm_h) / (2.0 * s)
    flux_z = ((zp_u * zp_h + zp_u) - (zm_u * zm_h + zm_u)) / (2.0 * s)
    u_zzz = (zpp_u - 2.0 * zp_u + 2.0 * zm_u - zmm_u) / (2.0 * s**3)
    return u_t, h_z, 0.5 * usq_z, h_t, flux_z, u_zzz


class ResidualReport(NamedTuple):
    """Aggregated grid residuals: max/mean per equation, worst point, skips."""

    max_abs: tuple[float, float]
    mean_abs: tuple[float, float]
    worst_point: Point | None
    skipped: int
    evaluated: int

    def verdict(self, threshold: float) -> str:
        """PASS when some point was evaluated, both maxima are within
        threshold and neither mean is NaN, else FAIL. A NaN maximum (see
        nan_max) compares false and so fails; a NaN residual also makes its
        mean NaN, which fails on its own."""
        return "PASS" if (
            self.evaluated > 0
            and self.max_abs[0] <= threshold
            and self.max_abs[1] <= threshold
            and self.mean_abs[0] == self.mean_abs[0]
            and self.mean_abs[1] == self.mean_abs[1]
        ) else "FAIL"


def nan_max(current: float, value: float) -> float:
    """max(current, value) with NaN above every number.

    The built-in max keeps `current` when `value` is NaN, which scores a NaN
    residual as 0 and lets it pass a threshold.
    """
    return value if value > current or value != value else current


class ResidualFold:
    """The running aggregate of a grid walk, one point at a time: both sums,
    added left to right, both nan_max maxima, the worst point, and the
    evaluated and skipped counts. `aggregate_residuals` reads it as a
    ResidualReport, so a walk keeps no point once it has passed it."""

    __slots__ = ("sum1", "sum2", "max1", "max2", "worst", "worst_size",
                 "evaluated", "skipped")

    def __init__(self):
        self.sum1 = self.sum2 = self.max1 = self.max2 = 0.0
        self.worst: Point | None = None
        self.worst_size = -1.0
        self.evaluated = self.skipped = 0

    def add(self, point: Point, r1: float, r2: float) -> None:
        """Fold in an evaluated point and its two residuals."""
        r1, r2 = abs(r1), abs(r2)
        self.evaluated += 1
        self.sum1 += r1
        self.sum2 += r2
        self.max1 = nan_max(self.max1, r1)
        self.max2 = nan_max(self.max2, r2)
        size = nan_max(r1, r2)
        worst_size = self.worst_size
        # the first NaN point is the worst; no later point displaces it
        if size > worst_size or (size != size and worst_size == worst_size):
            self.worst_size = size
            self.worst = point

    def skip(self) -> None:
        """Count a point whose stencil met a pole."""
        self.skipped += 1


def aggregate_residuals(fold: ResidualFold) -> ResidualReport:
    """The report of a finished walk. With no point evaluated, both maxima
    and both means are NaN, so the report fails every threshold."""
    evaluated = fold.evaluated
    if evaluated:
        max_abs = (fold.max1, fold.max2)
        mean_abs = (fold.sum1 / evaluated, fold.sum2 / evaluated)
    else:
        max_abs = mean_abs = (math.nan, math.nan)
    return ResidualReport(
        max_abs=max_abs,
        mean_abs=mean_abs,
        worst_point=fold.worst,
        skipped=fold.skipped,
        evaluated=evaluated,
    )
