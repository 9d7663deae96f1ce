"""Tests for the finite-difference residual oracle."""

import math
import random
import sys
import threading
from functools import partial

import pytest
import sympy as sp

from dlw.branch import Branch
from dlw.residual import (
    GridSpec,
    ResidualFold,
    ResidualReport,
    StencilConfig,
    aggregate_residuals,
    fd_residual_1d,
    fd_residual_dlw,
)
from dlw.scenario import evaluate_grid
from dlw.seedlab.exprlang import parse_coeff_expr
from dlw.seedlab.seeds import HeatPolynomial, Kernel, SeedField, SeedSpec
from dlw.transform import (
    PoleError,
    exact_uh_const,
    transform_point,
)

P = parse_coeff_expr
CFG = StencilConfig(5e-3)


def vacuum_sampler(x, y, t):
    return 0.0, -1.0


def soliton_sampler(x, y, t):
    return exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, x, y, t)


def corrupted_sampler(x, y, t):
    u, h = soliton_sampler(x, y, t)
    return u, h + 0.01 * x * x


def residuals(terms):
    """(r1, r2) from a stencil's six terms, summed as evaluate_grid sums them."""
    a1, b1, c1, a2, b2, c2 = terms
    return a1 + b1 + c1, a2 + b2 + c2


def grid_residuals(sampler, grid):
    """The residual report of evaluate_grid, with a phi column of zeros."""
    return evaluate_grid(grid, CFG, fd_residual_dlw, sampler, lambda x, y, t: 0.0)


# -- point residuals -----------------------------------------------------------


def test_vacuum_residual_is_exactly_zero():
    assert fd_residual_dlw(vacuum_sampler, (0.2, -0.4, 0.8), CFG) == (0.0,) * 6


def test_soliton_point_residual_truncation_scale():
    r1, r2 = residuals(fd_residual_dlw(soliton_sampler, (0.3, -0.2, 0.1), CFG))
    # second-order truncation at step 5e-3; acceptance tolerance 1e-5
    assert abs(r1) <= 1e-5
    assert abs(r2) <= 1e-5


def test_corrupted_sampler_flagged():
    r1, _ = residuals(fd_residual_dlw(corrupted_sampler, (0.5, 0.5, 0.5), CFG))
    # the perturbation contributes exactly d2x(0.01*x^2) = 0.02 to r1
    assert 0.018 <= abs(r1) <= 0.022
    assert abs(r1) >= 1e-3


def test_pole_in_stencil_raises():
    field = SeedField(
        SeedSpec(branch=Branch.PLUS, poly=HeatPolynomial(P("1"), P("0"), P("0")))
    )
    sampler = partial(transform_point, field)
    with pytest.raises(PoleError):
        fd_residual_dlw(sampler, (0.0, 0.0, 0.0), CFG)


# -- 1d residuals -----------------------------------------------------------------


def test_reduced_fields_satisfy_1d_system():
    def sampler(z, y, t):
        return exact_uh_const(1.0, 1.0, 0.0, Branch.PLUS, z, y, t)

    rng = random.Random(3)
    for _ in range(25):
        z, t = rng.uniform(-4, 4), rng.uniform(0, 1)
        r1, r2 = residuals(fd_residual_1d(sampler, (z, 0.0, t), CFG))
        assert abs(r1) <= 1e-5
        assert abs(r2) <= 1e-5


def test_vacuum_1d_exact_zero():
    assert fd_residual_1d(vacuum_sampler, (0.1, 0.0, 0.7), CFG) == (0.0,) * 6


def test_1d_stencil_samples_six_offsets_at_the_points_y():
    samples = []

    def recording_sampler(x, y, t):
        samples.append((x, y, t))
        return 0.0, -1.0

    z, y, t = 0.1, 0.25, 0.7
    s = CFG.step
    fd_residual_1d(recording_sampler, (z, y, t), CFG)
    assert sorted(samples) == sorted(
        [
            (z + s, y, t),
            (z - s, y, t),
            (z + 2.0 * s, y, t),
            (z - 2.0 * s, y, t),
            (z, y, t + s),
            (z, y, t - s),
        ]
    )


def test_small_amplitude_1d_residuals():
    def sampler(z, y, t):
        return exact_uh_const(0.5, 0.5, 0.0, Branch.PLUS, z, y, t)

    rng = random.Random(13)
    worst = 0.0
    for _ in range(50):
        z, t = rng.uniform(-5, 5), rng.uniform(0, 1)
        r1, r2 = residuals(fd_residual_1d(sampler, (z, 0.0, t), CFG))
        worst = max(worst, abs(r1), abs(r2))
    assert worst <= 1e-6


# -- per-term order -----------------------------------------------------------------

ORDER_STEPS = (1e-2, 5e-3)


def exact_terms(a, c, d, branch, point, one_d=False):
    """The six stencil terms of the exact-const wave, differentiated by sympy.

    With one_d, x is the 1-d coordinate z, c must equal a and the terms are
    those of fd_residual_1d at the point's y = 0.
    """
    x, y, t = sp.symbols("x y t")
    a, c, d = (sp.Rational(repr(value)) for value in (a, c, d))
    arg = a * x - branch.sign * a * a * t + c * (0 if one_d else y) + d
    u = branch.sign * a * (1 + sp.tanh(arg / 2))
    h = a * c / 2 * sp.sech(arg / 2) ** 2 - 1
    if one_d:
        first = (sp.diff(u, t), sp.diff(h, x), sp.diff(u * u, x) / 2)
        second = (sp.diff(h, t), sp.diff(u * h + u, x), sp.diff(u, x, 3))
    else:
        first = (sp.diff(u, y, t), sp.diff(h, x, 2), sp.diff(u * u, x, y) / 2)
        second = (sp.diff(h, t), sp.diff(u * h + u, x), sp.diff(u, x, 2, y))
    at = dict(zip((x, y, t), point))
    return [float(term.subs(at).evalf(30)) for term in first + second]


def term_errors(stencil, sampler, point, exact):
    """Per term, |stencil - exact| at each of ORDER_STEPS."""
    by_step = [stencil(sampler, point, StencilConfig(step)) for step in ORDER_STEPS]
    return [[abs(terms[k] - exact[k]) for terms in by_step] for k in range(6)]


@pytest.mark.parametrize("branch", (Branch.PLUS, Branch.MINUS), ids=("plus", "minus"))
@pytest.mark.parametrize(
    "stencil, a, c, d, point",
    [
        (fd_residual_dlw, 1.0, 0.8, 0.1, (0.3, -0.2, 0.1)),
        (fd_residual_1d, 0.7, 0.7, 0.3, (0.3, 0.0, 0.1)),
    ],
    ids=("dlw", "1d"),
)
def test_every_term_is_second_order(stencil, a, c, d, point, branch):
    def sampler(x, y, t):
        return exact_uh_const(a, c, d, branch, x, y, t)

    exact = exact_terms(a, c, d, branch, point, one_d=stencil is fd_residual_1d)
    for k, (coarse, fine) in enumerate(term_errors(stencil, sampler, point, exact)):
        # halving the step quarters a second-order error
        assert 3.0 <= coarse / fine <= 5.0, (k, coarse, fine)


def test_a_near_miss_term_does_not_converge():
    point = (0.3, -0.2, 0.1)

    def near_miss(x, y, t):
        u, h = exact_uh_const(1.0, 0.8, 0.1, Branch.PLUS, x, y, t)
        return u, h + 0.01 * x * x

    exact = exact_terms(1.0, 0.8, 0.1, Branch.PLUS, point)
    coarse, fine = term_errors(fd_residual_dlw, near_miss, point, exact)[1]
    # h_xx keeps the perturbation's 0.02 at every step: order 0, not 2
    assert coarse == pytest.approx(0.02, abs=1e-4)
    assert fine == pytest.approx(0.02, abs=1e-4)
    assert not 3.0 <= coarse / fine <= 5.0


# -- grid reports ---------------------------------------------------------------------


def kernel_field(branch=Branch.PLUS):
    return SeedField(
        SeedSpec(branch=branch, constant_term=1.0, kernels=(Kernel(1.0, P("1"), P("1*y")),))
    )


def test_grid_report_single_kernel():
    grid = GridSpec((-3, 3, 21), (-3, 3, 21), (0, 1, 5))
    report = grid_residuals(partial(transform_point, kernel_field()), grid)
    assert report.skipped == 0
    assert report.evaluated == grid.size
    assert max(report.max_abs) <= 1e-5
    assert report.worst_point is not None
    assert report.mean_abs[0] <= report.max_abs[0]
    assert report.mean_abs[1] <= report.max_abs[1]


def test_grid_report_two_kernel_family():
    field = SeedField(
        SeedSpec(
            branch=Branch.PLUS,
            constant_term=1.0,
            kernels=(
                Kernel(1.0, P("1"), P("0.3*y")),
                Kernel(1.0, P("1.6"), P("-0.4*y")),
            ),
        )
    )
    grid = GridSpec((-3, 3, 21), (-3, 3, 21), (0, 1, 5))
    report = grid_residuals(partial(transform_point, field), grid)
    assert report.skipped == 0
    assert max(report.max_abs) <= 1e-5


def test_grid_report_skips_pole_band():
    field = SeedField(
        SeedSpec(branch=Branch.PLUS, poly=HeatPolynomial(P("1"), P("0"), P("0")))
    )
    grid = GridSpec((-1, 1, 21), (-1, 1, 5), (0, 1, 5))  # crosses phi = x^2 - 2t = 0
    report = grid_residuals(partial(transform_point, field), grid)
    assert report.skipped > 0
    assert report.skipped + report.evaluated == grid.size
    assert max(report.max_abs) <= 1e-5  # evaluated points all pass


@pytest.mark.parametrize(
    "a, c",
    [(0.6, 0.6), (0.8, 1.4), (1.2, 0.8), (1.2, 1.2), (1.3, 1.0)],
)
def test_unit_scale_solitary_waves_verify(a, c):
    # truncation grows like a^5 * h^2, so the 1e-5 budget covers unit-scale
    # parameters; by a = c = 2 it is genuinely exceeded (2.8e-4 measured)
    def sampler(x, y, t):
        return exact_uh_const(a, c, 0.1, Branch.PLUS, x, y, t)

    grid = GridSpec((-3, 3, 21), (-3, 3, 21), (0, 1, 5))
    report = grid_residuals(sampler, grid)
    assert report.skipped == 0
    assert max(report.max_abs) <= 1e-5


def test_threads_sharing_one_field_fill_its_table_consistently():
    points = list(GridSpec((-2, 2, 5), (-2, 2, 9), (0, 1, 2)).points())

    def evaluate(field, point):
        residual = fd_residual_dlw(partial(transform_point, field), point, CFG)
        return residual, field.partials(*point), field.duals(point[1])

    serial_field = kernel_field()
    serial = [evaluate(serial_field, point) for point in points]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = kernel_field()  # an empty table each time
            results = [None] * len(points)

            def work(start):
                for pos in range(start, len(points), 8):
                    results[pos] = evaluate(shared, points[pos])

            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_non_finite_residual_is_never_scored_as_zero(bad):
    grid = GridSpec((0, 3, 4), (0, 0, 1), (0, 0, 1))
    points = list(grid.points())
    results = [(1e-9, 2e-9), (bad, 1e-9), (3e-9, bad), None]
    fold = ResidualFold()
    for point, result in zip(points, results):
        if result is None:
            fold.skip()
        else:
            fold.add(point, *result)
    report = aggregate_residuals(fold)
    assert report.evaluated == 3 and report.skipped == 1
    for value in report.max_abs:
        assert not value <= 1.0  # fails every threshold
    assert report.worst_point == points[1]


def test_all_skipped_grid_reports_nan():
    def always_pole(x, y, t):
        raise PoleError((x, y, t), 0.0)

    grid = GridSpec((0, 1, 2), (0, 1, 2), (0, 0, 1))
    report = grid_residuals(always_pole, grid)
    assert report.evaluated == 0
    assert report.skipped == grid.size
    assert math.isnan(report.max_abs[0])


# -- configuration types ----------------------------------------------------------------


def test_grid_spec_points_order_x_fastest():
    grid = GridSpec((0, 1, 2), (0, 1, 2), (0, 1, 2))
    points = list(grid.points())
    assert points[0] == (0.0, 0.0, 0.0)
    assert points[1] == (1.0, 0.0, 0.0)
    assert points[2] == (0.0, 1.0, 0.0)
    assert points[4] == (0.0, 0.0, 1.0)
    assert len(points) == grid.size == 8


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0, 1, 0), (0, 1, 1), (0, 1, 1))
    with pytest.raises(ValueError):
        GridSpec((1, 0, 2), (0, 1, 1), (0, 1, 1))


def test_stencil_validation():
    with pytest.raises(ValueError):
        StencilConfig(step=0.0)


@pytest.mark.parametrize("step", (1e-200, 1e-160, 1e-109, 1e103, 1e155, 1e300))
def test_stencil_rejects_a_step_whose_square_or_cube_vanishes_or_overflows(step):
    with pytest.raises(ValueError, match="out of range"):
        StencilConfig(step=step)


@pytest.mark.parametrize("step", (2e-108, 5e-3, 1.0, 5e102))
def test_stencil_accepts_a_step_with_a_finite_nonzero_cube(step):
    assert StencilConfig(step=step).step == step


@pytest.mark.parametrize(
    "grid, step, coordinate",
    [
        (GridSpec((-3, 3, 21), (-3, 3, 21), (0, 1, 5)), 1e-17, -3.0),
        (GridSpec((0.0, 1e6, 2), (0.0, 0.0, 1), (0.0, 0.0, 1)), 1e-12, 1e6),
        (GridSpec((0.0, 0.0, 1), (-2.0, 2.0, 3), (0.0, 0.0, 1)), 1e-16, -2.0),
        (GridSpec((0.0, 0.0, 1), (0.0, 0.0, 1), (100.0, 100.0, 1)), 1e-15, 100.0),
    ],
)
def test_grid_rejects_a_step_that_leaves_a_coordinate_unchanged(grid, step, coordinate):
    with pytest.raises(ValueError) as info:
        grid.check_step(step)
    assert str(info.value) == f"step {step!r} leaves the coordinate {coordinate!r} unchanged"


@pytest.mark.parametrize(
    "grid, step",
    [
        *((GridSpec((-3, 3, 21), (-3, 3, 21), (0, 1, 5)), s) for s in (3e-16, 1e-10, 5e-3, 1e10)),
        (GridSpec((0.0, 0.0, 1), (0.0, 0.0, 1), (0.0, 0.0, 1)), 1e-300),
    ],
)
def test_grid_accepts_a_step_that_moves_every_coordinate(grid, step):
    grid.check_step(step)


def test_report_passes_only_with_evaluated_points_within_threshold():
    def report(max_abs, evaluated=1, mean_abs=None):
        return ResidualReport(max_abs, mean_abs or max_abs, None, 0, evaluated)

    assert report((1e-5, 1e-5)).verdict(1e-5) == "PASS"  # the threshold itself passes
    assert report((1e-5, 2e-5)).verdict(1e-5) == "FAIL"
    assert report((2e-5, 0.0)).verdict(1e-5) == "FAIL"
    assert report((math.nan, 0.0)).verdict(1.0) == "FAIL"
    assert report((0.0, 0.0), evaluated=0).verdict(1.0) == "FAIL"
    # a NaN mean fails even where the maxima lost their NaN
    assert report((0.0, 0.0), mean_abs=(math.nan, 0.0)).verdict(1.0) == "FAIL"
    assert report((0.0, 0.0), mean_abs=(0.0, math.nan)).verdict(1.0) == "FAIL"
