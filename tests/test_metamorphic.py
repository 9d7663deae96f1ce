"""Metamorphic relations of the transformation: edits to a document that must
leave its fields unchanged, or move them by a known map. No truncation error
enters these comparisons, so each holds to roundoff or bit for bit."""

import pytest

from dlw.residual import fd_residual_dlw
from dlw.scenario import evaluate_scenario, scenario_from_dict

# A constant-free two-kernel seed with y-dependent coefficients.
SEED_A = (
    {"amplitude": 1.0, "a": "1 + 0.2*tanh(y)", "b": "0.3*y"},
    {"amplitude": 2.0, "a": "-1.2", "b": "-0.4*y"},
)
GAUGE = "0.7*sin(y) + 0.2*y"
# A poly part with a constant, a y-dependent and a quadratic coefficient.
POLY = {"c2": "0.5", "c1": "cos(y)", "c0": "y^2"}
# |change| <= GAUGE_BOUND * (1 + |value|) for u and h; seed A moves them by
# at most 8.3e-16 on the plus branch and 1.4e-15 on the minus branch
GAUGE_BOUND = 1e-13


def document(branch, kernels, t=(0.0, 1.0, 5), constant=0.0, poly=None):
    seed = {"kind": "kernels", "constant": constant, "kernels": list(kernels)}
    if poly is not None:
        seed.update(kind="mixed", poly=poly)
    grid = {"x": [-3.0, 3.0, 21], "y": [-3.0, 3.0, 21], "t": list(t)}
    return {"branch": branch, "solution_path": "transform", "seed": seed, "grid": grid}


def rows(raw):
    """The evaluate_grid rows (x, y, t, phi, u, h, r1, r2) of a document."""
    out = []
    evaluate_scenario(scenario_from_dict(raw), fd_residual_dlw, out.append)
    return out


@pytest.mark.parametrize("branch", ("plus", "minus"))
def test_a_gauge_added_to_every_phase_leaves_u_and_h(branch):
    # phi -> exp(g(y))*phi moves phi_y by g'*phi and phi_xy by g'*phi_x, and
    # h's -2*phi_x*phi_y/phi^2 cancels what 2*phi_xy/phi gains
    gauged = [{**kernel, "b": f"{kernel['b']} + {GAUGE}"} for kernel in SEED_A]
    base, moved = rows(document(branch, SEED_A)), rows(document(branch, gauged))
    assert len(base) == len(moved) == 21 * 21 * 5
    for before, after in zip(base, moved):
        assert after[:3] == before[:3]
        for column in (4, 5):  # u, h
            change = abs(after[column] - before[column])
            assert change <= GAUGE_BOUND * (1.0 + abs(before[column])), (before, after)


@pytest.mark.parametrize(
    "extra",
    ({}, {"constant": 1.0, "poly": POLY}),
    ids=("seed-a", "with-constant-and-poly"),
)
def test_the_minus_branch_is_the_plus_branch_reflected_in_t(extra):
    # (u, h, t) -> (-u, h, -t) maps the system to itself and the seed of one
    # branch to the other's: the samples agree bit for bit
    minus = rows(document("minus", SEED_A, **extra))
    plus = {row[:3]: row for row in rows(document("plus", SEED_A, t=(-1.0, 0.0, 5), **extra))}
    assert len(minus) == len(plus) == 21 * 21 * 5
    for x, y, t, phi, u, h, _, _ in minus:
        reflected = plus[x, y, -t]
        assert repr((phi, -u, h)) == repr(reflected[3:6]), (x, y, t)


def scaled(branch, factor):
    """Seed A with constant 1 and POLY, its amplitudes, constant and poly
    coefficients each multiplied by `factor`."""
    kernels = [{**kernel, "amplitude": factor * kernel["amplitude"]} for kernel in SEED_A]
    poly = {key: f"{factor!r}*({text})" for key, text in POLY.items()}
    return document(branch, kernels, constant=factor * 1.0, poly=poly)


@pytest.mark.parametrize("branch", ("plus", "minus"))
def test_scaling_the_seed_leaves_u_h_and_the_residuals(branch):
    # u and h are log-derivatives of phi, so phi -> lambda*phi leaves them; at
    # a power of two every partial sum scales exactly, so phi scales bit for
    # bit and u, h and both residuals do not move at all
    base = rows(document(branch, SEED_A, constant=1.0, poly=POLY))
    assert len(base) == 21 * 21 * 5
    for factor in (2.0, 0.5):
        moved = rows(scaled(branch, factor))
        assert len(moved) == len(base)
        for before, after in zip(base, moved):
            assert after[:3] == before[:3]
            assert repr(after[3]) == repr(factor * before[3]), (factor, before, after)
            assert repr(after[4:]) == repr(before[4:]), (factor, before, after)
    # at 3 the sums round differently: u and h move by roundoff alone, and the
    # residuals, differences of nearby samples, by more, so they are not compared
    for before, after in zip(base, rows(scaled(branch, 3.0))):
        assert after[:3] == before[:3]
        for column in (4, 5):  # u, h
            change = abs(after[column] - before[column])
            assert change <= GAUGE_BOUND * (1.0 + abs(before[column])), (before, after)
