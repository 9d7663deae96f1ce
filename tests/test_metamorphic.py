"""Metamorphic relations of the transformation, on seeds drawn by
`documents.seed_documents`: edits to a seed document that must leave its
fields unchanged, or move them by a known map. Each relation also runs on seed
(A), with and without a constant and `documents.POLY`. No truncation error
enters these comparisons: the branch reflection and scaling by a power of two
hold bit for bit, and the gauge, scaling by 3 and the translations to
roundoff."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlw.residual import fd_residual_dlw
from dlw.scenario import evaluate_scenario, scenario_from_dict
from documents import B_EXPRS, BRANCH_NAMES, GRID, POLY, SEED_A, document, seed_documents

SEED_A_POLY = {**SEED_A, "kind": "mixed", "constant": 1.0, "poly": POLY}
# |change| <= BOUND * (1 + |value|) for u, h, and phi where it should not move;
# where a seed's terms can cancel, roundoff grows by 1/|phi| near a pole, so
# |change| * min(1, |phi|) is held to it: at most 1.9e-14 over 300 drawn
# seeds, where |change| alone exceeds 1e-13
BOUND = 1e-13
RELATION = settings(max_examples=20)


def rows(seed, branch, grid=GRID):
    """The evaluate_grid rows (x, y, t, phi, u, h, r1, r2) of a seed."""
    out = []
    sc = scenario_from_dict(document(seed, branch, grid))
    evaluate_scenario(sc, fd_residual_dlw, out.append)
    return out


def assert_close(base, moved, columns=(4, 5), x0=0.0, t0=0.0, cancelling=True):
    """Each row of `moved`, at its base row's point less (x0, t0), holds its
    base row's `columns` within BOUND, scaled where the terms are
    `cancelling`, or the same skipped point's nan."""
    assert len(base) == len(moved) == 11 * 11 * 3
    for before, after in zip(base, moved):
        assert (after[0] + x0, after[1], after[2] + t0) == before[:3]
        scale = min(1.0, abs(before[3])) if cancelling else 1.0
        for column in columns:
            change = abs(after[column] - before[column])
            assert repr(after[column]) == repr(before[column]) or (
                change * scale <= BOUND * (1.0 + abs(before[column]))
            ), (before, after)


@pytest.mark.parametrize("branch", BRANCH_NAMES)
@RELATION
# constant-free kernel seeds with positive amplitudes: positive terms only
@given(seed=seed_documents(kinds=("kernels",), constants=st.just(0.0)),
       gauge=st.sampled_from(B_EXPRS))
@example(seed=SEED_A, gauge="0.7*sin(y) + 0.2*y")
def test_a_gauge_added_to_every_phase_leaves_u_and_h(branch, seed, gauge):
    # phi -> exp(g(y))*phi moves phi_y by g'*phi and phi_xy by g'*phi_x, and
    # h's -2*phi_x*phi_y/phi^2 cancels what 2*phi_xy/phi gains
    gauged = [{**kernel, "b": f"{kernel['b']} + {gauge}"} for kernel in seed["kernels"]]
    assert_close(rows(seed, branch), rows({**seed, "kernels": gauged}, branch), cancelling=False)


@pytest.mark.parametrize("poly", (False, True), ids=("seed-a", "with-constant-and-poly"))
@RELATION
@given(seed=seed_documents(kinds=("mixed",)))
@example(seed=SEED_A_POLY)
def test_the_minus_branch_is_the_plus_branch_reflected_in_t(poly, seed):
    # (u, h, t) -> (-u, h, -t) maps the system to itself and the seed of one
    # branch to the other's: the samples agree bit for bit. Without `poly`,
    # the seed's kernels alone, constant-free like seed (A)
    if not poly:
        seed = {"kind": "kernels", "constant": 0.0, "kernels": seed["kernels"]}
    minus = rows(seed, "minus")
    plus = {row[:3]: row for row in rows(seed, "plus", {**GRID, "t": [-1.0, 0.0, 3]})}
    assert len(minus) == len(plus) == 11 * 11 * 3
    for x, y, t, phi, u, h, _, _ in minus:
        reflected = plus[x, y, -t]
        assert repr((phi, -u, h)) == repr(reflected[3:6]), (x, y, t)


def scaled(seed, factor):
    """`seed` with its amplitudes, constant and poly coefficients each
    multiplied by `factor`."""
    out = {**seed, "constant": factor * seed["constant"]}
    out["kernels"] = [dict(k, amplitude=factor * k["amplitude"]) for k in seed.get("kernels", [])]
    if "poly" in seed:
        out["poly"] = {key: f"{factor!r}*({text})" for key, text in seed["poly"].items()}
    return out


@pytest.mark.parametrize("branch", BRANCH_NAMES)
@RELATION
@given(seed=seed_documents())
@example(seed=SEED_A_POLY)
def test_scaling_the_seed_leaves_u_h_and_the_residuals(branch, seed):
    # u and h are log-derivatives of phi, so phi -> lambda*phi leaves them; at
    # a power of two every partial sum scales exactly, so phi scales bit for
    # bit and u, h and both residuals do not move at all
    base = rows(seed, branch)
    for factor in (2.0, 0.5):
        expected = [(*row[:3], factor * row[3], *row[4:]) for row in base]
        assert repr(rows(scaled(seed, factor), branch)) == repr(expected), factor
    # at 3 the sums round differently: u and h move by roundoff alone, and the
    # residuals, differences of nearby samples, by more, so they are not compared
    assert_close(base, rows(scaled(seed, 3.0), branch))


def translated(seed, sign, x0, t0):
    """`seed` whose fields at (x, t) are those of `seed` at (x + x0, t + t0):
    theta moves by a*x0 - sign*a^2*t0, the poly is re-expanded about x0, and
    c2*(x^2 - sign*2t) moves c0 by -sign*2*c2*t0."""
    out = dict(seed)
    if "kernels" in seed:
        out["kernels"] = [
            {**kernel, "b": f"({kernel['b']}) + {x0!r}*({kernel['a']}) "
                            f"+ {-sign * t0!r}*({kernel['a']})^2"}
            for kernel in seed["kernels"]
        ]
    if "poly" in seed:
        c2, c1, c0 = (seed["poly"][key] for key in ("c2", "c1", "c0"))
        out["poly"] = {
            "c2": c2,
            "c1": f"({c1}) + {2 * x0!r}*({c2})",
            "c0": f"({c0}) + {x0!r}*({c1}) + {x0 * x0 - sign * 2 * t0!r}*({c2})",
        }
    return out


@pytest.mark.parametrize("axis", ("x", "t"))
@RELATION
@given(seed=seed_documents(), branch=st.sampled_from(BRANCH_NAMES),
       shift=st.sampled_from((0.25, -0.75, 1.5)))
@example(seed=SEED_A_POLY, branch="minus", shift=0.5)
def test_moving_the_seed_moves_its_fields(axis, seed, branch, shift):
    # a binary-fraction shift moves the binary-fraction grid point for point
    x0, t0 = (shift, 0.0) if axis == "x" else (0.0, shift)
    grid = {"x": [-2.5 + x0, 2.5 + x0, 11], "y": GRID["y"], "t": [t0, 1.0 + t0, 3]}
    sign = 1.0 if branch == "plus" else -1.0
    base = rows(seed, branch, grid)
    assert_close(base, rows(translated(seed, sign, x0, t0), branch), (3, 4, 5), x0, t0)
