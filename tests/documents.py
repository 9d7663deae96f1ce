"""Generated test inputs: the one home of the expression pools, expression
trees, seed and scenario documents, sample points and named seeds that
property tests draw from. Not collected as tests.

A seed document is the `seed` block of a scenario document, and its
SeedSpec is `seed_spec(seed, branch)`, read through `scenario_from_dict`: one
builder serves the tests that run documents and the tests that read a
SeedSpec.
"""

import copy
import json

from hypothesis import strategies as st

from dlw.scenario import SEED_KINDS, SOLUTION_PATHS, scenario_from_dict
from dlw.seedlab.exprlang import FUNCTIONS, BinOp, Call, Neg, Num, Pow, Var

# kernel rates a(y), kernel phases b(y) and heat-polynomial coefficients
A_EXPRS = ("1", "0.8 + 0.3*tanh(y)", "1.2 - 0.1*y", "sech(y) + 0.5", "1.5*cos(0.2*y)",
           "0.2*y")
B_EXPRS = ("0", "0.2*y", "sin(y)", "0.5*cos(y) - 0.3", "y^2/4", "-0.4*y + 1")
# "0*y" and "-0.5*y^2" give signed zeros at y = -0.0 and y < 0
POLY_EXPRS = ("0", "0*y", "0.5", "cos(y)", "y^2", "-0.5*y^2", "tanh(y)", "1 - 0.2*y")
BRANCH_NAMES = ("plus", "minus")
# every coordinate of the grid is a binary fraction, so the grid moved by a
# binary fraction holds exactly the moved points
GRID = {"x": [-2.5, 2.5, 11], "y": [-2.5, 2.5, 11], "t": [0.0, 1.0, 3]}

# seed (A): constant-free, two kernels with y-dependent coefficients
SEED_A = {"kind": "kernels", "constant": 0.0, "kernels": [
    {"amplitude": 1.0, "a": "1 + 0.2*tanh(y)", "b": "0.3*y"},
    {"amplitude": 2.0, "a": "-1.2", "b": "-0.4*y"},
]}
# a poly part with a constant, a y-dependent and a quadratic coefficient
POLY = {"c2": "0.5", "c1": "cos(y)", "c0": "y^2"}


def document(seed, branch="plus", grid=GRID, **keys):
    """A transform-path scenario document of `seed`; `keys` add or replace keys."""
    return {"branch": branch, "solution_path": "transform", "seed": seed, "grid": grid, **keys}


def seed_spec(seed, branch="plus"):
    """The SeedSpec of a seed document."""
    return scenario_from_dict(document(seed, branch)).seed


# -- expressions --------------------------------------------------------------------

_atoms = st.integers(0, 64).map(lambda n: Num(n / 8.0)) | st.just(Var())


def _nodes(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.integers(-2, 3)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


# expression trees as parse_coeff_expr builds them
exprs = st.recursive(_atoms, _nodes, max_leaves=10)
# the same trees with literals at the ends of the float range, whose products
# and squares overflow or underflow
extreme_exprs = st.recursive(
    st.one_of(_atoms, st.sampled_from((Num(1e308), Num(1e-200)))), _nodes, max_leaves=10
)


def linear(values):
    """Coefficient texts `c + s*y`, or `c` at slope 0, with c from `values`."""
    return st.builds(lambda c, s: repr(c) if s == 0.0 else f"{c!r} + {s!r}*y",
                     values, st.just(0.0) | st.floats(-2, 2))


# kernel rates: the pool, signed zeros, values whose exponent (1e103, -1e120)
# or square (1e160) passes the float range, and ordinary linear ones
EXTREME_RATES = st.sampled_from(A_EXPRS) | linear(
    st.sampled_from((0.0, -0.0, 1.0, -1.5, 1e103, -1e120, 1e160)) | st.floats(-3, 3)
)
# kernel phases: the pool and ordinary linear ones
LINEAR_PHASES = st.sampled_from(B_EXPRS) | linear(st.floats(-3, 3))


# -- seeds and points ---------------------------------------------------------------


@st.composite
def seed_documents(draw, kinds=SEED_KINDS, rates=st.sampled_from(A_EXPRS),
                   phases=st.sampled_from(B_EXPRS), amplitudes=st.sampled_from((0.5, 1.0, 2.0)),
                   constants=st.sampled_from((0.0, 1.0, 2.5))):
    """Seed documents of one of `kinds`: a constant; one to three kernels;
    a poly part from POLY_EXPRS; or kernels and a poly part."""
    kind = draw(st.sampled_from(kinds))
    seed = {"kind": kind, "constant": draw(constants)}
    if kind in ("kernels", "mixed"):
        seed["kernels"] = [
            {"amplitude": draw(amplitudes), "a": draw(rates), "b": draw(phases)}
            for _ in range(draw(st.integers(1, 3)))
        ]
    if kind in ("poly", "mixed"):
        seed["poly"] = {key: draw(st.sampled_from(POLY_EXPRS)) for key in ("c2", "c1", "c0")}
    return seed


# the exact path's seeds: constant 1 and one kernel of amplitude 1
exact_seeds = seed_documents(kinds=("kernels",), amplitudes=st.just(1.0)).map(
    lambda seed: {**seed, "constant": 1.0, "kernels": seed["kernels"][:1]})

# points over [-2, 2]^2 x [0, 1], signed zeros included
_COORDS = st.sampled_from((0.0, -0.0)) | st.floats(-2, 2)
points = st.tuples(_COORDS, _COORDS, st.sampled_from((0.0, -0.0)) | st.floats(0, 1))


# -- scenario documents and their defects ----------------------------------------------


def grids(nx, ny, nt):
    """GRID's spans at no more than nx x ny x nt points."""
    return st.builds(
        lambda x, y, t: {"x": [-2.5, 2.5, x], "y": [-2.5, 2.5, y], "t": [0.0, 1.0, t]},
        st.integers(1, nx), st.integers(1, ny), st.integers(1, nt),
    )


@st.composite
def scenarios(draw, grid=grids(3, 3, 2)):
    """Scenario documents on every solution path, with one `sweep` entry and
    sometimes a threshold and a CSV and a report output. Transform-path
    seeds take EXTREME_RATES, so some runs fail during the grid walk."""
    path = draw(st.sampled_from(SOLUTION_PATHS))
    raw = {"branch": draw(st.sampled_from(BRANCH_NAMES)), "solution_path": path,
           "grid": draw(grid)}
    if path == "exact-const":
        raw["params"] = dict(zip("acd", draw(st.lists(st.floats(-2, 2), min_size=3, max_size=3))))
    else:
        seeds = seed_documents(rates=EXTREME_RATES, phases=LINEAR_PHASES)
        raw["seed"] = draw(exact_seeds if path == "exact" else seeds)
    if draw(st.booleans()):
        raw["thresholds"] = {"max_residual": draw(st.sampled_from((1e-12, 1e-5, 1e-2)))}
    if draw(st.booleans()):
        raw["outputs"] = [{"format": "csv", "path": "grid.csv"},
                          {"format": "report", "path": "report.json"}]
    raw["sweep"] = [draw(st.sampled_from(({}, {"branch": "minus"}, {"stencil": {"step": 1e-2}})))]
    return raw


# JSON number literals past the float range, one past the digits int() reads
NUMBER_LITERALS = ("1e400", "1" + "0" * 5000)
# what a defect puts in place of a member
REPLACEMENTS = {
    "wrong type": ("text", None, True, [], {}, 1),
    "out of range": (-1, 0, -1e308, 1e308, 5e-324),
    "huge number": NUMBER_LITERALS,
    "huge exponent": ("y^" + "9" * 5000, "y^99999", "1e400*y"),
}


def _members(value, path=()):
    """(path, value) of every member of a JSON value, in objects and lists."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield (*path, key), item
        if isinstance(item, (dict, list)):
            yield from _members(item, (*path, key))


def _fits(defect, value):
    """Whether `defect` applies to a member that holds `value`."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return {
        "out of range": number,
        "huge number": number,
        "huge exponent": isinstance(value, str),
        "unknown": isinstance(value, dict),
    }.get(defect, True)


def _at(raw, path):
    """The member of `raw` at `path`."""
    for key in path:
        raw = raw[key]
    return raw


@st.composite
def mutated(draw, documents):
    """A document from `documents` with one defect: a member replaced by a
    value of the wrong type, a number out of range, a huge number or a text
    with a huge exponent; a member removed; or an unknown key added to an
    object."""
    raw = copy.deepcopy(draw(documents))
    defect = draw(st.sampled_from((*REPLACEMENTS, "missing", "unknown")))
    paths = [path for path, value in _members(raw) if _fits(defect, value)]
    if defect == "unknown":
        _at(raw, draw(st.sampled_from([(), *paths])))["zzz"] = 1
        return raw
    *parents, key = draw(st.sampled_from(paths))
    if defect == "missing":
        del _at(raw, parents)[key]
    else:
        _at(raw, parents)[key] = draw(st.sampled_from(REPLACEMENTS[defect]))
    return raw


def json_text(raw):
    """`raw` as JSON text, each of NUMBER_LITERALS written as a number."""
    text = json.dumps(raw)
    for literal in NUMBER_LITERALS:
        text = text.replace(json.dumps(literal), literal)
    return text
