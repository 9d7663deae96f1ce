"""Scenario evaluation against per-sample coefficient evaluation.

A seed field keeps its coefficient (value, deriv) pairs in a table filled once per distinct
y. The reference here empties that table before every sample, so each sample
calls eval_dual directly, as a field without the table would.
"""

import json
import math
import random

import pytest

from dlw.cli import main
from dlw.errors import ConfigError
from dlw.jetcalc import Branch
from dlw.residual import GridSpec, StencilConfig, fd_residual_dlw
from dlw.scenario import (
    _DOCUMENT_KEYS,
    CSV_HEADER,
    SOLUTION_PATHS,
    evaluate_grid,
    evaluate_scenario,
    export_csv,
    scenario_from_dict,
)
from dlw.seedlab import seeds
from dlw.seedlab.exprlang import parse_coeff_expr
from dlw.seedlab.seeds import Kernel, SeedField, SeedSpec
from dlw.transform import PoleError, exact_uh, exact_uh_const, transform_point

A_EXPRS = ("1", "0.8 + 0.3*tanh(y)", "1.2 - 0.1*y", "sech(y) + 0.5", "1.5*cos(0.2*y)")
B_EXPRS = ("0", "0.2*y", "sin(y)", "0.5*cos(y) - 0.3", "y^2/4", "-0.4*y + 1")
POLY_EXPRS = ("0", "0.5", "cos(y)", "y^2", "tanh(y)", "1 - 0.2*y")
GRID = {"x": [-2.0, 2.0, 5], "y": [-1.5, 1.5, 4], "t": [0.0, 0.6, 2]}


def random_document(rng, branch, path):
    kernels = [
        {
            "amplitude": 1.0 if path == "exact" else rng.choice((0.5, 1.0, 2.0)),
            "a": rng.choice(A_EXPRS),
            "b": rng.choice(B_EXPRS),
        }
        for _ in range(1 if path == "exact" else rng.randint(0, 3))
    ]
    seed = {"kind": "mixed", "constant": 1.0, "kernels": kernels}
    if path == "transform" and (not kernels or rng.random() < 0.5):
        seed["poly"] = {key: rng.choice(POLY_EXPRS) for key in ("c2", "c1", "c0")}
        seed["constant"] = rng.choice((0.0, 1.0, 3.0))
    return {
        "branch": branch.name.lower(),
        "solution_path": path,
        "seed": seed,
        "grid": GRID,
        "stencil": {"step": 5e-3},
    }


class ForgetfulRows(dict):
    """A coefficient table that keeps no row: every lookup starts empty."""

    def __setitem__(self, key, row):
        pass


def per_sample_reference(sc, monkeypatch):
    init = SeedField.__init__

    def forgetful_init(self, spec):
        init(self, spec)
        self._rows = ForgetfulRows()

    with monkeypatch.context() as patch:
        patch.setattr(SeedField, "__init__", forgetful_init)
        return evaluate_scenario(sc, fd_residual_dlw)


@pytest.mark.parametrize("branch", (Branch.PLUS, Branch.MINUS))
@pytest.mark.parametrize("path", ("transform", "exact"))
def test_records_and_report_equal_per_sample_evaluation(branch, path, monkeypatch):
    rng = random.Random(f"{branch.name}-{path}")
    for _ in range(6):
        sc = scenario_from_dict(random_document(rng, branch, path))
        report, records = evaluate_scenario(sc, fd_residual_dlw)
        ref_report, ref_records = per_sample_reference(sc, monkeypatch)
        # repr compares every float exactly, NaN rows and signed zeros too
        assert repr(records) == repr(ref_records)
        assert repr(report) == repr(ref_report)


@pytest.mark.parametrize("path", ("transform", "exact"))
def test_each_coefficient_is_evaluated_once_per_distinct_y(path, monkeypatch):
    document = random_document(random.Random(5), Branch.PLUS, path)
    document["seed"]["kernels"] = [{"a": "1 + 0.3*tanh(y)", "b": "0.2*y"}]
    if path == "transform":
        document["seed"]["kernels"].append({"a": "0.7", "b": "sin(y)"})
        document["seed"]["poly"] = {"c2": "0.1", "c1": "cos(y)", "c0": "y^2"}
    sc = scenario_from_dict(document)
    calls = []
    original = seeds.eval_dual

    def counted(expr, y):
        calls.append((id(expr), y))
        return original(expr, y)

    monkeypatch.setattr(seeds, "eval_dual", counted)
    evaluate_scenario(sc, fd_residual_dlw)
    assert calls and len(calls) == len(set(calls))
    exprs = 7 if path == "transform" else 2
    assert len(calls) <= 3 * sc.grid.y[2] * exprs  # y and y +/- step


@pytest.mark.parametrize("path", ("transform", "exact"))
def test_failing_coefficient_through_y_zero_exits_2(path, tmp_path, capsys):
    document = {
        "branch": "plus",
        "solution_path": path,
        "seed": {"kind": "kernels", "constant": 1.0, "kernels": [{"a": "1", "b": "1/y"}]},
        "grid": {"x": [-1.0, 1.0, 3], "y": [-1.0, 1.0, 3], "t": [0.0, 0.5, 2]},
    }
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(document))
    assert main(["run", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: field evaluation failed: "
        "config.seed.kernels[0].b at y = 0.0: division by zero\n"
    )


# one wrong value per document key; a key added later needs one here too
WRONG_VALUES = {
    "branch": "sideways",
    "solution_path": "closed",
    "seed": {"zzz": 1},
    "params": {"zzz": 1},
    "grid": {"zzz": 1},
    "stencil": {"zzz": 1},
    "thresholds": {"zzz": 1},
    "outputs": 5,
    "debug": {"zzz": 1},
}


def valid_document(path):
    """A document the path runs: a kernel seed, the unit kernel, or params."""
    document = {"branch": "plus", "solution_path": path, "grid": GRID}
    if path == "exact-const":
        document["params"] = {"a": 1.0, "c": 1.0, "d": 0.0}
    else:
        amplitude = 1.0 if path == "exact" else 2.0
        kernel = {"amplitude": amplitude, "a": "1", "b": "y"}
        document["seed"] = {"kind": "kernels", "constant": 1.0, "kernels": [kernel]}
    return document


@pytest.mark.parametrize("path", SOLUTION_PATHS)
@pytest.mark.parametrize("key", _DOCUMENT_KEYS)
def test_every_document_key_is_checked_on_every_path(key, path):
    # a block the path does not run from is checked all the same
    scenario_from_dict(valid_document(path))
    document = {**valid_document(path), key: WRONG_VALUES[key]}
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(document)
    assert str(err.value).startswith(f"config.{key}")


def test_evaluate_grid_takes_phi_then_the_stencil_then_the_centre():
    calls = []

    def phi_value(x, y, t):
        calls.append(("phi", x))
        return 10.0 + x

    def residual(sampler, point, cfg):
        calls.append(("residual", point[0]))
        if point[0] == 1.0:
            raise PoleError(point, 0.0)
        x = point[0]
        return (x * 2.0**-30, x * 2.0**-29, x * 2.0**-28, -x, -2.0 * x, -4.0 * x)

    def sampler(x, y, t):
        calls.append(("centre", x))
        return x, -1.0

    grid = GridSpec((0.0, 2.0, 3), (0.0, 0.0, 1), (0.0, 0.0, 1))
    report, records = evaluate_grid(grid, StencilConfig(), residual, sampler, phi_value)
    assert calls == [
        ("phi", 0.0), ("residual", 0.0), ("centre", 0.0),
        ("phi", 1.0), ("residual", 1.0),
        ("phi", 2.0), ("residual", 2.0), ("centre", 2.0),
    ]
    # rows are plain tuples in CSV column order: x, y, t, phi, u, h, res1, res2
    assert all(type(record) is tuple and len(record) == 8 for record in records)
    assert [record[3] for record in records] == [10.0, 11.0, 12.0]
    assert repr(records[1][4]) == "nan" and repr(records[1][7]) == "nan"
    assert (report.evaluated, report.skipped) == (2, 1)
    # each equation is the sum of its three terms
    assert records[2][6:] == (14 * 2.0**-30, -14.0)
    assert report.max_abs == (14 * 2.0**-30, 14.0) and report.worst_point == (2.0, 0.0, 0.0)


def test_csv_header_is_the_point_record_fields(tmp_path):
    assert CSV_HEADER == "x,y,t,phi,u,h,res1,res2"
    path = tmp_path / "grid.csv"
    export_csv([(0.5, 0.0, -0.0, 2.0, math.nan, math.inf, 1e-300, 0.1)], path)
    row = "0.5,0,-0,2,nan,inf,1e-300,0.10000000000000001"
    assert path.read_text() == f"{CSV_HEADER}\n{row}\n"


def test_csv_rows_read_as_format_17g_of_every_value(tmp_path):
    values = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
              0.1, 1 / 3, -math.nan, 2.5, -1e-310, 123456789.0)
    rng = random.Random(17)
    records = [values[:8], values[4:]]
    records += [tuple(rng.choices(values, k=8)) for _ in range(20)]
    path = tmp_path / "grid.csv"
    export_csv(records, path)
    reference = [CSV_HEADER]
    reference += [",".join(format(v, ".17g") for v in record) for record in records]
    assert path.read_text() == "\n".join(reference) + "\n"


def test_samplers_return_a_plain_pair_of_floats():
    kernel = Kernel(1.0, parse_coeff_expr("1"), parse_coeff_expr("0.5*y"))
    field = SeedField(SeedSpec(Branch.PLUS, 1.0, (kernel,)))
    a, b = field.duals(0.3)
    for pair in (
        transform_point(field, (0.2, 0.3, 0.1)),
        exact_uh(a, b, Branch.PLUS, (0.2, 0.3, 0.1)),
        exact_uh_const(1.0, 1.0, 0.0, Branch.MINUS, (0.2, 0.3, 0.1)),
    ):
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(value) is float for value in pair)
