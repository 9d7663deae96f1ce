"""Scenario evaluation against per-sample coefficient evaluation.

A seed field keeps its coefficient (value, deriv) pairs in a table filled once per distinct
y. The reference here empties that table before every sample, so each sample
calls eval_dual directly, as a field without the table would.
"""

import json
import math
import random
import tracemalloc
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlw.cli import main
from dlw.errors import ConfigError
from dlw.branch import Branch
from dlw.residual import GridSpec, StencilConfig, fd_residual_dlw
from dlw.scenario import (
    _DOCUMENT_KEYS,
    CSV_HEADER,
    SOLUTION_PATHS,
    build_sampler,
    evaluate_grid,
    evaluate_scenario,
    export_csv,
    scenario_from_dict,
)
from dlw.seedlab import seeds
from dlw.seedlab.exprlang import parse_coeff_expr
from dlw.seedlab.seeds import Kernel, SeedField, SeedSpec
from dlw.transform import PoleError, const_wave, exact_uh, exact_uh_const, transform_point
from documents import GRID, POLY, SEED_A, document, exact_seeds, grids, seed_documents
from test_transform import python_frames

class ForgetfulRows(dict):
    """A coefficient table that keeps no row: every lookup starts empty."""

    def __setitem__(self, key, row):
        pass


def report_and_rows(sc):
    """evaluate_scenario's report, and the rows its walk passes on."""
    rows = []
    return evaluate_scenario(sc, fd_residual_dlw, rows.append), rows


def per_sample_reference(sc):
    init = SeedField.__init__

    def forgetful_init(self, spec):
        init(self, spec)
        self._rows = ForgetfulRows()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SeedField, "__init__", forgetful_init)
        return report_and_rows(sc)


@pytest.mark.parametrize("branch", (Branch.PLUS, Branch.MINUS))
@pytest.mark.parametrize("path", ("transform", "exact"))
@settings(max_examples=10)
@given(data=st.data(), grid=grids(5, 4, 2))
def test_records_and_report_equal_per_sample_evaluation(branch, path, data, grid):
    seed = data.draw(exact_seeds if path == "exact" else seed_documents(), label="seed")
    sc = scenario_from_dict(document(seed, branch.name.lower(), grid, solution_path=path))
    report, records = report_and_rows(sc)
    ref_report, ref_records = per_sample_reference(sc)
    # repr compares every float exactly, NaN rows and signed zeros too
    assert repr(records) == repr(ref_records)
    assert repr(report) == repr(ref_report)


@pytest.mark.parametrize("path", ("transform", "exact"))
def test_each_coefficient_is_evaluated_once_per_distinct_y(path, monkeypatch):
    # seed (A) and POLY: 2 + 2 coefficients and 3; its first kernel alone: 2
    seed = {**SEED_A, "kind": "mixed", "constant": 1.0, "poly": POLY}
    if path == "exact":
        seed = {"kind": "kernels", "constant": 1.0, "kernels": SEED_A["kernels"][:1]}
    sc = scenario_from_dict(document(seed, solution_path=path))
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
    if path == "exact-const":
        return {"branch": "plus", "solution_path": path, "grid": GRID,
                "params": {"a": 1.0, "c": 1.0, "d": 0.0}}
    kernel = {"amplitude": 1.0 if path == "exact" else 2.0, "a": "1", "b": "y"}
    return document({"kind": "kernels", "constant": 1.0, "kernels": [kernel]}, solution_path=path)


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
    records = []
    report = evaluate_grid(grid, StencilConfig(), residual, sampler, phi_value, records.append)
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


def write_csv(records, path):
    """The file export_csv writes at `path` when a walk passes it `records`."""
    with ExitStack() as files:
        row = export_csv(files, path)
        for record in records:
            row(record)


def test_csv_header_is_the_point_record_fields(tmp_path):
    assert CSV_HEADER == "x,y,t,phi,u,h,res1,res2"
    path = tmp_path / "grid.csv"
    write_csv([(0.5, 0.0, -0.0, 2.0, math.nan, math.inf, 1e-300, 0.1)], path)
    row = "0.5,0,-0,2,nan,inf,1e-300,0.10000000000000001"
    assert path.read_text() == f"{CSV_HEADER}\n{row}\n"


def test_csv_rows_read_as_format_17g_of_every_value(tmp_path):
    values = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
              0.1, 1 / 3, -math.nan, 2.5, -1e-310, 123456789.0)
    rng = random.Random(17)
    records = [values[:8], values[4:]]
    records += [tuple(rng.choices(values, k=8)) for _ in range(20)]
    path = tmp_path / "grid.csv"
    write_csv(records, path)
    reference = [CSV_HEADER]
    reference += [",".join(format(v, ".17g") for v in record) for record in records]
    assert path.read_text() == "\n".join(reference) + "\n"


def test_csv_export_streams_its_rows(tmp_path):
    # 20,000 rows export byte for byte as format(v, ".17g") while export holds
    # a few KiB, not the ~10 MiB of file text: rows are written one at a time
    specials = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                1e-310, 1.7976931348623157e308)
    rng = random.Random(1998)

    def value():
        if rng.random() < 0.3:
            return rng.choice(specials)
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)

    records = [tuple(value() for _ in range(8)) for _ in range(20_000)]
    path = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write_csv(records, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 256 * 1024
    reference = [CSV_HEADER]
    reference += [",".join(format(v, ".17g") for v in record) for record in records]
    assert path.read_bytes() == ("\n".join(reference) + "\n").encode()


def test_a_walk_that_writes_its_csv_keeps_no_point(tmp_path):
    # tracemalloc's peak for a walk with a CSV row consumer does not grow
    # with the grid: 4x the points stay within a few KiB of the small peak
    def sampler(x, y, t):
        return exact_uh_const(const_wave(1.0, 0.7, 0.1, Branch.PLUS), x, y, t)

    def peak(n):
        grid = GridSpec((-2.0, 2.0, n), (-1.0, 1.0, n), (0.0, 1.0, 2))
        tracemalloc.start()
        try:
            with ExitStack() as files:
                row = export_csv(files, tmp_path / f"{n}.csv")
                report = evaluate_grid(grid, StencilConfig(), fd_residual_dlw, sampler,
                                       lambda x, y, t: 1.0, row)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.evaluated == grid.size
        assert len((tmp_path / f"{n}.csv").read_text().splitlines()) == 1 + grid.size
        return peak

    small, large = peak(20), peak(40)
    assert large - small < 8 * 1024, (small, large)


def test_samplers_return_a_plain_pair_of_floats():
    kernel = Kernel(1.0, parse_coeff_expr("1"), parse_coeff_expr("0.5*y"))
    field = SeedField(SeedSpec(Branch.PLUS, 1.0, (kernel,)))
    for pair in (
        transform_point(field, 0.2, 0.3, 0.1),
        exact_uh(field, 0.2, 0.3, 0.1),
        exact_uh_const(const_wave(1.0, 1.0, 0.0, Branch.MINUS), 0.2, 0.3, 0.1),
    ):
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(value) is float for value in pair)


@pytest.mark.parametrize(
    "path, frames, phi_frames",
    (
        ("exact-const", ["exact_uh_const"], ["exact_phi_const"]),
        ("exact", ["exact_uh", "duals"], ["exact_phi", "duals"]),
        ("transform", ["transform_point", "partials"], ["phi"]),
    ),
    ids=("exact-const", "exact", "transform"),
)
def test_the_bound_sampler_opens_no_wrapper_frame(path, frames, phi_frames):
    # the path's point map bound with functools.partial: one sample opens only
    # the map's own frames, once a first sample has filled the table row at y;
    # so does each path's phi column, the transform path's a bound method
    scenario = scenario_from_dict(valid_document(path))
    sampler, phi_value = build_sampler(scenario)
    first = sampler(0.5, 0.7, 0.2)
    assert python_frames(sampler, 0.5, 0.7, 0.2) == frames
    assert python_frames(phi_value, 0.5, 0.7, 0.2) == phi_frames
    if path == "exact-const":
        assert first == exact_uh_const(const_wave(1.0, 1.0, 0.0, Branch.PLUS), 0.5, 0.7, 0.2)
    elif path == "exact":
        assert first == exact_uh(SeedField(scenario.seed), 0.5, 0.7, 0.2)
    else:
        assert first == transform_point(SeedField(scenario.seed), 0.5, 0.7, 0.2)
