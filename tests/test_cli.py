"""End-to-end tests of the command-line interface."""

import errno
import json
import math
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from dlw.cli import main
from dlw.jetcalc import Branch
from dlw.residual import ResidualReport, StencilConfig, fd_residual_1d
from dlw.scenario import CSV_HEADER
from dlw.transform import exact_uh_const, one_plus_exp

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
MAX_RESIDUAL = re.compile(r"max residual: r1 = (\S+), r2 = (\S+) ")


def base_config(**overrides):
    config = {
        "branch": "plus",
        "solution_path": "transform",
        "seed": {
            "kind": "kernels",
            "constant": 1.0,
            "kernels": [{"amplitude": 1.0, "a": "1", "b": "1*y"}],
        },
        "grid": {"x": [-1.0, 1.0, 4], "y": [-1.0, 1.0, 3], "t": [0.0, 0.5, 2]},
        "stencil": {"step": 5e-3},
        "thresholds": {"max_residual": 1e-5},
        "outputs": [],
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    return header, rows


# -- derive ------------------------------------------------------------------------


def test_derive_passes_and_prints_key_facts(capsys):
    assert main(["derive"]) == 0
    out = capsys.readouterr().out
    assert "(l,m,n,p,q,r) = (1,0,0,1,1,0)" in out
    assert "A = -1" in out
    assert out.count("PASS") == 2
    assert "branch plus" in out and "branch minus" in out


def test_derive_is_byte_identical_across_runs(capsys):
    main(["derive"])
    first = capsys.readouterr().out
    main(["derive"])
    second = capsys.readouterr().out
    assert first == second


def test_derive_json_export(tmp_path, capsys):
    target = tmp_path / "derivation.json"
    assert main(["derive", "--output", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["exponents"] == {"l": 1, "m": 0, "n": 0, "p": 1, "q": 1, "r": 0}
    assert payload["branches"]["plus"]["passed"] is True
    assert payload["branches"]["minus"]["passed"] is True


# -- run ---------------------------------------------------------------------------


def test_run_verifies_and_exports(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    config = base_config(outputs=[{"format": "csv", "path": str(csv_path)}])
    code = main(["run", write_config(tmp_path, config)])
    captured = capsys.readouterr()
    assert code == 0
    assert "verdict: PASS" in captured.out
    assert "skipped 0 pole-adjacent points" in captured.err
    header, rows = read_csv(csv_path)
    assert header == CSV_HEADER
    assert len(rows) == 4 * 3 * 2
    assert all(len(row) == 8 for row in rows)


def test_run_csv_bytes_reproducible(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    config = base_config(outputs=[{"format": "csv", "path": str(csv_path)}])
    path = write_config(tmp_path, config)
    assert main(["run", path]) == 0
    first = csv_path.read_bytes()
    assert main(["run", path]) == 0
    capsys.readouterr()
    assert csv_path.read_bytes() == first


def test_run_fails_on_corrupted_fields(tmp_path, capsys):
    config = base_config(debug={"perturb_h": 0.01})
    assert main(["run", write_config(tmp_path, config)]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_run_rejects_bad_expression_with_offset(tmp_path, capsys):
    config = base_config()
    config["seed"]["kernels"][0]["a"] = "tanj(y)"
    assert main(["run", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert "unknown function" in err
    assert "offset 0" in err


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"branch": "plus",')
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_run_rejects_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"branch": "plus\xe9"}')
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config {path}: not UTF-8 text")


def test_run_rejects_missing_sections(tmp_path, capsys):
    config = base_config()
    del config["grid"]
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert "missing key 'grid'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis, span, message",
    [
        ("y", [1.0, -1.0, 3], "y range must be ordered"),
        ("t", [0.0, 0.5, 0], "t count must be >= 1"),
    ],
)
def test_run_grid_errors_name_the_axis(tmp_path, capsys, axis, span, message):
    config = base_config()
    config["grid"][axis] = span
    assert main(["run", write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config.grid: {message}\n"


def test_run_threshold_override_turns_failure(tmp_path, capsys):
    config = base_config()
    path = write_config(tmp_path, config)
    assert main(["run", path, "--threshold", "1e-12"]) == 1
    capsys.readouterr()


def test_run_branch_and_step_overrides(tmp_path, capsys):
    config = base_config()
    path = write_config(tmp_path, config)
    assert main(["run", path, "--branch", "minus", "--step", "0.0025"]) == 0
    out = capsys.readouterr().out
    assert "branch minus" in out
    assert "step 0.0025" in out


def test_run_output_flag_adds_csv(tmp_path, capsys):
    config = base_config()
    target = tmp_path / "extra.csv"
    assert main(["run", write_config(tmp_path, config), "--output", str(target)]) == 0
    capsys.readouterr()
    header, rows = read_csv(target)
    assert header == CSV_HEADER
    assert len(rows) == 24


def test_vacuum_scenario_rows(tmp_path, capsys):
    csv_path = tmp_path / "vacuum.csv"
    config = base_config(
        seed={"kind": "constant", "constant": 2.0},
        grid={"x": [0.0, 1.0, 2], "y": [0.0, 1.0, 2], "t": [0.0, 0.0, 1]},
        outputs=[{"format": "csv", "path": str(csv_path)}],
    )
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    _, rows = read_csv(csv_path)
    assert len(rows) == 4
    for row in rows:
        assert float(row[3]) == 2.0  # phi
        assert float(row[4]) == 0.0  # u
        assert float(row[5]) == -1.0  # h
        assert float(row[6]) == 0.0 and float(row[7]) == 0.0


def test_pole_crossing_scenario_reports_skips_and_nan_rows(tmp_path, capsys):
    csv_path = tmp_path / "poles.csv"
    config = base_config(
        seed={"kind": "poly", "poly": {"c2": "1", "c1": "0", "c0": "0"}},
        grid={"x": [-1.0, 1.0, 11], "y": [-1.0, 1.0, 3], "t": [0.0, 1.0, 3]},
        outputs=[{"format": "csv", "path": str(csv_path)}],
    )
    assert main(["run", write_config(tmp_path, config)]) == 0
    err = capsys.readouterr().err
    assert "skipped" in err
    skipped = int(err.split("skipped ")[1].split()[0])
    assert skipped > 0
    _, rows = read_csv(csv_path)
    nan_rows = [row for row in rows if row[4] == "nan"]
    assert len(nan_rows) == skipped
    for row in nan_rows:
        assert row[5] == row[6] == row[7] == "nan"
        assert math.isfinite(float(row[3]))  # phi stays numeric


def test_csv_roundtrip_matches_report(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    report_path = tmp_path / "report.json"
    config = base_config(
        outputs=[
            {"format": "csv", "path": str(csv_path)},
            {"format": "report", "path": str(report_path)},
        ]
    )
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    _, rows = read_csv(csv_path)
    max1 = max(abs(float(row[6])) for row in rows if row[6] != "nan")
    max2 = max(abs(float(row[7])) for row in rows if row[7] != "nan")
    payload = json.loads(report_path.read_text())
    assert payload["verified"] is True
    assert abs(max1 - payload["report"]["max_abs"][0]) <= 1e-12
    assert abs(max2 - payload["report"]["max_abs"][1]) <= 1e-12
    assert payload["report"]["skipped"] == 0


def test_report_json_is_the_report_fields_plus_grid_and_step(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    config = base_config(outputs=[{"format": "report", "path": str(report_path)}])
    assert main(["run", write_config(tmp_path, config), "--step", "0.004"]) == 0
    capsys.readouterr()
    inner = json.loads(report_path.read_text())["report"]
    names = {field.name for field in fields(ResidualReport)}
    assert set(inner) == names | {"grid", "stencil"}
    assert inner["grid"] == {"x": [-1.0, 1.0, 4], "y": [-1.0, 1.0, 3], "t": [0.0, 0.5, 2]}
    assert inner["stencil"] == {"step": 0.004}


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 3000 + "y" + ")" * 3000, 100),
        ("-" * 3000 + "y", 100),
        ("exp(" * 400 + "y" + ")" * 400, 400),
    ],
    ids=("parentheses", "unary-minus", "calls"),
)
def test_deeply_nested_expression_exits_2_naming_its_key(tmp_path, capsys, text, offset):
    config = base_config()
    config["seed"]["kernels"][0]["b"] = text
    assert main(["run", write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: config.seed.kernels[0].b: expression nested too deeply "
        f"(offset {offset})\n"
    )


# -- shipped scenarios ------------------------------------------------------------------


def _verify_shipped(document, tmp_path, capsys):
    """Exit code and printed (r1, r2) maxima of the document's command."""
    command = "sweep" if "sweep" in document else "run"
    code = main([command, write_config(tmp_path, document, "shipped.json")])
    out = capsys.readouterr().out
    maxima = [(float(r1), float(r2)) for r1, r2 in MAX_RESIDUAL.findall(out)]
    assert len(maxima) == len(document.get("sweep", [document]))
    return code, maxima


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.name)
def test_shipped_scenario_passes_checks_something_and_fails_its_control(
    path, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # the documents write relative output paths
    document = json.loads(path.read_text())
    code, maxima = _verify_shipped(document, tmp_path, capsys)
    assert code == 0
    for r1, r2 in maxima:
        assert (r1, r2) != (0.0, 0.0), "a residual that is exactly zero checks nothing"
    document["debug"] = {"perturb_h": 1e-3}
    for entry in document.get("sweep", []):
        assert "debug" not in entry
    code, maxima = _verify_shipped(document, tmp_path, capsys)
    assert code == 1
    threshold = document["thresholds"]["max_residual"]
    for r1, r2 in maxima:
        assert max(r1, r2) > threshold


# -- alternate solution paths ---------------------------------------------------------


def test_exact_path_runs(tmp_path, capsys):
    config = base_config(solution_path="exact")
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()


def test_exact_path_requires_unit_kernel(tmp_path, capsys):
    config = base_config(solution_path="exact")
    config["seed"]["kernels"][0]["amplitude"] = 2.0
    assert main(["run", write_config(tmp_path, config)]) == 2
    assert "exact" in capsys.readouterr().err


def test_exact_const_path(tmp_path, capsys):
    config = base_config(solution_path="exact-const")
    del config["seed"]
    config["params"] = {"a": 1.0, "c": 1.0, "d": 0.0}
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()


def exact_const_config(a=1.0, c=1.0, d=0.0, **overrides):
    config = base_config(solution_path="exact-const", **overrides)
    del config["seed"]
    config["params"] = {"a": a, "c": c, "d": d}
    return config


def test_nan_residuals_fail_the_verdict(tmp_path, capsys):
    # a*a overflows to inf, and inf*t is NaN at t = 0
    config = exact_const_config(a=1e200)
    assert main(["run", write_config(tmp_path, config)]) == 1
    out = capsys.readouterr().out
    assert "r1 = nan" in out and "verdict: FAIL" in out


@pytest.mark.parametrize(
    "key, edit",
    [
        ("config.grid.x[1]", lambda c: c["grid"].update(x=[-1.0, math.inf, 3])),
        ("config.params.a", lambda c: c["params"].update(a=math.nan)),
        ("config.params.d", lambda c: c["params"].update(d=-math.inf)),
        ("config.stencil.step", lambda c: c["stencil"].update(step=10**400)),
    ],
)
def test_run_rejects_non_finite_numbers(tmp_path, capsys, key, edit):
    config = exact_const_config()
    edit(config)
    assert main(["run", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: expected a finite number")


def test_run_rejects_non_finite_override(tmp_path, capsys):
    assert main(["run", write_config(tmp_path, base_config()), "--step", "nan"]) == 2
    assert "config.stencil.step: expected a finite number" in capsys.readouterr().err


def test_exact_const_phi_overflow_writes_inf(tmp_path, capsys):
    csv_path = tmp_path / "far.csv"
    config = exact_const_config(d=800.0, outputs=[{"format": "csv", "path": str(csv_path)}])
    assert main(["run", write_config(tmp_path, config)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    _, rows = read_csv(csv_path)
    assert {row[3] for row in rows} == {"inf"}
    assert all(math.isfinite(float(value)) for row in rows for value in row[4:])


# -- reduce -----------------------------------------------------------------------------


def test_reduce_passes(capsys):
    assert main(["reduce", "1.0", "0.0"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


def test_reduce_minus_branch(capsys):
    assert main(["reduce", "0.8", "0.2", "--branch", "minus"]) == 0
    capsys.readouterr()


def test_reduce_tight_threshold_fails(capsys):
    assert main(["reduce", "1.0", "0.0", "--threshold", "1e-12"]) == 1
    capsys.readouterr()


def test_reduce_csv_export(tmp_path, capsys):
    target = tmp_path / "reduce.csv"
    assert main(["reduce", "1.0", "0.0", "--nz", "5", "--output", str(target)]) == 0
    capsys.readouterr()
    header, rows = read_csv(target)
    assert header == CSV_HEADER
    assert len(rows) == 5 * 5  # nz * nt


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nz", "0"], "--nz must be >= 1"),
        (["--nt", "0"], "--nt must be >= 1"),
        (["--nt", "-3"], "--nt must be >= 1"),
        (["--step", "0"], "--step must be positive"),
    ],
)
def test_reduce_rejects_bad_grid_flags(capsys, flags, message):
    assert main(["reduce", "1.0", "0.0", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--z0", "5", "--z1", "-5"], "--z0 must not exceed --z1"),
        (["--t0", "1", "--t1", "0"], "--t0 must not exceed --t1"),
    ],
)
def test_reduce_rejects_reversed_ranges(capsys, flags, message):
    assert main(["reduce", "1.0", "0.0", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def linspace(lo, hi, count):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


@pytest.mark.parametrize(
    "a, d, branch, nz, nt, threshold",
    [
        (0.7, 0.3, "minus", 9, 3, 1e-5),
        (1.0, 800.0, "plus", 7, 4, 1e-5),
        (1.3, -0.4, "plus", 6, 2, 1e-9),
    ],
)
def test_reduce_rows_and_verdict_equal_a_direct_loop(
    tmp_path, capsys, a, d, branch, nz, nt, threshold
):
    target = tmp_path / "reduce.csv"
    argv = ["reduce", repr(a), repr(d), "--branch", branch, "--nz", str(nz)]
    argv += ["--nt", str(nt), "--threshold", repr(threshold), "--output", str(target)]
    code = main(argv)
    capsys.readouterr()

    sign = Branch.from_name(branch).sign
    cfg = StencilConfig(5e-3)

    def sampler(z, y, t):
        return exact_uh_const(a, a, d, Branch.from_name(branch), (z, y, t))

    expected, worst = [], [0.0, 0.0]
    for t in linspace(0.0, 1.0, nt):
        for z in linspace(-5.0, 5.0, nz):
            r1, r2 = fd_residual_1d(sampler, (z, 0.0, t), cfg)
            u, h = sampler(z, 0.0, t)
            phi = one_plus_exp(a * z - sign * a * a * t + d)
            expected.append([z, 0.0, t, phi, u, h, r1, r2])
            worst = [max(worst[0], abs(r1)), max(worst[1], abs(r2))]
    _, rows = read_csv(target)
    assert [[float(value) for value in row] for row in rows] == expected
    assert code == (0 if max(worst) <= threshold else 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["nan", "0"], "a must be a finite number", id="a-nan"),
        pytest.param(["1", "inf"], "d must be a finite number", id="d-inf"),
        pytest.param(
            ["1", "0", "--nz", "1", "--z0", "inf", "--z1", "inf"],
            "--z0 must be a finite number",
            id="z0-inf",
        ),
        pytest.param(
            ["1", "0", "--z1", "inf"], "--z1 must be a finite number", id="z1-inf"
        ),
        pytest.param(
            ["1", "0", "--t0", "nan"], "--t0 must be a finite number", id="t0-nan"
        ),
        pytest.param(
            ["1", "0", "--t1", "inf"], "--t1 must be a finite number", id="t1-inf"
        ),
        pytest.param(
            ["1", "0", "--step", "inf"], "--step must be a finite number", id="step-inf"
        ),
        pytest.param(
            ["1", "0", "--threshold", "nan"],
            "--threshold must be a finite number",
            id="threshold-nan",
        ),
        pytest.param(
            ["1", "0", "--threshold", "-1"],
            "--threshold must be positive",
            id="threshold-negative",
        ),
        pytest.param(
            ["1", "0", "--threshold", "0"],
            "--threshold must be positive",
            id="threshold-zero",
        ),
    ],
)
def test_reduce_rejects_non_finite_input(capsys, argv, message):
    assert main(["reduce", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_reduce_fields_equal_the_exact_const_run(tmp_path, capsys):
    # a*a and a**2 differ in the last bit for this a
    a = 1.2298961504869985
    reduced, ran = tmp_path / "reduce.csv", tmp_path / "run.csv"
    assert main(["reduce", repr(a), "0.3", "--output", str(reduced)]) == 0
    config = exact_const_config(
        a=a,
        c=a,
        d=0.3,
        grid={"x": [-5.0, 5.0, 41], "y": [0.0, 0.0, 1], "t": [0.0, 1.0, 5]},
        thresholds={"max_residual": 1e-4},  # the (2+1) stencil's truncation
        outputs=[{"format": "csv", "path": str(ran)}],
    )
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    _, reduce_rows = read_csv(reduced)
    _, run_rows = read_csv(ran)
    assert len(reduce_rows) == 41 * 5
    assert [row[:6] for row in reduce_rows] == [row[:6] for row in run_rows]


def test_reduce_prints_the_run_summary(capsys):
    argv = ["reduce", "0.5", "0.3", "--branch", "minus", "--nz", "7", "--nt", "3"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "reduce: branch minus, exact-const path, grid 7x1x3, step 0.005\n"
        "  max residual: r1 = 2.250879e-08, r2 = 2.063504e-08 (threshold 1e-05)\n"
        "  mean residual: r1 = 9.572973e-09, r2 = 8.027050e-09; evaluated 21 points\n"
        "  verdict: PASS\n"
    )
    assert captured.err == "reduce: skipped 0 pole-adjacent points\n"


def test_reduce_phi_overflow_writes_inf(tmp_path, capsys):
    target = tmp_path / "far.csv"
    assert main(["reduce", "1.0", "800", "--nz", "3", "--output", str(target)]) == 0
    capsys.readouterr()
    _, rows = read_csv(target)
    assert {row[3] for row in rows} == {"inf"}


# -- stencil step range -------------------------------------------------------------------


OUT_OF_RANGE = "is out of range: its square and cube must be nonzero and finite"


@pytest.mark.parametrize(
    "command, step, where",
    [
        ("run", "1e-200", "config.stencil"),
        ("run", "1e-160", "config.stencil"),
        ("run", "1e300", "config.stencil"),
        ("sweep", "1e-200", "sweep[0].stencil"),
        ("sweep", "1e103", "sweep[0].stencil"),
        ("reduce", "1e-160", "--step"),
        ("reduce", "1e300", "--step"),
    ],
)
def test_step_the_stencils_cannot_divide_by_exits_2(tmp_path, capsys, command, step, where):
    if command == "reduce":
        argv = ["reduce", "1", "0"]
    else:
        config = base_config()
        if command == "sweep":
            config["sweep"] = [{}]
        argv = [command, write_config(tmp_path, config)]
    assert main([*argv, "--step", step]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: step {float(step)!r} {OUT_OF_RANGE}\n"


# -- sweep ------------------------------------------------------------------------------


def test_sweep_runs_all_entries(tmp_path, capsys):
    config = base_config()
    config["sweep"] = [
        {"branch": "plus"},
        {"branch": "minus"},
        {"seed": {"kernels": [{"amplitude": 1.0, "a": "1.3", "b": "0.5*y"}]}},
    ]
    assert main(["sweep", write_config(tmp_path, config)]) == 0
    out = capsys.readouterr().out
    assert out.count("verdict: PASS") == 3


def test_sweep_fails_if_any_entry_fails(tmp_path, capsys):
    config = base_config()
    config["sweep"] = [{}, {"debug": {"perturb_h": 0.01}}]
    assert main(["sweep", write_config(tmp_path, config)]) == 1
    out = capsys.readouterr().out
    assert "verdict: PASS" in out and "verdict: FAIL" in out


def test_sweep_requires_list(tmp_path, capsys):
    assert main(["sweep", write_config(tmp_path, base_config())]) == 2
    assert "sweep" in capsys.readouterr().err


# -- outputs ----------------------------------------------------------------------------


@pytest.mark.parametrize("command", ("run", "sweep", "reduce", "derive"))
def test_unwritable_output_path_exits_2(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out"
    if command == "run":
        config = base_config(outputs=[{"format": "csv", "path": str(target)}])
        argv = ["run", write_config(tmp_path, config)]
    elif command == "sweep":
        config = base_config()
        config["sweep"] = [{"outputs": [{"format": "report", "path": str(target)}]}]
        argv = ["sweep", write_config(tmp_path, config)]
    elif command == "reduce":
        argv = ["reduce", "1.0", "0.0", "--output", str(target)]
    else:
        argv = ["derive", "--output", str(target)]
    assert main(argv) == 2
    reason = os.strerror(errno.ENOENT)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: {reason}\n"


# -- argparse surface ---------------------------------------------------------------------


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["derive", "--nope"])
    assert err.value.code == 2
    capsys.readouterr()
