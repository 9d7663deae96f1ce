"""End-to-end tests of the command-line interface."""

import argparse
import ast
import errno
import itertools
import json
import math
import os
import re
import stat
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import dlw.balance
import dlw.cli
import dlw.scenario
from dlw.cli import main
from dlw.errors import PATH_SHOWN, SHOWN
from dlw.branch import Branch
from dlw.jetcalc import JetPoly
from dlw.residual import ResidualReport, StencilConfig, fd_residual_1d
from dlw.scenario import CSV_HEADER, merge_config
from dlw.seedlab.seeds import SeedField
from dlw.transform import const_wave, exact_phi_const, exact_uh_const
from documents import json_text, mutated, scenarios
from test_balance import with_a_zero
from test_residual import residuals
from test_seeds import reference_transform

import run_probes

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
MAX_RESIDUAL = re.compile(r"max residual: r1 = (\S+), r2 = (\S+) ")


def corpus_document(probe, name):
    """The document `name` that the corpus probe `probe` writes."""
    return run_probes.load(probe)["files"][name]


POLE = corpus_document("pole_skipped_point_writes_a_strict_report", "pole.json")


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


DERIVE_STDOUT = """\
balance exponents: (l,m,n,p,q,r) = (1,0,0,1,1,0)
ansatz: u = f'*phi_x, h = g''*phi_x*phi_y + g'*phi_xy + A
resolved: f = +2*ln(phi) (plus branch) or -2*ln(phi) (minus branch); g = 2*ln(phi)
constant: A = -1
transformation: u = +/-2*phi_x/phi, h = -2*phi_x*phi_y/phi^2 + 2*phi_xy/phi - 1
seed equation: phi_t +/- phi_xx = 0
branch plus: ode system, log identities, residual reduction, factorization -> PASS
branch minus: ode system, log identities, residual reduction, factorization -> PASS
"""

DERIVE_JSON = """\
{
  "A": "-1",
  "branches": {
    "minus": {
      "failures": [],
      "passed": true
    },
    "plus": {
      "failures": [],
      "passed": true
    }
  },
  "exponents": {
    "l": 1,
    "m": 0,
    "n": 0,
    "p": 1,
    "q": 1,
    "r": 0
  },
  "f": "f = +2*ln(phi) (plus branch) or -2*ln(phi) (minus branch)",
  "g": "g = 2*ln(phi)"
}
"""


def test_derive_stdout_and_json_are_pinned(tmp_path, capsys):
    # a second run in the same process prints and writes the same bytes
    target = tmp_path / "derivation.json"
    for _ in range(2):
        assert main(["derive", "--output", str(target)]) == 0
        assert capsys.readouterr().out == DERIVE_STDOUT
        assert target.read_bytes() == DERIVE_JSON.encode()


def test_derive_with_no_residual_terms_fails_without_a_traceback(capsys, monkeypatch):
    # a total derivative that loses every term leaves both residuals empty
    monkeypatch.setattr(dlw.balance, "total_derivative", lambda p, direction: JetPoly())
    assert main(["derive"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "derivation FAILED:\nresidual e1 has no terms\n"
    assert captured.err == ""


# -- verdict words and exit codes --------------------------------------------------

# a printed verdict word: a run's summary line or a derive branch line
PRINTED_WORD = re.compile(r"(?:verdict:|->) (\S+)$", re.MULTILINE)


def test_the_exit_table_holds_exactly_the_words_a_report_returns(monkeypatch):
    def residual_report(max_abs, evaluated):
        return ResidualReport(max_abs, max_abs, None, 0, evaluated)

    words = {
        residual_report(max_abs, evaluated).verdict(1e-5)
        for max_abs in ((0.0, 0.0), (1.0, 0.0), (math.nan, 0.0))
        for evaluated in (0, 1)
    }
    words.add(dlw.balance.derive().verdict)
    monkeypatch.setattr(dlw.balance, "verify_factorization", with_a_zero)
    words.add(dlw.balance.derive().verdict)
    assert words == set(dlw.cli.EXIT_CODES)


@pytest.mark.parametrize(
    "argv, a_zero, worst",
    [
        (["derive"], False, "PASS"),
        (["derive"], True, "FAIL"),
        (["run", "scenario.json"], False, "PASS"),
        (["run", "scenario.json", "--threshold", "1e-12"], False, "FAIL"),
        (["reduce", "1", "0"], False, "PASS"),
        (["reduce", "1", "0", "--threshold", "1e-12"], False, "FAIL"),
        # entry 0 PASSes at 1e-6 and entries 1 and 2 FAIL
        (["sweep", str(SCENARIOS[0].parent / "sweep.json"), "--threshold", "1e-6"],
         False, "FAIL"),
    ],
    ids=["derive", "derive-a-zero", "run", "run-1e-12", "reduce", "reduce-1e-12", "sweep"],
)
def test_exit_code_is_the_table_entry_of_the_worst_printed_word(
    argv, a_zero, worst, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, base_config())
    if a_zero:
        monkeypatch.setattr(dlw.balance, "verify_factorization", with_a_zero)
    code = main(argv)
    printed = PRINTED_WORD.findall(capsys.readouterr().out)
    assert printed and max(printed, key=dlw.cli.EXIT_CODES.__getitem__) == worst
    assert code == dlw.cli.EXIT_CODES[worst]


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


def test_run_rejects_non_utf8_config(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"branch": "plus\xe9"}')
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config {path}: not UTF-8 text")


def test_run_rejects_a_document_nested_too_deeply(tmp_path, capsys):
    # past the depth json's reader or the key check recurses to: exit 2, no traceback
    path = tmp_path / "deep.json"
    path.write_text('{"debug": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config {path}: nested too deeply\n"


def test_an_error_path_through_deep_lists_is_cut_as_a_whole(tmp_path, capsys):
    # the probe corpus pins a deep path of cut keys; list indices are cut alike
    path = tmp_path / "lists.json"
    path.write_text('{"debug": ' + "[" * 100 + '{"a": 1, "a": 2}' + "]" * 100 + "}")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    where = ("config.debug" + "[0]" * 100)[:120] + "..."
    assert captured.out == ""
    assert captured.err == f"error: {where}: duplicate key 'a'\n"


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


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize(
    "seed, grid, evaluated",
    [
        # a saturated kernel: every residual is NaN
        (
            {
                "kind": "kernels",
                "constant": 1.0,
                "kernels": [{"a": "1", "b": "360 + 1*y"}],
            },
            {"x": [-1.0, 1.0, 5], "y": [-1.0, 1.0, 5], "t": [0.0, 1.0, 2]},
            50,
        ),
        # phi = x^2 - 2t + x*y is zero at the origin: the one point is pole-skipped
        (POLE["seed"], POLE["grid"], 0),
    ],
)
def test_report_json_writes_a_non_finite_residual_as_null(
    tmp_path, capsys, seed, grid, evaluated
):
    report_path = tmp_path / "report.json"
    config = base_config(
        seed=seed, grid=grid, outputs=[{"format": "report", "path": str(report_path)}]
    )
    assert main(["run", write_config(tmp_path, config)]) == 1
    out = capsys.readouterr().out
    assert "max residual: r1 = nan, r2 = nan" in out  # the summary keeps nan
    assert "mean residual: r1 = nan, r2 = nan" in out
    payload = json.loads(report_path.read_text(), parse_constant=_refuse_constant)
    inner = payload["report"]
    assert inner["max_abs"] == inner["mean_abs"] == [None, None]
    assert inner["evaluated"] == evaluated
    assert payload["verified"] is False


def test_report_json_is_the_report_fields_plus_grid_and_step(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    config = base_config(outputs=[{"format": "report", "path": str(report_path)}])
    assert main(["run", write_config(tmp_path, config), "--step", "0.004"]) == 0
    capsys.readouterr()
    inner = json.loads(report_path.read_text())["report"]
    names = set(ResidualReport._fields)
    assert set(inner) == names | {"grid", "stencil"}
    assert inner["grid"] == {"x": [-1.0, 1.0, 4], "y": [-1.0, 1.0, 3], "t": [0.0, 0.5, 2]}
    assert inner["stencil"] == {"step": 0.004}


def test_document_without_a_stencil_runs_at_the_default_step(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    config = base_config(outputs=[{"format": "report", "path": str(report_path)}])
    del config["stencil"]
    assert main(["run", write_config(tmp_path, config)]) == 0
    assert ", step 0.005\n" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["report"]["stencil"] == {"step": 5e-3}


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


def _verify_shipped(document, branch, tmp_path, capsys):
    """Exit code and printed (r1, r2) maxima of the document's command on
    `branch`."""
    command = "sweep" if "sweep" in document else "run"
    path = write_config(tmp_path, document, "shipped.json")
    code = main([command, path, "--branch", branch])
    out = capsys.readouterr().out
    maxima = [(float(r1), float(r2)) for r1, r2 in MAX_RESIDUAL.findall(out)]
    assert len(maxima) == len(document.get("sweep", [document]))
    return code, maxima


def _fails_over_threshold(document, branch, tmp_path, capsys):
    """Whether the command exits 1 with every maximum over the threshold."""
    code, maxima = _verify_shipped(document, branch, tmp_path, capsys)
    threshold = document["thresholds"]["max_residual"]
    return code == 1 and all(max(r1, r2) > threshold for r1, r2 in maxima)


def _fails_on_r2_alone(document, branch, tmp_path, capsys):
    """Whether the command exits 1 with every r1 maximum within the
    threshold and every r2 maximum over it."""
    code, maxima = _verify_shipped(document, branch, tmp_path, capsys)
    threshold = document["thresholds"]["max_residual"]
    return code == 1 and all(r1 <= threshold < r2 for r1, r2 in maxima)


def _perturbed(build_sampler, change):
    """A build_sampler whose samplers return change(x, y, t, u, h) of the
    samplers of `build_sampler`."""

    def build(sc):
        sampler, phi_value = build_sampler(sc)

        def perturbed(x, y, t):
            return change(x, y, t, *sampler(x, y, t))

        return perturbed, phi_value

    return build


def _u_control(x, y, t, u, h):
    return u + 1e-3 * x * x * t, h


def _h_control(x, y, t, u, h):
    """h_xx is unchanged and the flux gains 1e-3*y*u_x: r2 alone fails."""
    return u, h + 1e-3 * y


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.name)
def test_shipped_scenario_passes_checks_something_and_fails_its_control(
    path, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # the documents write relative output paths
    document = json.loads(path.read_text())
    for entry in document.get("sweep", []):
        assert "debug" not in entry
    build_sampler = dlw.scenario.build_sampler
    for branch in ("plus", "minus"):
        code, maxima = _verify_shipped(document, branch, tmp_path, capsys)
        assert code == 0, branch
        for r1, r2 in maxima:
            assert (r1, r2) != (0.0, 0.0), "a residual that is exactly zero checks nothing"
        # each negative control fails on its own
        document["debug"] = {"perturb_h": 1e-3}
        assert _fails_over_threshold(document, branch, tmp_path, capsys), (
            f"h + 1e-3*x^2 on {branch}"
        )
        del document["debug"]
        monkeypatch.setattr(dlw.scenario, "build_sampler", _perturbed(build_sampler, _u_control))
        assert _fails_over_threshold(document, branch, tmp_path, capsys), (
            f"u + 1e-3*x^2*t on {branch}"
        )
        monkeypatch.setattr(dlw.scenario, "build_sampler", _perturbed(build_sampler, _h_control))
        assert _fails_on_r2_alone(document, branch, tmp_path, capsys), (
            f"h + 1e-3*y on {branch}"
        )
        monkeypatch.setattr(dlw.scenario, "build_sampler", build_sampler)


def _transform_by_reference(field, x, y, t):
    """transform_point from the table-free reference of the seed tests."""
    return reference_transform(field.spec, (x, y, t))


def _command_bytes(path, branch, workdir, capsys, monkeypatch):
    """Exit code, stdout, stderr and every written file of a shipped document's
    command on `branch`, run in workdir."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)  # the documents write relative output paths
    command = "sweep" if "sweep" in json.loads(path.read_text()) else "run"
    code = main([command, str(path), "--branch", branch])
    captured = capsys.readouterr()
    files = {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.name)
def test_shipped_scenario_bytes_equal_the_general_partials_reference(
    path, tmp_path, capsys, monkeypatch
):
    for branch in ("plus", "minus"):
        got = _command_bytes(path, branch, tmp_path / f"got-{branch}", capsys, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(dlw.scenario, "transform_point", _transform_by_reference)
            expected = _command_bytes(
                path, branch, tmp_path / f"expected-{branch}", capsys, monkeypatch
            )
        assert got == expected, branch
        assert got[0] == 0 and got[1], branch


def test_every_transform_sample_reads_its_seed_through_partials(
    tmp_path, capsys, monkeypatch
):
    # the seed layer of a transform sample is SeedField.partials, one call each
    calls = {"partials": 0, "phi": 0, "transform_point": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(SeedField, "partials", counted("partials", SeedField.partials))
    monkeypatch.setattr(SeedField, "phi", counted("phi", SeedField.phi))
    monkeypatch.setattr(
        dlw.scenario,
        "transform_point",
        counted("transform_point", dlw.scenario.transform_point),
    )
    config = base_config()
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    points = math.prod(axis[2] for axis in config["grid"].values())
    assert calls["transform_point"] > 0
    assert calls["partials"] == calls["transform_point"]
    # and the phi column reads SeedField.phi, not partials, once per grid point
    assert calls["phi"] == points


# -- alternate solution paths ---------------------------------------------------------


def test_exact_path_runs(tmp_path, capsys):
    config = base_config(solution_path="exact")
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()


def test_exact_path_far_field_writes_inf_phi_and_fails_its_control(
    tmp_path, capsys, monkeypatch
):
    # theta reaches 858 at x = 715, y = 1: 1 + exp(theta) passes the float
    # range while u and h, formed through tanh and sech, stay finite; the
    # probe of this document checks its summary
    monkeypatch.chdir(tmp_path)
    config = corpus_document("exact_path_far_field_writes_inf_phi", "far.json")
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    _, rows = read_csv(tmp_path / "far.csv")
    assert len(rows) == 870
    assert sum(row[3] == "inf" for row in rows) == 43
    assert all(math.isfinite(float(value)) for row in rows for value in row[4:])
    config["outputs"] = []
    config["debug"] = {"perturb_h": 1e-3}
    assert main(["run", write_config(tmp_path, config)]) == 1
    out = capsys.readouterr().out
    assert "r2 = 3.295632e+00 " in out and "verdict: FAIL" in out


def exact_const_config(a=1.0, c=1.0, d=0.0, **overrides):
    config = base_config(solution_path="exact-const", **overrides)
    del config["seed"]
    config["params"] = {"a": a, "c": c, "d": d}
    return config


def test_exact_const_path(tmp_path, capsys):
    assert main(["run", write_config(tmp_path, exact_const_config())]) == 0
    capsys.readouterr()


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


def test_reduce_reads_negative_numbers_written_with_an_exponent(tmp_path, capsys):
    # argparse takes a separate "-1e1" for a flag: a bound is joined to its
    # flag by "=", and a wave parameter follows "--"
    target = tmp_path / "reduce.csv"
    assert main(["reduce", "1", "0", "--z0=-1e1", "--output", str(target)]) == 0
    capsys.readouterr()
    _, rows = read_csv(target)
    assert float(rows[0][0]) == -10.0
    assert main(["reduce", "--nz", "5", "--", "-1e-1", "0"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_reduce_csv_export(tmp_path, capsys):
    target = tmp_path / "reduce.csv"
    assert main(["reduce", "1.0", "0.0", "--nz", "5", "--output", str(target)]) == 0
    capsys.readouterr()
    header, rows = read_csv(target)
    assert header == CSV_HEADER
    assert len(rows) == 5 * 5  # nz * nt


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

    cfg = StencilConfig(5e-3)
    params = (a, a, d, Branch[branch.upper()])

    def sampler(z, y, t):
        return exact_uh_const(const_wave(*params), z, y, t)

    expected, worst = [], [0.0, 0.0]
    for t in linspace(0.0, 1.0, nt):
        for z in linspace(-5.0, 5.0, nz):
            r1, r2 = residuals(fd_residual_1d(sampler, (z, 0.0, t), cfg))
            u, h = sampler(z, 0.0, t)
            phi = exact_phi_const(const_wave(*params), z, 0.0, t)
            expected.append([z, 0.0, t, phi, u, h, r1, r2])
            worst = [max(worst[0], abs(r1)), max(worst[1], abs(r2))]
    _, rows = read_csv(target)
    assert [[float(value) for value in row] for row in rows] == expected
    assert code == (0 if max(worst) <= threshold else 1)


# where each `reduce` grid flag lands in the document it builds
REDUCE_GRID_FLAGS = {
    "--z0": ("x", 0), "--z1": ("x", 1), "--nz": ("x", 2),
    "--t0": ("t", 0), "--t1": ("t", 1), "--nt": ("t", 2),
}


def reduce_equivalent(argv):
    """The exact-const document and `run` flags equivalent to `reduce *argv`."""
    a, d, *flags = argv
    flags = [part for flag in flags for part in flag.split("=", 1)]  # --z0=-1e308
    grid = {"x": [-5.0, 5.0, 41], "y": [0.0, 0.0, 1], "t": [0.0, 1.0, 5]}
    run_flags = []
    for flag, value in zip(flags[::2], flags[1::2]):
        if flag in REDUCE_GRID_FLAGS:
            axis, pos = REDUCE_GRID_FLAGS[flag]
            grid[axis][pos] = int(value) if pos == 2 else float(value)
        else:
            run_flags += [flag, value]
    config = {
        "branch": "plus",
        "solution_path": "exact-const",
        "params": {"a": float(a), "c": float(a), "d": float(d)},
        "grid": grid,
    }
    return config, run_flags


NOT_FINITE = "expected a finite number, got"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["1", "0", "--nz", "0"], "grid: x count must be >= 1", id="nz-0"),
        pytest.param(["1", "0", "--nt", "0"], "grid: t count must be >= 1", id="nt-0"),
        pytest.param(
            ["1", "0", "--nt", "-3"], "grid: t count must be >= 1", id="nt-negative"
        ),
        pytest.param(
            ["1", "0", "--step", "0"], "stencil: step must be positive", id="step-0"
        ),
        pytest.param(
            ["1", "0", "--z0", "5", "--z1", "-5"],
            "grid: x range must be ordered",
            id="z-reversed",
        ),
        pytest.param(
            ["1", "0", "--t0", "1", "--t1", "0"],
            "grid: t range must be ordered",
            id="t-reversed",
        ),
        pytest.param(
            ["1", "0", "--z0=-1e308", "--z1=1e308"],
            "grid: x range gives a non-finite coordinate",
            id="z-past-the-float-range",
        ),
        pytest.param(["nan", "0"], f"params.a: {NOT_FINITE} nan", id="a-nan"),
        pytest.param(["1", "inf"], f"params.d: {NOT_FINITE} inf", id="d-inf"),
        pytest.param(
            ["1", "0", "--nz", "1", "--z0", "inf", "--z1", "inf"],
            f"grid.x[0]: {NOT_FINITE} inf",
            id="z0-inf",
        ),
        pytest.param(
            ["1", "0", "--z1", "inf"], f"grid.x[1]: {NOT_FINITE} inf", id="z1-inf"
        ),
        pytest.param(
            ["1", "0", "--t0", "nan"], f"grid.t[0]: {NOT_FINITE} nan", id="t0-nan"
        ),
        pytest.param(
            ["1", "0", "--t1", "inf"], f"grid.t[1]: {NOT_FINITE} inf", id="t1-inf"
        ),
        pytest.param(
            ["1", "0", "--step", "inf"],
            f"stencil.step: {NOT_FINITE} inf",
            id="step-inf",
        ),
        pytest.param(
            ["1", "0", "--threshold", "nan"],
            f"thresholds.max_residual: {NOT_FINITE} nan",
            id="threshold-nan",
        ),
        pytest.param(
            ["1", "0", "--threshold", "-1"],
            "thresholds.max_residual: must be positive",
            id="threshold-negative",
        ),
        pytest.param(
            ["1", "0", "--threshold", "0"],
            "thresholds.max_residual: must be positive",
            id="threshold-zero",
        ),
    ],
)
def test_reduce_input_errors_read_as_run_errors(tmp_path, capsys, argv, message):
    assert main(["reduce", *argv]) == 2
    reduced = capsys.readouterr()
    config, run_flags = reduce_equivalent(argv)
    assert main(["run", write_config(tmp_path, config), *run_flags]) == 2
    ran = capsys.readouterr()
    assert reduced.out == ran.out == ""
    assert reduced.err == f"error: reduce.{message}\n"
    assert reduced.err == ran.err.replace("error: config.", "error: reduce.")


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
    # the second input takes branch, step and threshold from the document defaults
    summaries = {
        "--branch minus": (
            "reduce: branch minus, exact-const path, grid 7x1x3, step 0.005\n"
            "  max residual: r1 = 2.250879e-08, r2 = 2.063504e-08 (threshold 1e-05)\n"
            "  mean residual: r1 = 9.572973e-09, r2 = 8.027050e-09; evaluated 21 points\n"
        ),
        "": (
            "reduce: branch plus, exact-const path, grid 7x1x3, step 0.005\n"
            "  max residual: r1 = 2.435306e-08, r2 = 2.063504e-08 (threshold 1e-05)\n"
            "  mean residual: r1 = 1.006041e-08, r2 = 8.446975e-09; evaluated 21 points\n"
        ),
    }
    for flags, summary in summaries.items():
        argv = ["reduce", "0.5", "0.3", *flags.split(), "--nz", "7", "--nt", "3"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == summary + "  verdict: PASS\n"
        assert captured.err == "reduce: skipped 0 pole-adjacent points\n"


def test_reduce_phi_overflow_writes_inf(tmp_path, capsys):
    target = tmp_path / "far.csv"
    assert main(["reduce", "1.0", "800", "--nz", "3", "--output", str(target)]) == 0
    capsys.readouterr()
    _, rows = read_csv(target)
    assert {row[3] for row in rows} == {"inf"}


# -- stencil step range -------------------------------------------------------------------


OUT_OF_RANGE = "is out of range: its square and cube must be nonzero and finite"


def step_argv(tmp_path, command, step):
    """`command` with `--step step`, on the base document (one entry for sweep)."""
    if command == "reduce":
        return ["reduce", "1", "0", "--step", step]
    config = base_config(sweep=[{}]) if command == "sweep" else base_config()
    return [command, write_config(tmp_path, config), "--step", step]


@pytest.mark.parametrize(
    "command, step, where",
    [
        ("run", "1e-200", "config.stencil"),
        ("run", "1e-160", "config.stencil"),
        ("run", "1e300", "config.stencil"),
        ("sweep", "1e-200", "sweep[0].stencil"),
        ("sweep", "1e103", "sweep[0].stencil"),
        ("reduce", "1e-160", "reduce.stencil"),
        ("reduce", "1e300", "reduce.stencil"),
    ],
)
def test_step_the_stencils_cannot_divide_by_exits_2(tmp_path, capsys, command, step, where):
    assert main(step_argv(tmp_path, command, step)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: step {float(step)!r} {OUT_OF_RANGE}\n"


@pytest.mark.parametrize(
    "command, step, where, coordinate",
    [
        ("run", "1e-17", "config.stencil", -1.0),
        ("run", "1e-100", "config.stencil", -1.0),
        ("sweep", "1e-17", "sweep[0].stencil", -1.0),
        ("reduce", "1e-17", "reduce.stencil", -5.0),
        ("reduce", "1e-100", "reduce.stencil", -5.0),
    ],
)
def test_step_that_leaves_a_grid_coordinate_unchanged_exits_2(
    tmp_path, capsys, command, step, where, coordinate
):
    assert main(step_argv(tmp_path, command, step)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {where}: step {float(step)!r} leaves the coordinate "
        f"{coordinate!r} unchanged\n"
    )


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


@pytest.mark.parametrize("value", (5, None, "ab", {"a": 1}), ids=repr)
@pytest.mark.parametrize("key", ("seed.kernels", "outputs"))
@pytest.mark.parametrize("command, csv_flag", [("run", False), ("run", True), ("sweep", False)])
def test_non_list_kernels_or_outputs_exits_2(tmp_path, capsys, command, csv_flag, key, value):
    edit = {"seed": {"kernels": value}} if key == "seed.kernels" else {"outputs": value}
    if command == "sweep":
        config, where = base_config(sweep=[edit]), "sweep[0]"
    else:
        config, where = merge_config(base_config(), edit), "config"
    extra = tmp_path / "extra.csv"
    flags = ["--output", str(extra)] if csv_flag else []
    assert main([command, write_config(tmp_path, config), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}.{key}: expected a list\n"
    assert not extra.exists()


_NON_OBJECTS = [
    ("run", {"seed": 5}, "config.seed"),
    ("run", {"seed": {"kernels": ["ab"]}}, "config.seed.kernels[0]"),
    ("run", {"seed": {"poly": [1]}}, "config.seed.poly"),
    ("run", {"grid": None}, "config.grid"),
    ("run", {"solution_path": "exact-const", "params": 5}, "config.params"),
    ("run", {"stencil": [5e-3]}, "config.stencil"),
    ("run", {"thresholds": 1e-5}, "config.thresholds"),
    ("run", {"outputs": [None]}, "config.outputs[0]"),
    ("run", {"debug": "ab"}, "config.debug"),
    ("sweep", {"sweep": [5]}, "sweep[0]"),
]


@pytest.mark.parametrize(
    "command, edit, where", _NON_OBJECTS, ids=[where for _, _, where in _NON_OBJECTS]
)
def test_non_object_exits_2_naming_its_key(tmp_path, capsys, command, edit, where):
    config = merge_config(base_config(), edit)
    assert main([command, write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: expected an object\n"


_UNKNOWN_KEYS = [
    ("run", {"threshold": {"max_residual": 1e-12}}, "config", "threshold"),
    ("run", {"seed": {"kind": "kernels", "kernel": []}}, "config.seed", "kernel"),
    (
        "run",
        {"seed": {"kernels": [{"amplitud": 2.0, "a": "1", "b": "y"}]}},
        "config.seed.kernels[0]",
        "amplitud",
    ),
    (
        "run",
        {"seed": {"kind": "mixed", "poly": {"c3": "1"}}},
        "config.seed.poly",
        "c3",
    ),
    (
        "run",
        {"solution_path": "exact-const", "params": {"a": 1, "c": 1, "d": 0, "e": 0}},
        "config.params",
        "e",
    ),
    ("run", {"grid": {"z": [0.0, 1.0, 2]}}, "config.grid", "z"),
    ("run", {"stencil": {"steps": 1e-3}}, "config.stencil", "steps"),
    ("run", {"thresholds": {"max_residuals": 1.0}}, "config.thresholds", "max_residuals"),
    ("run", {"outputs": [{"format": "csv", "file": "a.csv"}]}, "config.outputs[0]", "file"),
    ("sweep", {"sweep": [{"brnach": "minus"}]}, "sweep[0]", "brnach"),
    ("sweep", {"sweep": [{"debug": {"perturb_hh": 1e-3}}]}, "sweep[0].debug", "perturb_hh"),
]


@pytest.mark.parametrize(
    "command, edit, where, key",
    _UNKNOWN_KEYS,
    ids=[f"{where}.{key}" for _, _, where, key in _UNKNOWN_KEYS],
)
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, command, edit, where, key):
    # a misspelt key used to be ignored, so a negative control could PASS
    config = merge_config(base_config(), edit)
    assert main([command, write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: unknown key {key!r}\n"


# -- outputs ----------------------------------------------------------------------------


@pytest.mark.parametrize("command", ("run", "sweep"))
@pytest.mark.parametrize(
    "bad, errno_code",
    [("no/such/dir/second.csv", errno.ENOENT), ("a_directory", errno.EISDIR)],
    ids=("missing_directory", "directory"),
)
def test_unwritable_output_leaves_every_file_as_it_was(
    tmp_path, capsys, monkeypatch, command, bad, errno_code
):
    # outputs are all-or-nothing: one that cannot be written keeps the others
    # from being created or replaced, and leaves no temporary behind
    monkeypatch.chdir(tmp_path)
    Path("a_directory").mkdir()
    Path("kept.json").write_text("old\n")
    outputs = [
        {"format": "csv", "path": "first.csv"},
        {"format": "report", "path": "kept.json"},
    ]
    last = {"format": "csv", "path": bad}
    if command == "run":
        config = base_config(outputs=[*outputs, last])
    else:
        config = base_config()
        config["sweep"] = [{"outputs": outputs}, {}, {"outputs": [last]}]
    assert main([command, write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {bad}: {os.strerror(errno_code)}\n"
    assert sorted(os.listdir(tmp_path)) == ["a_directory", "kept.json", "scenario.json"]
    assert os.listdir("a_directory") == []
    assert Path("kept.json").read_text() == "old\n"


OUTPUT_ARGV = (
    ["derive", "--output"],
    ["run", "scenario.json", "--output"],
    ["reduce", "1", "0", "--nz", "3", "--nt", "1", "--output"],
)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("argv", OUTPUT_ARGV, ids=("derive", "run", "reduce"))
@pytest.mark.parametrize("name", ("pipe", "link", "p" * (PATH_SHOWN + 10)),
                         ids=("fifo", "link-to-fifo", "long-name"))
def test_an_output_that_is_not_a_regular_file_exits_2_and_is_kept(
    tmp_path, capsys, monkeypatch, argv, name
):
    # a FIFO is neither opened, which would block, nor replaced by a file
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, base_config())
    os.mkfifo("pipe")
    if name == "link":
        os.symlink("pipe", "link")
    elif name != "pipe":
        os.mkfifo(name)
    assert main([*argv, name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = name if len(name) <= PATH_SHOWN else name[:PATH_SHOWN] + "..."
    assert captured.err == f"error: cannot write {shown}: not a regular file\n"
    assert stat.S_ISFIFO(os.stat(name).st_mode)
    assert os.path.islink("link") is (name == "link")
    assert len(os.listdir(tmp_path)) == (3 if name != "pipe" else 2)


@pytest.mark.parametrize("argv", OUTPUT_ARGV, ids=("derive", "run", "reduce"))
@pytest.mark.parametrize("target", ("real.csv", "sub/real.csv", "sub/new.csv"),
                         ids=("file", "file-elsewhere", "new-file"))
def test_a_link_output_is_written_through_and_kept(tmp_path, capsys, monkeypatch, argv,
                                                    target):
    # the temporary goes beside the file the link names, which it replaces
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, base_config())
    assert main([*argv, "plain.out"]) in (0, 1)
    Path("sub").mkdir()
    if target != "sub/new.csv":
        Path(target).write_text("old\n")
    os.symlink(target, "link.out")
    assert main([*argv, "link.out"]) in (0, 1)
    capsys.readouterr()
    assert os.readlink("link.out") == target
    assert Path(target).read_bytes() == Path("plain.out").read_bytes()
    assert not [name for name in os.listdir(tmp_path) + os.listdir("sub")
                if name.endswith(".tmp")]


@pytest.mark.parametrize("command", ("run", "sweep"))
def test_a_link_and_its_target_as_two_outputs_exit_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    os.symlink("real.csv", "link.csv")
    outputs = [{"format": "csv", "path": "real.csv"}, {"format": "report", "path": "link.csv"}]
    config = base_config(outputs=outputs)
    if command == "sweep":
        config["sweep"] = [{}]
    assert main([command, write_config(tmp_path, config)]) == 2
    key = "config" if command == "run" else "sweep[0]"
    assert capsys.readouterr().err == (
        f"error: {key}.outputs[1].path: same file as {key}.outputs[0].path\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "scenario.json"]


def test_a_link_to_the_document_as_an_output_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    document = write_config(tmp_path, base_config())
    os.symlink("scenario.json", "link.csv")
    assert main(["run", document, "--output", "link.csv"]) == 2
    assert capsys.readouterr().err == (
        "error: config.outputs[0].path: same file as the document\n"
    )
    assert json.loads(Path(document).read_text()) == base_config()

def test_an_interrupt_mid_walk_leaves_no_output_and_no_sibling(tmp_path, monkeypatch):
    # Ctrl-C part way through the second entry's walk, after the first
    # entry's CSV and the second's header are on disk, removes both siblings
    # and reaches the caller as it was raised
    monkeypatch.chdir(tmp_path)
    config = base_config()
    config["sweep"] = [
        {"outputs": [{"format": "csv", "path": "first.csv"}]},
        {"outputs": [{"format": "csv", "path": "second.csv"}]},
    ]
    document = write_config(tmp_path, config)
    interrupt = KeyboardInterrupt()
    build_sampler = dlw.scenario.build_sampler
    runs = []

    def build(sc):
        sampler, phi_value = build_sampler(sc)
        runs.append(sc)
        calls = 0

        def interrupted(x, y, t):
            nonlocal calls
            calls += 1
            if len(runs) == 2 and calls == 100:
                assert sorted(os.listdir(tmp_path))[:2] == [
                    f".first.csv.{os.getpid()}.0.tmp", f".second.csv.{os.getpid()}.1.tmp"
                ]
                raise interrupt
            return sampler(x, y, t)

        return interrupted, phi_value

    monkeypatch.setattr(dlw.scenario, "build_sampler", build)
    with pytest.raises(KeyboardInterrupt) as raised:
        main(["sweep", document])
    assert raised.value is interrupt
    assert len(runs) == 2
    assert os.listdir(tmp_path) == ["scenario.json"]


@pytest.mark.parametrize(
    "fmt, error",
    [
        ("csv", f"cannot write no/such/dir/out: {os.strerror(errno.ENOENT)}"),
        ("report", "field evaluation failed: config.seed.kernels[0].b at y = 0.0: "
                   "division by zero"),
    ],
)
def test_an_unwritable_csv_is_reported_before_its_run_is_evaluated(
    tmp_path, capsys, monkeypatch, fmt, error
):
    # a CSV output is opened before its run's walk, a report once the walk
    # is done: which error a run with both reports follows from that
    monkeypatch.chdir(tmp_path)
    config = base_config(outputs=[{"format": fmt, "path": "no/such/dir/out"}])
    config["seed"]["kernels"][0]["b"] = "1/y"
    assert main(["run", write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert os.listdir(tmp_path) == ["scenario.json"]


def test_a_second_csv_of_one_run_holds_the_bytes_of_the_first(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = base_config(outputs=[
        {"format": "csv", "path": "first.csv"},
        {"format": "report", "path": "report.json"},
        {"format": "csv", "path": "second.csv"},
    ])
    assert main(["run", write_config(tmp_path, config)]) == 0
    capsys.readouterr()
    assert Path("second.csv").read_bytes() == Path("first.csv").read_bytes()
    assert read_csv(Path("first.csv"))[0] == CSV_HEADER
    assert len(read_csv(Path("first.csv"))[1]) == 4 * 3 * 2
    assert sorted(os.listdir(tmp_path)) == [
        "first.csv", "report.json", "scenario.json", "second.csv"
    ]


class FullDisk:
    """A text write handle on a disk with room for 40 more characters: a
    write or writelines call writes what fits, then raises ENOSPC."""

    def __init__(self, handle):
        self.handle = handle
        self.room = 40

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: self.room])
        if len(text) > self.room:
            self.room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize(
    "argv",
    (
        ["derive", "--output", "out"],
        ["run", "scenario.json", "--output", "out"],
        ["reduce", "1", "0", "--nz", "3", "--output", "out"],
    ),
    ids=("derive", "run", "reduce"),
)
def test_a_write_that_fails_part_way_leaves_nothing(tmp_path, capsys, monkeypatch, argv):
    # every command writes through the one all-or-none writer: a disk that
    # fills mid-file leaves neither the output nor its temporary sibling
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, base_config())

    real_open = Path.open

    def full_disk_open(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        return handle if "w" not in mode else FullDisk(handle)

    monkeypatch.setattr(Path, "open", full_disk_open)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write out: {os.strerror(errno.ENOSPC)}\n"
    assert os.listdir(tmp_path) == ["scenario.json"]


@pytest.mark.parametrize("error", (ValueError("bad value"), KeyboardInterrupt()),
                         ids=("ValueError", "KeyboardInterrupt"))
def test_any_exception_mid_write_removes_every_sibling(tmp_path, monkeypatch, error):
    # an exception that is not an OSError, Ctrl-C included, still removes the
    # siblings already written and the one being written, and propagates as is
    monkeypatch.chdir(tmp_path)

    with pytest.raises(type(error)) as raised:
        with dlw.cli.write_outputs() as sibling:
            sibling("first.csv").write_text("done\n")
            with sibling("out.csv").open("w") as handle:
                handle.write("x,y,t\n")
                raise error
    assert raised.value is error
    assert not hasattr(error, "filename")
    assert os.listdir(tmp_path) == []


class ClosedPipe:
    """A standard output whose reader has gone, as in `dlw derive | head -0`."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv", (["derive"], ["reduce", "1", "0", "--nz", "3"]), ids=("derive", "reduce")
)
def test_closed_standard_output_exits_2(monkeypatch, capsys, argv):
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(argv) == 2
    reason = os.strerror(errno.EPIPE)
    expected = f"error: cannot write standard output: {reason}\n"
    assert capsys.readouterr().err == expected


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


# -- probe corpus -----------------------------------------------------------------------


def _probe_test(paths):
    """A test that checks every probe file in `paths` through main."""

    def check(path, tmp_path):
        probe = run_probes.load(path.stem)
        assert run_probes.check(probe, run_probes.in_process, tmp_path) == []

    if len(paths) == 1 and "." not in paths[0].stem:
        return lambda tmp_path: check(paths[0], tmp_path)
    ids = [path.stem.partition(".")[2] for path in paths]
    return pytest.mark.parametrize("path", paths, ids=ids)(check)


# each probe is the test named after its file, so a check that moved from a
# test written here into the corpus kept its test id: probes/<name>.json is
# test_<name>, and probes/<name>.<case>.json is the case <case> of test_<name>
_TESTS = {}
for _path in sorted(run_probes.CORPUS.glob("*.json")):
    _TESTS.setdefault("test_" + _path.stem.partition(".")[0], []).append(_path)
for _name, _paths in _TESTS.items():
    assert _name not in globals(), f"{_name} is also written by hand"
    globals()[_name] = _probe_test(_paths)


def test_a_probe_names_only_keys_it_checks_and_each_once(tmp_path, monkeypatch):
    # a misspelt key would otherwise check nothing
    probe = {**run_probes.load("derive_writes_a_strict_report"), "stdot": []}
    problems = run_probes.check(probe, run_probes.in_process, tmp_path)
    assert problems == ["unknown key 'stdot'"]
    monkeypatch.setattr(run_probes, "CORPUS", tmp_path)
    (tmp_path / "twice.json").write_text('{"argv": [], "files": {"a": "1", "a": "2"}}')
    with pytest.raises(ValueError, match=r"^twice\.json: duplicate key 'a'$"):
        run_probes.load("twice")
    (tmp_path / "list.json").write_text("[]")
    with pytest.raises(ValueError, match=r"^list\.json: expected an object$"):
        run_probes.load("list")


def test_a_bad_probe_fails_and_the_run_goes_on(tmp_path, monkeypatch, capsys):
    # a probe missing a key, or a file that cannot be loaded, fails alone;
    # the golden table checked after the corpus is an empty one here
    monkeypatch.setattr(run_probes, "CORPUS", tmp_path)
    monkeypatch.setattr(run_probes, "GOLDEN", tmp_path / "golden" / "golden.json")
    run_probes.GOLDEN.parent.mkdir()
    run_probes.GOLDEN.write_text("{}")
    (tmp_path / "good.json").write_text('{"argv": [], "exit": 0, "stderr": []}')
    (tmp_path / "no_exit.json").write_text('{"argv": [], "stderr": []}')
    (tmp_path / "twice.json").write_text('{"argv": [], "argv": [], "exit": 0}')
    assert run_probes.main([sys.executable, "-c", "pass"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ok good.json",
        "FAIL no_exit.json",
        "  missing key 'exit'",
        "FAIL twice.json",
        "  twice.json: duplicate key 'argv'",
        "2 of 3 probes failed",
        "0 of 0 golden rows failed",
    ]


@pytest.mark.parametrize("text", [None, "[]", "{"], ids=["missing", "list", "malformed"])
def test_a_golden_table_that_cannot_be_read_fails_the_run(
    tmp_path, monkeypatch, capsys, text
):
    # a missing table is a failure, not a skip: CI checks it after the corpus
    monkeypatch.setattr(run_probes, "CORPUS", tmp_path / "probes")
    run_probes.CORPUS.mkdir()
    monkeypatch.setattr(run_probes, "GOLDEN", tmp_path / "golden.json")
    if text is not None:
        run_probes.GOLDEN.write_text(text)
    assert run_probes.main([sys.executable, "-c", "pass"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["0 of 0 probes failed", "FAIL golden.json"]
    assert lines[2].startswith("  cannot read the golden table: ") and len(lines) == 3


def test_a_golden_row_that_differs_fails_naming_its_first_differing_line(
    tmp_path, monkeypatch, capsys
):
    # the run goes on past a failing row; here derive's row pins reduce's stdout
    monkeypatch.setattr(run_probes, "CORPUS", tmp_path / "probes")
    run_probes.CORPUS.mkdir()
    monkeypatch.setattr(run_probes, "GOLDEN", tmp_path / "golden.json")
    reduce_row = run_probes.pin(["reduce", "1", "0"], run_probes.in_process)
    derive_row = run_probes.pin(["derive"], run_probes.in_process)
    derive_row["stdout"] = reduce_row["stdout"]
    run_probes.GOLDEN.write_text(json.dumps({"reduce 1 0": reduce_row, "derive": derive_row}))
    monkeypatch.setenv("PYTHONPATH", str(Path(dlw.__file__).parents[1]))
    assert run_probes.main([sys.executable, "-m", "dlw.cli"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 of 0 probes failed",
        "ok reduce 1 0",
        "FAIL derive",
        "  stdout line 1 now reads b'balance exponents: (l,m,n,p,q,r) = (1,0,0,1,1,0)\\n'",
        "1 of 2 golden rows failed",
    ]


def test_the_corpus_runs_through_a_command(tmp_path, monkeypatch):
    # the mode that checks the installed script: exit 0 with a CSV check,
    # exit 1 with a report check, and exit 2
    monkeypatch.setenv("PYTHONPATH", str(Path(dlw.__file__).parents[1]))
    invoke = run_probes.command_invoker([sys.executable, "-m", "dlw.cli"])
    for name in (
        "exact_path_far_field_writes_inf_phi",
        "pole_skipped_point_writes_a_strict_report",
        "kernel_overflow_names_its_kernel",
    ):
        (tmp_path / name).mkdir()
        assert run_probes.check(run_probes.load(name), invoke, tmp_path / name) == []


def test_a_relative_pythonpath_names_the_same_directory_for_a_command(tmp_path, monkeypatch):
    # each probe runs in its own empty directory, where a relative `src`
    # would name nothing, or let an installed dlw answer in its place
    monkeypatch.chdir(run_probes.ROOT)
    monkeypatch.setenv("PYTHONPATH", "src")
    invoke = run_probes.command_invoker([sys.executable, "-m", "dlw.cli"])
    name = "exact_path_far_field_writes_inf_phi"
    assert run_probes.check(run_probes.load(name), invoke, tmp_path) == []
    where = run_probes.command_invoker([sys.executable, "-c", "import dlw; print(dlw.__file__)"])
    code, out, _ = where([], tmp_path)
    assert (code, out) == (0, f"{run_probes.ROOT / 'src' / 'dlw' / '__init__.py'}\n")


# the `raise ConfigError` sites that no probe reaches, by their longest literal
UNPROBED_INPUT_ERRORS = {
    ": not UTF-8 text: ": "a probe writes its documents as text; "
    "test_run_rejects_non_utf8_config covers it",
    ": nested too deeply": "a probe would spell out a document a thousand levels "
    "deep; test_run_rejects_a_document_nested_too_deeply covers it",
}


def _input_error_literals():
    """(site, longest literal part of its message) of every `raise
    ConfigError(...)` in the modules that validate documents and flags."""
    for module in (dlw.scenario, dlw.cli):
        path = Path(module.__file__)
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ConfigError"
            ):
                continue
            message = node.exc.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            literals = [part.value for part in parts if isinstance(part, ast.Constant)]
            yield f"{path.name}:{node.lineno}", max(literals, key=len, default="")


def test_every_input_error_is_probed():
    # a literal under 8 characters, such as the ": " of f"{where}: {exc}",
    # names no one error
    stderr = "\n".join(
        line
        for path in run_probes.CORPUS.glob("*.json")
        for line in run_probes.load(path.stem)["stderr"]
    )
    sites = list(_input_error_literals())
    unprobed = [
        f"{site} {literal!r}"
        for site, literal in sites
        if len(literal) >= 8
        and literal not in UNPROBED_INPUT_ERRORS
        and literal not in stderr
    ]
    assert unprobed == []
    # and every exemption still names a site
    assert UNPROBED_INPUT_ERRORS.keys() <= {literal for _, literal in sites}


def test_every_flag_is_probed():
    # the corpus also runs against the installed script, so a flag no probe
    # passes would reach no check there; `--` ends the options
    subparsers = next(
        action
        for action in dlw.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        (command, option)
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    probed = set()
    for path in run_probes.CORPUS.glob("*.json"):
        command, *rest = run_probes.load(path.stem)["argv"]
        for arg in itertools.takewhile(lambda arg: arg != "--", rest):
            probed.add((command, arg.partition("=")[0]))
    unprobed = sorted(f"{command} {option}" for command, option in flags - probed)
    assert not unprobed, f"no probe passes {', '.join(unprobed)}"


# -- generated documents ------------------------------------------------------------------


# the longest `error:` line a document can make: one file name or key path
# cut at PATH_SHOWN characters and one value cut at SHOWN, each with its
# "...", in at most 100 characters of the message's own text
ERROR_LINE_BOUND = PATH_SHOWN + SHOWN + 2 * len("...") + 100
MEAN_RESIDUAL = re.compile(r"mean residual: r1 = (\S+), r2 = (\S+);")
THRESHOLD = re.compile(r"\(threshold (\S+)\)")


def _main_on(argv, raw):
    """(exit code, stdout, stderr, {name: bytes} of every other file left)
    of `main(argv)` run in a new directory that holds `raw` as doc.json."""
    with tempfile.TemporaryDirectory() as workdir:
        Path(workdir, "doc.json").write_text(json_text(raw))
        code, out, err = run_probes.in_process(argv, workdir)
        left = {path.name: path.read_bytes() for path in Path(workdir).iterdir()}
    del left["doc.json"]
    return code, out, err, left


def _as_sweep(text):
    """`run`'s output, labelled as `sweep` labels its entry 0."""
    return re.sub("^run:", "sweep[0]:", text, flags=re.MULTILINE)


@settings(max_examples=200)
@given(raw=scenarios() | mutated(scenarios()))
@example(raw=base_config(outputs=[{"format": "csv", "path": "missing/" + "p" * 300}],
                         sweep=[{}]))
def test_main_keeps_its_exit_contract_on_generated_documents(raw):
    # valid and defective documents of at most 3x3x2 points, through `run`
    # and `sweep`: main returns 0, 1 or 2 and raises nothing; 2 is one
    # `error:` line of at most ERROR_LINE_BOUND characters, no standard
    # output and no file; 0 is finite maxima over some evaluated point and
    # each mean within its threshold; no temporary sibling outlives a command
    outcomes = {}
    for command in ("run", "sweep"):
        code, out, err, left = outcomes[command] = _main_on([command, "doc.json"], raw)
        assert code in (0, 1, 2), (command, code, err)
        assert not any(map(run_probes.TEMPORARY.fullmatch, left)), left
        if code == 2:
            assert (out, left) == ("", {}), (command, err)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert len(err) - 1 <= ERROR_LINE_BOUND, err
        if code == 0:
            maxima = [float(value) for pair in MAX_RESIDUAL.findall(out) for value in pair]
            evaluated = [int(n) for n in re.findall(r"evaluated (\d+) points", out)]
            assert maxima and all(map(math.isfinite, maxima)), out
            assert evaluated and min(evaluated) > 0, out
            means = MEAN_RESIDUAL.findall(out)
            thresholds = [float(value) for value in THRESHOLD.findall(out)]
            assert len(means) == len(thresholds), out
            for pair, threshold in zip(means, thresholds):
                assert all(float(mean) <= threshold for mean in pair), out
    # a sweep of one entry is `run` on that entry merged onto the document:
    # the same exit, files and summaries, and on exit 2 an error of its own
    entries = raw.get("sweep")
    if isinstance(entries, list) and len(entries) == 1 and isinstance(entries[0], dict):
        base = {key: value for key, value in raw.items() if key != "sweep"}
        code, out, err, left = _main_on(["run", "doc.json"], merge_config(base, entries[0]))
        swept_code, swept_out, swept_err, swept_left = outcomes["sweep"]
        assert (code, _as_sweep(out), left) == (swept_code, swept_out, swept_left), err
        if code != 2:
            assert _as_sweep(err) == swept_err
