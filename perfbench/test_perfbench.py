"""Tests of the benchmark harness itself (generator, tracer, gate, runner)."""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dlw.cli  # noqa: E402

from perfbench import gate, run, workloads  # noqa: E402
from perfbench import tracer as tracer_module  # noqa: E402
from perfbench.reference import Meter  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def _write_documents(ops, directory: Path) -> None:
    for op in ops:
        if op.document is not None:
            (directory / f"{op.name}.json").write_text(op.document)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    if workload != "derive":
        assert first != workloads.generate(workload, 8)


def test_expectations_are_fixed_before_running():
    ops = workloads.kernel_field(3) + workloads.closed_form(3)
    for op in ops:
        raw = json.loads(op.document) if op.document else {}
        negative = "debug" in raw
        assert op.expect == ("FAIL" if negative else "PASS")
        assert len(op.skipped) == len(op.points)
    poles = [op for op in ops if op.name == "pole"]
    assert poles and all(op.skipped[0] > 0 for op in poles)


def test_self_time_on_a_synthetic_call_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    def leaf():
        advance(6.0)

    def inner():
        advance(4.0)
        tracer.span("leaf", leaf)
        advance(5.0)

    def outer():
        advance(1.0)
        tracer.span("inner", inner)
        advance(2.0)
        tracer.span("inner", inner)
        advance(3.0)

    tracer.span("outer", outer)
    leaf_stat, inner_stat, outer_stat = (
        tracer.stat(name) for name in ("leaf", "inner", "outer")
    )
    assert (leaf_stat.calls, leaf_stat.total, leaf_stat.self_time) == (2, 12.0, 12.0)
    assert (inner_stat.calls, inner_stat.total, inner_stat.self_time) == (2, 30.0, 18.0)
    assert (outer_stat.calls, outer_stat.total, outer_stat.self_time) == (1, 36.0, 6.0)
    assert tracer.root_time == 36.0


def test_hook_time_is_charged_to_no_span(monkeypatch):
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    monkeypatch.setitem(tracer_module.AFTER, "leaf", lambda tracer, args: advance(100.0))

    def outer():
        advance(1.0)
        tracer.span("leaf", advance, 6.0)
        advance(2.0)

    tracer.span("outer", outer)
    assert tracer.stat("leaf").self_time == 6.0
    assert tracer.stat("outer").self_time == 3.0
    assert tracer.children["outer", "leaf"] == 1


def test_meter_samples_inside_the_block_and_leaves_the_samples_out():
    meter = Meter()
    with meter:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    assert len(meter._samples) >= 5  # two edges, and more every INTERVAL
    assert meter.seconds < 0.05
    assert meter.scaled is not None and meter.scaled > 0


def test_gate_flags_a_negative_control_relabelled_as_genuine(tmp_path, monkeypatch):
    control = next(op for op in workloads.closed_form(5) if op.name == "const_neg")
    _write_documents([control], tmp_path)
    monkeypatch.chdir(tmp_path)
    assert gate.run_op(dlw.cli.main, control, tmp_path).problems == []
    relabelled = dataclasses.replace(control, expect="PASS")
    problems = gate.run_op(dlw.cli.main, relabelled, tmp_path).problems
    assert any("exit code 1" in p for p in problems)
    assert any("verdicts" in p for p in problems)


def _bindings() -> dict:
    """Every attribute of every dlw module and class, by identity."""
    found = {}
    for key, module in list(sys.modules.items()):
        if key == "dlw" or key.startswith("dlw."):
            for attr, value in vars(module).items():
                found[(key, attr)] = id(value)
                if isinstance(value, type):
                    for name, member in vars(value).items():
                        found[(key, attr, name)] = id(member)
    return found


def test_no_dlw_function_stays_patched_after_a_traced_run(tmp_path, monkeypatch):
    ops = [op for op in workloads.kernel_field(2) if op.name in ("pole", "k1_exact")]
    ops += [op for op in workloads.closed_form(2) if op.name in ("const_0", "reduce_0")]
    _write_documents(ops, tmp_path)
    monkeypatch.chdir(tmp_path)
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        assert _bindings() != before
        for op in ops:
            assert gate.run_op(dlw.cli.main, op, tmp_path).problems == []
    assert _bindings() == before
    assert tracer.missing == []
    assert tracer.stat("seeds.partials").calls > 0
    assert tracer.stat("transform.exact_uh_const").calls > 0
    assert tracer.stat("transform.transform_point").errors["PoleError"] > 0
    assert "scenario.build_sampler" not in tracer.stats  # counted, not timed


def _traced_values(ops, tmp_path, monkeypatch):
    _write_documents(ops, tmp_path)
    monkeypatch.chdir(tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = run.Ledger()
    values, _ = run.traced(dlw.cli.main, ops, tmp_path, 0, ledger, spec["per_layer"])
    assert ledger.failed == 0, ledger.problems
    return values


def test_traced_sample_counts_match_the_stencil(tmp_path, monkeypatch):
    ops = [op for op in workloads.closed_form(4) if op.name == "const_0"]
    values = _traced_values(ops, tmp_path, monkeypatch)
    assert values["residual.fd_residual_dlw.samples_per_call"] == 15
    # the re-sampled centre and the phi column
    assert values["scenario.evaluate_scenario.extra_samples_per_point"] == 2
    assert values["exprlang.eval_dual.calls"] == 0


def test_a_renamed_target_reads_missing_not_zero(tmp_path, monkeypatch):
    renamed = tuple(
        (name, module, "build_sampler_renamed" if attr == "build_sampler" else attr)
        for name, module, attr in tracer_module.TARGETS
    )
    monkeypatch.setattr(tracer_module, "TARGETS", renamed)
    ops = [op for op in workloads.closed_form(4) if op.name == "const_0"]
    values = _traced_values(ops, tmp_path, monkeypatch)
    assert values["scenario.evaluate_scenario.extra_samples_per_point"] is None
    assert values["residual.fd_residual_dlw.samples_per_call"] == 15


def test_traced_derive_reports_every_layer_metric(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    run.main(["--workload", "derive", "--seed", "0", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in spec["per_layer"]}
    assert result["metrics"]["balance.solve_balance_exponents.calls"]["value"] == 5


def test_every_layer_metric_names_the_end_to_end_metric_it_moves():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    for entry in spec["per_layer"]:
        layer = layers[entry["name"].rpartition(".")[0]]
        assert layer["moves"] is None or layer["moves"] in end_to_end
        assert set(layer["workloads"]) <= set(workloads.WORKLOADS)
