"""Tests for tools/ab.py, the A/B comparison of two trees on the benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
VERDICTS = {"gain", "within bound", "regression", "unresolved"}


def load_tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_tool()
# what --replay times, in the order it prints them
REPLAY_LAYERS = [
    "transform.sampler", "transform.phi", "seeds.partials", "exprlang.eval_dual",
    "residual.fd_residual_dlw", "exact.sampler", "exact.phi", "exact-const.sampler",
    "exact-const.phi", "residual.ResidualFold.add", "scenario.csv_row",
]
HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.1}
LOWER = {"unit": "s", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize(
    "entry, parent, change, wins, verdict",
    [
        # +15%, far past the parent's quartile range, with ten, nine and eight wins
        (HIGHER, [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [115, 116, 114, 115, 117, 113, 115, 116, 114, 115], 10, "gain"),
        (HIGHER, [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [115, 116, 114, 115, 117, 113, 115, 116, 90, 115], 9, "gain"),
        (HIGHER, [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [115, 116, 114, 115, 117, 113, 115, 90, 90, 115], 8, "within bound"),
        (HIGHER, [100, 101, 99, 100], [85, 86, 84, 85], 0, "regression"),
        (LOWER, [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], 0, "regression"),
        (LOWER, [1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], 0, "within bound"),
        (LOWER, [1.0, 2.0, 1.0, 2.0], [1.1, 2.1, 1.1, 2.1], 0, "unresolved"),
        # as wide, but every run of the change is better than every run of the parent
        (LOWER, [1.0, 2.0, 1.0, 2.0], [0.9, 0.95, 0.9, 0.95], 4, "within bound"),
        # one pair shows no spread
        (LOWER, [1.0], [1.01], 0, "unresolved"),
    ],
)
def test_each_metric_reads_one_verdict_against_its_bound(entry, parent, change, wins, verdict):
    got = ab.compare(entry, parent, change)
    assert got["change_wins"] == wins
    assert got["verdict"] == verdict
    assert got["within_bound"] is (verdict != "regression")


@pytest.mark.parametrize(
    "values, interval",
    [
        # ranks 2 and 9 of 10 cover the median with 1 - 2*11/1024
        (list(range(10, 0, -1)), (2, 9, 1 - 22 / 1024)),
        # six pairs reach 95% only with the whole range
        ([3, 1, 2, 6, 5, 4], (1, 6, 1 - 2 / 64)),
        # five do not reach it at all
        ([3, 1, 2, 5, 4], (1, 5, 1 - 2 / 32)),
        ([7], (7, 7, 0.0)),
    ],
)
def test_the_replay_interval_is_the_medians_order_statistic_interval(values, interval):
    assert ab.median_interval(values) == pytest.approx(interval)


def test_ab_runs_a_tree_against_itself_and_writes_the_bench_shape(tmp_path):
    out = tmp_path / "ab.json"
    argv = [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workloads", "derive",
            "--pairs", "1", "--seconds", "0", "--seed", "1", "--layers", "--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    bench = json.loads(out.read_text())
    assert set(bench) == {"machine", "command", "method", "workloads"}
    assert list(bench["workloads"]) == ["derive"]
    derive = bench["workloads"]["derive"]
    assert derive["pairs"] == 1 and derive["seeds"] == "1-1"
    assert derive["digests_equal_in_every_pair"] is True
    assert derive["failed"] == {"parent": 0, "change": 0}
    assert derive["attempted"]["parent"] == derive["attempted"]["change"] > 0
    names = [entry["name"] for entry in SPEC["end_to_end"]]
    assert list(derive["metrics"]) == names
    for entry, metric in zip(SPEC["end_to_end"], derive["metrics"].values()):
        for key in ("unit", "better", "bound"):
            assert metric[key] == entry[key]
        for side in ("parent", "change"):
            assert set(metric[side]) == {"median", "q1", "q3", "runs"}
            assert len(metric[side]["runs"]) == 1
        assert metric["verdict"] in VERDICTS
    # --layers: one traced pass per tree at the first seed, each per-layer metric
    layers = derive["layers"]
    assert set(layers) == {"seed", "digests", "digests_equal", "failed", "metrics"}
    assert layers["seed"] == 1 and layers["failed"] == {"parent": 0, "change": 0}
    assert layers["digests_equal"] is True
    assert layers["digests"]["parent"] == layers["digests"]["change"]
    layer_names = [entry["name"] for entry in SPEC["per_layer"]]
    assert list(layers["metrics"]) == layer_names
    for entry, metric in zip(SPEC["per_layer"], layers["metrics"].values()):
        assert set(metric) == {"unit", "better", "parent", "change"}
        assert (metric["unit"], metric["better"]) == (entry["unit"], entry["better"])
    # one tree against itself counts the same calls on both sides
    assert layers["metrics"]["balance.solve_balance_exponents.calls"]["parent"] == 5
    assert layers["metrics"]["balance.solve_balance_exponents.calls"]["change"] == 5
    # stdout: a header line and one line per metric, then the same for the layers
    lines = done.stdout.splitlines()
    assert lines[0].startswith("derive: 1 pairs, seeds 1-1, failed ops 0 and 0, digests equal")
    assert [line.split()[0] for line in lines[1:len(names) + 1]] == names
    digest = layers["digests"]["parent"][:8]
    assert lines[len(names) + 1] == (
        f"derive layers, traced at seed 1: digests parent {digest} change {digest}"
    )
    layer_lines = lines[len(names) + 2:]
    assert [line.split()[0] for line in layer_lines] == layer_names
    assert all(" parent " in line and " change " in line for line in layer_lines)


def test_replay_times_each_layer_of_a_tree_against_itself(capsys, monkeypatch):
    # one pair of processes in lockstep at two passes, each layer timed over
    # the recorded inputs, each pass in `turn` order
    turns = []
    real_turn = ab.turn
    monkeypatch.setattr(ab, "turn", lambda pair, step: turns.append((pair, step))
                        or real_turn(pair, step))
    replay = ab.replay({"parent": ROOT, "change": ROOT}, 1, 2)
    assert turns == [(0, 0), (0, 1)]
    assert set(replay) == {"pairs", "passes", "method", "documents",
                           "rows_equal_in_every_pair", "layers"}
    assert (replay["pairs"], replay["passes"]) == (1, 2)
    assert "lockstep" in replay["method"]
    assert list(replay["documents"]) == ["transform", "exact", "exact-const"]
    assert replay["rows_equal_in_every_pair"] is True
    assert list(replay["layers"]) == REPLAY_LAYERS
    for layer in replay["layers"].values():
        assert set(layer) == {"calls_per_pass", "parent", "change", "ratio", "change_wins"}
        assert layer["calls_per_pass"] >= ab.REPLAY_CALLS
        for side in ("parent", "change"):
            assert len(layer[side]["runs"]) == 1 and layer[side]["median"] > 0
        ratio = layer["ratio"]
        assert ratio["low"] == ratio["median"] == ratio["high"] > 0
        assert ratio["confidence"] == 0.0 and layer["change_wins"] in (0, 1)
    # stdout: a header line and one line per layer
    capsys.readouterr()
    ab.report_replay(replay)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "replay: 1 pairs, best of 2 passes, ns per call, rows equal, interval at 0.0%"
    )
    assert [line.split()[0] for line in lines[1:]] == REPLAY_LAYERS
    assert all(" parent " in line and " change " in line and " wins " in line
               for line in lines[1:])


def test_each_replay_pass_runs_on_both_sides_with_the_first_side_alternating():
    # lockstep: over the passes of a pair, and from one pair to the next,
    # the side that goes first alternates, and each pass runs on both sides
    assert [ab.turn(0, step) for step in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert [ab.turn(pair, 0)[0] for pair in range(3)] == ["parent", "change", "parent"]
