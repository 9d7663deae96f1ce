"""Byte-identity pins of the CLI.

`golden.json` beside this file holds, for each command below, its exit code
and the sha256 of its standard output, its standard error and every file it
writes. The commands are every shipped document as shipped and with
`--branch plus` and `--branch minus`; `run scenarios/sweep.json` with
`--output` on both branches, the CSV that pins the exact-const profiles at
17 digits off the line y = 0; `reduce 1 0`, `reduce 0.7 0.3` and `reduce 0 0`
with `--output` on both branches; `derive --output`; and two commands that
exit 1, `run scenarios/single_kernel.json --threshold 1e-12` and `sweep
scenarios/sweep.json --threshold 1e-6`, whose first entry PASSes. Each
stream and file also keeps an 8-hex-digit digest per line, which points a
mismatch at its first differing line.

The probe runner, `probes/run_probes.py`, runs and checks every row, each
in a new empty directory, where a document's relative output paths land.
Here it runs them through `dlw.cli.main`; `run_probes.py COMMAND...`
checks them against COMMAND after the probe corpus, as CI does against the
installed `dlw`.

A change that means to alter these bytes regenerates the table with
    PYTHONPATH=src python tests/test_golden.py
and says in CHANGES.md which bytes changed and why.
"""

import json
import sys
from pathlib import Path

import dlw

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # pytest puts probes/ on the path itself
    sys.path.insert(0, str(ROOT / "probes"))

import run_probes  # noqa: E402


def commands():
    """The argv of every pinned command; a document is named from the root."""
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        command = "sweep" if "sweep" in json.loads(path.read_text()) else "run"
        document = f"scenarios/{path.name}"
        yield [command, document]
        yield [command, document, "--branch", "plus"]
        yield [command, document, "--branch", "minus"]
    yield ["run", "scenarios/sweep.json", "--output", "sweep.csv"]
    yield ["run", "scenarios/sweep.json", "--output", "sweep.csv", "--branch", "minus"]
    for a, d in (("1", "0"), ("0.7", "0.3"), ("0", "0")):
        for branch in ("plus", "minus"):
            yield ["reduce", a, d, "--branch", branch, "--output", "reduce.csv"]
    # the FAIL path: one run whose report reads "verified": false, and a sweep
    # whose first entry PASSes while the other two FAIL, so the worst verdict wins
    yield ["run", "scenarios/single_kernel.json", "--threshold", "1e-12"]
    yield ["sweep", "scenarios/sweep.json", "--threshold", "1e-6"]
    yield ["derive", "--output", "derive.json"]


def test_cli_bytes_match_the_golden_table():
    golden = run_probes.golden_table()
    table = {" ".join(argv): argv for argv in commands()}
    assert sorted(golden) == sorted(table), "the pinned commands changed"
    found = {
        key: run_probes.mismatch(argv, golden[key], run_probes.in_process)
        for key, argv in table.items()
    }
    assert {key: where for key, where in found.items() if where} == {}


def test_a_golden_row_matches_through_a_command(monkeypatch):
    # the mode that checks the installed script, on one row that writes a file
    monkeypatch.setenv("PYTHONPATH", str(Path(dlw.__file__).parents[1]))
    invoke = run_probes.command_invoker([sys.executable, "-m", "dlw.cli"])
    argv = ["reduce", "1", "0", "--branch", "plus", "--output", "reduce.csv"]
    pinned = run_probes.golden_table()[" ".join(argv)]
    assert run_probes.mismatch(argv, pinned, invoke) is None


if __name__ == "__main__":
    invoke = run_probes.in_process
    table = {" ".join(argv): run_probes.pin(argv, invoke) for argv in commands()}
    run_probes.GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
