"""Byte-identity pins of the CLI.

`golden.json` beside this file holds, for each command below, its exit code
and the sha256 of its standard output, its standard error and every file it
writes. The commands are every shipped document as shipped and with
`--branch plus` and `--branch minus`; `reduce 1 0`, `reduce 0.7 0.3` and
`reduce 0 0` with `--output` on both branches; and `derive --output`. Each
runs through `dlw.cli.main` in a new empty directory, where a document's
relative output paths land. Each stream and file also keeps an 8-hex-digit
digest per line, which points a mismatch at its first differing line.

A change that means to alter these bytes regenerates the table with
    PYTHONPATH=src python tests/test_golden.py
and says in CHANGES.md which bytes changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from dlw.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")


def commands():
    """The argv of every pinned command; a document is named from the root."""
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        command = "sweep" if "sweep" in json.loads(path.read_text()) else "run"
        document = f"scenarios/{path.name}"
        yield [command, document]
        yield [command, document, "--branch", "plus"]
        yield [command, document, "--branch", "minus"]
    for a, d in (("1", "0"), ("0.7", "0.3"), ("0", "0")):
        for branch in ("plus", "minus"):
            yield ["reduce", a, d, "--branch", branch, "--output", "reduce.csv"]
    yield ["derive", "--output", "derive.json"]


def _line_digest(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()[:8]


def _digests(data: bytes) -> dict:
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": "".join(map(_line_digest, data.splitlines(keepends=True))),
    }


def outcome(argv):
    """(exit code, {stream or file name: its bytes}) of `argv` run through
    main in a new empty directory."""
    argv = [str(ROOT / arg) if arg.startswith("scenarios/") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(home)
        written = {
            str(path.relative_to(workdir)): path.read_bytes()
            for path in sorted(Path(workdir).rglob("*"))
            if path.is_file()
        }
    streams = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    return code, {**streams, **written}


def pin(argv) -> dict:
    code, streams = outcome(argv)
    return {"exit": code, **{name: _digests(data) for name, data in streams.items()}}


def _first_difference(name: str, data: bytes, pinned: dict) -> str:
    """The first line of `data` whose digest is not the pinned one, as it reads now."""
    lines = data.splitlines(keepends=True)
    expected = [pinned["lines"][i : i + 8] for i in range(0, len(pinned["lines"]), 8)]
    for number, line in enumerate(lines, 1):
        if number > len(expected) or _line_digest(line) != expected[number - 1]:
            return f"{name} line {number} now reads {line!r}"
    return f"{name} now has {len(lines)} lines, pinned {len(expected)}"


def mismatch(argv, pinned: dict) -> str | None:
    """Where `argv`'s outcome first departs from `pinned`, or None."""
    code, streams = outcome(argv)
    if code != pinned["exit"]:
        return f"exit {code}, pinned {pinned['exit']}"
    names = sorted(pinned.keys() - {"exit", "stdout", "stderr"})
    written = sorted(streams.keys() - {"stdout", "stderr"})
    if written != names:
        return f"wrote {written}, pinned {names}"
    for name in ("stdout", "stderr", *names):
        if hashlib.sha256(streams[name]).hexdigest() != pinned[name]["sha256"]:
            return _first_difference(name, streams[name], pinned[name])
    return None


def test_cli_bytes_match_the_golden_table():
    golden = json.loads(GOLDEN.read_text())
    table = {" ".join(argv): argv for argv in commands()}
    assert sorted(golden) == sorted(table), "the pinned commands changed"
    found = {key: mismatch(argv, golden[key]) for key, argv in table.items()}
    assert {key: where for key, where in found.items() if where} == {}


if __name__ == "__main__":
    table = {" ".join(argv): pin(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
