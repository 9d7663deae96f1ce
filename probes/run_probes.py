"""Check every pinned outcome of the CLI: the probe corpus, every *.json
file beside this script, then every row of the golden table,
tests/golden.json.

Usage: python probes/run_probes.py COMMAND...
e.g.   python probes/run_probes.py dlw
       PYTHONPATH=src python probes/run_probes.py python -m dlw.cli

Each probe and each golden row runs COMMAND with its argv in a new empty
directory, and the script exits 1 if any probe or row fails, or if the
golden table cannot be read. A probe is one JSON object that holds only
the keys below and names no key twice in any object; a key outside the
list is a problem, so a misspelt key cannot silently drop its check:
  why          a note for the reader, where the expectation needs one
  argv         the arguments after the command
  files        {name: document} written into the directory first; an
               object is written as JSON, a string as it stands, and a
               name such as "d/kept.txt" makes its directory too
  exit         the expected exit code
  stderr       the exact lines of standard error
  stdout       lines standard output must hold (exit 0 and 1 only)
  inf_phi_csv  a CSV file that must hold a row whose phi is inf
  strict_json  a file that a JSON parser refusing NaN and Infinity reads
An exit-2 probe expects one `error:` line, no standard output, and no file
written or changed. No probe, whatever its exit code, may leave a file named
like the writer's temporary sibling of an output, `.<name>.<pid>.<n>.tmp`.
A probe without argv, exit or stderr fails without running, and a file
that cannot be loaded (malformed JSON, a key named twice, not an object)
fails with the reason; either way the run goes on to the next probe.

The golden table maps each pinned command, its arguments joined by single
spaces, to its exit code and, for its standard output, its standard error
and every file it writes, the sha256 and an 8-hex-digit digest per line;
a row that does not match names the first differing line. An argument
that starts with `scenarios/` names a shipped document from the root of
the repository. `tests/test_golden.py` lists the pinned commands and
regenerates the table.

This module needs only the standard library; `in_process` imports
`dlw.cli` when it runs. The tier-1 suite runs each probe through
`in_process` as the test named after its file, and every golden row
through `in_process` in `tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent
ROOT = CORPUS.parent
GOLDEN = ROOT / "tests" / "golden.json"
# the name write_outputs gives the temporary sibling of an output path
TEMPORARY = re.compile(r"\..+\.\d+\.\d+\.tmp")
# every key a probe may hold, as the docstring lists them
KEYS = {"why", "argv", "files", "exit", "stderr", "stdout", "inf_phi_csv", "strict_json"}
# the keys every probe holds
REQUIRED = ("argv", "exit", "stderr")


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for key in obj if keys.count(key) > 1)
        raise ValueError(f"duplicate key {twice!r}")
    return obj


def load(name):
    """The probe in CORPUS/<name>.json; a file that is not one JSON object,
    or names a key twice in one object, raises ValueError."""
    path = CORPUS / f"{name}.json"
    try:
        probe = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    if not isinstance(probe, dict):
        raise ValueError(f"{path.name}: expected an object")
    return probe


def command_invoker(command):
    """invoke(argv, workdir) -> (exit code, stdout, stderr) of a subprocess.
    The streams are read as bytes and decoded as UTF-8, so no newline is
    translated on the way to a golden row. The subprocess runs in workdir
    with each PYTHONPATH entry made absolute against the directory this is
    called in, so `PYTHONPATH=src` names the same `src` there; an unset
    PYTHONPATH stays unset."""
    env = dict(os.environ)
    if "PYTHONPATH" in env:
        entries = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, entries))

    def invoke(argv, workdir):
        done = subprocess.run([*command, *argv], cwd=workdir, env=env, capture_output=True)
        return done.returncode, done.stdout.decode(), done.stderr.decode()

    return invoke


def in_process(argv, workdir):
    """(exit code, stdout, stderr) of `dlw.cli.main(argv)` run in workdir,
    with both streams redirected and the working directory restored."""
    from dlw.cli import main

    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def _refuse(name):
    raise ValueError(f"holds {name}")


def _inf_phi(text):
    if not any(row.split(",")[3] == "inf" for row in text.splitlines()[1:]):
        raise ValueError("has no row whose phi is inf")


def _strict_json(text):
    json.loads(text, parse_constant=_refuse)


FILE_CHECKS = {"inf_phi_csv": _inf_phi, "strict_json": _strict_json}


def _snapshot(workdir):
    """{path: its bytes, or False for a directory} of everything in workdir."""
    return {path: path.is_file() and path.read_bytes() for path in workdir.rglob("*")}


def check(probe, invoke, workdir):
    """The problems found running `probe` through `invoke` in the empty
    directory `workdir`; an empty list is a pass."""
    problems = [f"unknown key {key!r}" for key in sorted(probe.keys() - KEYS)]
    missing = [f"missing key {key!r}" for key in REQUIRED if key not in probe]
    if missing:
        return problems + missing
    workdir = Path(workdir)
    for name, document in probe.get("files", {}).items():
        text = document if isinstance(document, str) else json.dumps(document)
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    before = _snapshot(workdir)
    code, out, err = invoke(probe["argv"], workdir)
    after = _snapshot(workdir)
    if code != probe["exit"]:
        problems.append(f"exit {code}, expected {probe['exit']}")
    if err.splitlines() != probe["stderr"]:
        problems.append(f"stderr {err!r}, expected {probe['stderr']}")
    if probe["exit"] == 2:
        if len(probe["stderr"]) != 1 or not probe["stderr"][0].startswith("error: "):
            problems.append("an exit-2 probe expects one `error:` line")
        if out:
            problems.append(f"stdout {out!r}, expected none")
        written = sorted(
            str(path.relative_to(workdir))
            for path, data in after.items()
            if before.get(path) != data
        )
        if written:
            problems.append(f"wrote {written}")
    temporaries = sorted(
        str(path.relative_to(workdir))
        for path in after
        if TEMPORARY.fullmatch(path.name)
    )
    if temporaries:
        problems.append(f"left temporary files {temporaries}")
    missing = [line for line in probe.get("stdout", []) if line not in out.splitlines()]
    if missing:
        problems.append(f"stdout {out!r} lacks {missing}")
    for key, read in FILE_CHECKS.items():
        if key in probe:
            try:
                read((workdir / probe[key]).read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"{probe[key]}: {exc}")
    return problems


def _line_digest(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()[:8]


def _digests(data: bytes) -> dict:
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": "".join(map(_line_digest, data.splitlines(keepends=True))),
    }


def outcome(argv, invoke):
    """(exit code, {stream or file name: its bytes}) of `argv` run through
    `invoke` in a new empty directory."""
    argv = [str(ROOT / arg) if arg.startswith("scenarios/") else arg for arg in argv]
    with tempfile.TemporaryDirectory() as workdir:
        code, out, err = invoke(argv, workdir)
        written = {
            str(path.relative_to(workdir)): path.read_bytes()
            for path in sorted(Path(workdir).rglob("*"))
            if path.is_file()
        }
    return code, {"stdout": out.encode(), "stderr": err.encode(), **written}


def pin(argv, invoke) -> dict:
    """The golden row of `argv` run through `invoke`."""
    code, streams = outcome(argv, invoke)
    return {"exit": code, **{name: _digests(data) for name, data in streams.items()}}


def _first_difference(name: str, data: bytes, pinned: dict) -> str:
    """The first line of `data` whose digest is not the pinned one, as it reads now."""
    lines = data.splitlines(keepends=True)
    expected = [pinned["lines"][i : i + 8] for i in range(0, len(pinned["lines"]), 8)]
    for number, line in enumerate(lines, 1):
        if number > len(expected) or _line_digest(line) != expected[number - 1]:
            return f"{name} line {number} now reads {line!r}"
    return f"{name} now has {len(lines)} lines, pinned {len(expected)}"


def mismatch(argv, pinned: dict, invoke) -> str | None:
    """Where the outcome of `argv` run through `invoke` first departs from
    the golden row `pinned`, or None."""
    code, streams = outcome(argv, invoke)
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


def golden_table() -> dict:
    """{command: golden row} read from GOLDEN; a table that cannot be read
    or is not one JSON object raises OSError or ValueError."""
    table = json.loads(GOLDEN.read_text())
    if not isinstance(table, dict):
        raise ValueError("expected an object")
    return table


def _report(name, problems) -> bool:
    """Print `name`'s verdict and problems; whether it failed."""
    print("FAIL" if problems else "ok", name)
    for problem in problems:
        print("  " + problem)
    return bool(problems)


def main(command):
    invoke = command_invoker(command)
    paths = sorted(CORPUS.glob("*.json"))
    failed = 0
    for path in paths:
        try:
            probe = load(path.stem)
        except ValueError as exc:
            problems = [str(exc)]
        else:
            with tempfile.TemporaryDirectory() as workdir:
                problems = check(probe, invoke, workdir)
        failed += _report(path.name, problems)
    print(f"{failed} of {len(paths)} probes failed")
    try:
        table = golden_table()
    except (OSError, ValueError) as exc:
        _report(GOLDEN.name, [f"cannot read the golden table: {exc}"])
        return 1
    rows_failed = 0
    for line, pinned in table.items():
        where = mismatch(line.split(" "), pinned, invoke)
        rows_failed += _report(line, [where] if where else [])
    print(f"{rows_failed} of {len(table)} golden rows failed")
    return 1 if failed or rows_failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
