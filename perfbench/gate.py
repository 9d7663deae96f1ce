"""Run one benchmark operation through `dlw.cli.main` and check its outcome.

An operation fails the gate when its exit code or any printed verdict
differs from the expectation fixed by the generator, when a grid summary's
evaluated + skipped points differ from the grid size or its skip count from
the expected one, when a written report disagrees with the verdict, when a
CSV has the wrong number of rows, when `derive` does not PASS both branches,
when a genuine scenario prints a non-finite residual, or when the call
raises. Problems are returned, never dropped.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from .reference import Meter
from .workloads import Op

_RESIDUAL = re.compile(
    r"max residual: r1 = (\S+), r2 = (\S+) \(threshold (\S+)\)"
)
_EVALUATED = re.compile(r"evaluated (\d+) points")
_SKIPPED = re.compile(r"skipped (\d+) pole-adjacent points")
_VERDICT = re.compile(r"verdict: (PASS|FAIL)")
_BRANCH = re.compile(r"^branch (plus|minus): .* -> (PASS|FAIL)$", re.MULTILINE)


@dataclass
class Outcome:
    seconds: float
    scaled: float | None = None  # seconds on the nominal machine
    problems: list[str] = field(default_factory=list)
    margin: float | None = None  # max residual / threshold, genuine ops only
    digest: str = ""  # sha256 of printed text and every written file


def run_op(main, op: Op, workdir: Path, sample: bool = False) -> Outcome:
    """Time one CLI call (outputs land in `workdir`), then check it.

    With `sample`, the time is also scaled to the nominal machine
    (reference.Meter) into `Outcome.scaled`.
    """
    for name in op.outputs:  # so a run that writes nothing cannot pass on stale files
        (workdir / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    problems = []
    code = None
    argv = list(op.argv)
    meter = Meter(sample)
    try:
        with redirect_stdout(out), redirect_stderr(err), meter:
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op failed; record it and keep measuring
        problems.append(f"raised {type(exc).__name__}: {exc}")
    outcome = Outcome(seconds=meter.seconds, scaled=meter.scaled, problems=problems)
    if not problems:
        try:
            check(op, code, out.getvalue(), err.getvalue(), workdir, outcome)
        except (ValueError, KeyError, TypeError) as exc:  # unreadable output
            problems.append(f"output check failed: {type(exc).__name__}: {exc}")
    return outcome


def check(op: Op, code, stdout: str, stderr: str, workdir: Path, outcome: Outcome):
    problems = outcome.problems
    expected_code = 0 if op.expect == "PASS" else 1
    if code != expected_code:
        problems.append(f"exit code {code!r}, expected {expected_code}")
    digest = hashlib.sha256(stdout.encode() + b"\0" + stderr.encode())
    files = {}
    for name in op.outputs:
        path = workdir / name
        if not path.is_file():
            problems.append(f"{name} was not written")
            continue
        files[name] = path.read_bytes()
        digest.update(b"\0" + name.encode() + b"\0" + files[name])
    outcome.digest = digest.hexdigest()

    if op.path == "derive":
        _check_derive(stdout, files.get("derive.json"), problems)
        return
    verdicts = _VERDICT.findall(stdout)
    if len(verdicts) != len(op.points) or any(v != op.expect for v in verdicts):
        problems.append(f"verdicts {verdicts}, expected {[op.expect] * len(op.points)}")
    residuals = _RESIDUAL.findall(stdout)
    if len(residuals) != len(op.points):
        problems.append(f"{len(residuals)} residual lines, expected {len(op.points)}")
    if op.genuine and residuals:
        ratios = [max(float(r1), float(r2)) / float(t) for r1, r2, t in residuals]
        if all(math.isfinite(r) for r in ratios):
            outcome.margin = max(ratios)
        else:
            problems.append(f"non-finite residual in {residuals}")
    if op.path != "reduce":
        _check_grid(op, stdout, stderr, files, problems)


def _check_grid(op: Op, stdout: str, stderr: str, files: dict, problems: list):
    evaluated = [int(n) for n in _EVALUATED.findall(stdout)]
    skipped = [int(n) for n in _SKIPPED.findall(stderr)]
    counts = list(zip(evaluated, skipped))
    if len(evaluated) != len(op.points) or len(skipped) != len(op.points):
        problems.append(f"{len(counts)} grid summaries, expected {len(op.points)}")
    for (ev, sk), size, want in zip(counts, op.points, op.skipped):
        if ev + sk != size:
            problems.append(f"evaluated {ev} + skipped {sk} != grid size {size}")
        if sk != want:
            problems.append(f"skipped {sk} points, expected {want}")
    for name, data in files.items():
        if name.endswith(".csv"):
            rows = data.count(b"\n") - 1
            if rows != op.points[0]:
                problems.append(f"{name} has {rows} rows, expected {op.points[0]}")
        else:
            report = json.loads(data)
            if report["verified"] != op.genuine:
                problems.append(f"{name} says verified={report['verified']}")
            inner = report["report"]
            if inner["evaluated"] + inner["skipped"] != op.points[0]:
                problems.append(f"{name} counts do not add up to the grid size")


def _check_derive(stdout: str, data: bytes | None, problems: list):
    printed = dict(_BRANCH.findall(stdout))
    if printed != {"plus": "PASS", "minus": "PASS"}:
        problems.append(f"derive printed {printed}, expected PASS on both branches")
    if data is not None:
        branches = json.loads(data).get("branches", {})
        passed = {name: entry.get("passed") for name, entry in branches.items()}
        if passed != {"plus": True, "minus": True}:
            problems.append(f"derive report says {passed}")
