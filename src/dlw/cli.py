"""Command-line front end.

Subcommands: `derive` (exact symbolic derivation and checks), `run` (verify a
scenario config on its grid and export data), `reduce` (an exact-const run with
c = a on the line y = 0, checked by the (1+1)-dimensional stencil), and `sweep`
(repeat `run` over a parameter list).
Exit codes: 0 verified, 1 verification failure, 2 input error or an output
that cannot be written.

Each command imports only the layers it runs. `derive` needs the exact
symbolic layers (`balance`, `jetcalc`), loaded with this module, and
`write_outputs`, the one writer of every command's files, which lives here.
`run`, `sweep` and `reduce` import the numeric layers (scenario, seeds,
transform, residual oracle) when they start.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable

from . import balance
from .errors import ConfigError, EvaluationError

__all__ = ["main"]


def write_outputs(outputs: list[tuple[str, Callable[[Path], None]]]) -> None:
    """Write every (path, write) pair, or none: `write` writes the file to a
    temporary sibling of its path, and the siblings replace their paths once
    all are written. An OSError removes the siblings and names the path."""
    pending: list[tuple[Path, Path]] = []  # (temporary, path), in write order
    try:
        for target, write in outputs:
            path = Path(target)
            if path.is_dir():  # fail before any sibling replaces its path
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            temp = path.with_name(f".{path.name}.{os.getpid()}.{len(pending)}.tmp")
            pending.append((temp, path))
            write(temp)
        for temp, path in pending:
            os.replace(temp, path)
    except OSError as exc:
        for temp, _ in pending:
            with contextlib.suppress(OSError):
                temp.unlink()
        exc.filename = str(path)
        raise


def cmd_derive(args) -> int:
    """Derive and check both branches, write `--output` as JSON through
    write_outputs, then print the report. An empty `--output` path is an
    input error, raised before the derivation runs, in the words that
    `run` and `reduce` use for theirs."""
    if args.output == "":
        raise ConfigError("derive.outputs[0].path: expected a file path")
    try:
        report = balance.derive()
    except balance.DerivationError as exc:
        print(f"derivation FAILED:\n{exc}")
        return 1
    if args.output is not None:
        payload = json.dumps(balance.report_to_dict(report), indent=2, sort_keys=True)
        write_outputs([(args.output, lambda temp: temp.write_text(payload + "\n"))])
    print(balance.render_report(report))
    return 0 if report.passed else 1


def _apply_overrides(raw: dict, args) -> dict:
    from .scenario import merge_config

    override: dict = {}
    if args.step is not None:
        override["stencil"] = {"step": args.step}
    if args.threshold is not None:
        override["thresholds"] = {"max_residual": args.threshold}
    if args.branch is not None:
        override["branch"] = args.branch
    merged = merge_config(raw, override)
    outputs = merged.get("outputs", [])
    if args.output is not None and isinstance(outputs, list):
        merged["outputs"] = [*outputs, {"format": "csv", "path": args.output}]
    return merged


def _print_summary(label: str, sc, report) -> bool:
    ok = report.passes(sc.max_residual)
    print(
        f"{label}: branch {sc.branch.name.lower()}, {sc.solution_path} path, "
        f"grid {sc.grid.x[2]}x{sc.grid.y[2]}x{sc.grid.t[2]}, "
        f"step {sc.stencil.step:g}"
    )
    print(
        f"  max residual: r1 = {report.max_abs[0]:.6e}, "
        f"r2 = {report.max_abs[1]:.6e} (threshold {sc.max_residual:g})"
    )
    print(
        f"  mean residual: r1 = {report.mean_abs[0]:.6e}, "
        f"r2 = {report.mean_abs[1]:.6e}; evaluated {report.evaluated} points"
    )
    print(f"  verdict: {'PASS' if ok else 'FAIL'}")
    print(f"{label}: skipped {report.skipped} pole-adjacent points", file=sys.stderr)
    return ok


def _verify(runs, residual, document=None) -> bool:
    """Evaluate every (label, document key, scenario), then write every
    output through write_outputs, then print every summary: neither an
    evaluation error nor an unwritable output prints or writes anything.
    Two outputs that name one file, or an output that names the `document`
    path, stop the command before either. Each output's writer is built
    right after its run's evaluation; only a csv writer holds the records."""
    from .scenario import evaluate_scenario, export_csv, export_report
    from .seedlab.seeds import CoefficientError

    # absolute path -> the key that names it first
    named = {} if document is None else {os.path.abspath(document): "the document"}
    for _, where, sc in runs:
        for pos, spec in enumerate(sc.outputs):
            key = f"{where}.outputs[{pos}].path"
            first = named.setdefault(os.path.abspath(spec.path), key)
            if first != key:
                raise ConfigError(f"{key}: same file as {first}")
    outputs = []  # (path, write) pairs
    summaries = []
    for label, where, sc in runs:
        try:
            report, records = evaluate_scenario(sc, residual)
        except CoefficientError as exc:  # name the expression by its document key
            raise EvaluationError(f"{where}.seed.{exc}") from None
        except EvaluationError as exc:  # the summed seed, named by its point
            raise EvaluationError(f"{where}.seed: {exc}") from None
        for spec in sc.outputs:
            if spec.format == "csv":
                write = functools.partial(export_csv, records)
            else:
                write = functools.partial(export_report, sc, report)
            outputs.append((spec.path, write))
        summaries.append((label, sc, report))
    write_outputs(outputs)
    all_ok = True
    for label, sc, report in summaries:
        all_ok = _print_summary(label, sc, report) and all_ok
    return all_ok


def cmd_run(args) -> int:
    from .residual import fd_residual_dlw
    from .scenario import load_config, scenario_from_dict

    raw = load_config(args.config)
    raw.pop("sweep", None)  # `run` runs the base only
    sc = scenario_from_dict(_apply_overrides(raw, args))
    return 0 if _verify([("run", "config", sc)], fd_residual_dlw, args.config) else 1


def cmd_sweep(args) -> int:
    from .residual import fd_residual_dlw
    from .scenario import load_config, merge_config, scenario_from_dict

    raw = load_config(args.config)
    entries = raw.pop("sweep", None)
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config has no nonempty 'sweep' list")
    # every entry is validated before any runs, so an input error prints
    # no summary and writes no file
    runs = []
    for pos, entry in enumerate(entries):
        label = f"sweep[{pos}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{label}: expected an object")
        merged = _apply_overrides(merge_config(raw, entry), args)
        sc = scenario_from_dict(merged, where=label)
        runs.append((label, label, sc))
    return 0 if _verify(runs, fd_residual_dlw, args.config) else 1


def cmd_reduce(args) -> int:
    from .residual import fd_residual_1d
    from .scenario import scenario_from_dict

    # step and threshold take the document defaults; flags arrive through
    # _apply_overrides, and scenario_from_dict checks every value
    raw = {
        "branch": "plus",
        "solution_path": "exact-const",
        "params": {"a": args.a, "c": args.a, "d": args.d},
        "grid": {
            "x": [args.z0, args.z1, args.nz],
            "y": [0.0, 0.0, 1],
            "t": [args.t0, args.t1, args.nt],
        },
    }
    sc = scenario_from_dict(_apply_overrides(raw, args), where="reduce")
    return 0 if _verify([("reduce", "reduce", sc)], fd_residual_1d) else 1


# built on first use, not at import; in-process callers run main many times
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlw",
        description=(
            "Exact solutions of the (2+1)-dimensional dispersive long wave "
            "system from linear heat-type seeds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # document overrides shared by run, sweep and reduce; no defaults here
    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--step", type=float, help="override stencil step")
    overrides.add_argument(
        "--threshold", type=float, help="override residual threshold"
    )
    overrides.add_argument(
        "--branch", choices=["plus", "minus"], help="override branch"
    )

    p = sub.add_parser(
        "derive", help="run the exact symbolic derivation and its checks"
    )
    p.add_argument("--output", metavar="PATH", help="write a JSON report to PATH")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser(
        "run", parents=[overrides], help="verify a scenario config on its grid"
    )
    p.add_argument("config", help="scenario JSON document")
    p.add_argument(
        "--output", metavar="PATH", help="additionally export the grid CSV to PATH"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "sweep",
        parents=[overrides],
        help="repeat `run` over the config's sweep override list",
    )
    p.add_argument("config", help="scenario JSON document with a 'sweep' list")
    p.set_defaults(func=cmd_sweep, output=None)

    p = sub.add_parser(
        "reduce",
        parents=[overrides],
        help="check the (1+1)-dimensional solitary wave (a = c)",
    )
    p.add_argument("a", type=float, help="wave parameter a (= c)")
    p.add_argument("d", type=float, help="phase offset d")
    p.add_argument("--z0", type=float, default=-5.0)
    p.add_argument("--z1", type=float, default=5.0)
    p.add_argument("--nz", type=int, default=41)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--nt", type=int, default=5)
    p.add_argument("--output", metavar="PATH", help="export the check grid as CSV")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except EvaluationError as exc:
        print(f"error: field evaluation failed: {exc}", file=sys.stderr)
    except OSError as exc:  # load_config reports read errors, so this is a write
        # an error with no file name comes from standard output, e.g. a closed pipe
        target = "standard output" if exc.filename is None else exc.filename
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
