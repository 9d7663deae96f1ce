"""Command-line front end.

Subcommands: `derive` (exact symbolic derivation and checks), `run` (verify a
scenario config on its grid and export data), `sweep` (repeat `run` over a
parameter list; `run` is a sweep of one entry, and the flags apply after the
entry), and `reduce` (a run of the exact-const document with c = a on the line
y = 0 that its arguments build, checked by the (1+1)-dimensional stencil).
Each command returns the worst verdict word of its runs or branches, and
`EXIT_CODES`, the one map from a word to an exit code, gives 0 to PASS and 1 to
FAIL. An input error or an output that cannot be written exits 2.

Each command imports only the layers it runs, when it starts: this module
loads no layer but `errors`. `derive` imports the exact symbolic layers
(`balance`, `jetcalc`, and with them `fractions`), and `run`, `sweep` and
`reduce` import the numeric layers (scenario, seeds, transform, residual
oracle). Both halves take `Branch` from `branch`, which imports only
`enum`. `json` loads only where a document is read or JSON is written:
`run` and `sweep` load it with their document, `derive` only for
`--output`, and `reduce` never. `write_outputs`, the one writer of every
command's files, lives here.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import stat
import sys
from pathlib import Path

from .errors import PATH_SHOWN, ConfigError, EvaluationError, cut

__all__ = ["main"]
EXIT_CODES = {"PASS": 0, "FAIL": 1}  # a worse verdict word exits higher


@contextlib.contextmanager
def write_outputs():
    """Write a command's files all or none. The block calls the yielded
    `sibling(path)` once for each output, and writes that output to the
    temporary sibling it returns, `.<name>.<pid>.<n>.tmp` beside the file
    the path resolves to, before it asks for the next. Once the block ends,
    the siblings replace those files, so a symbolic link is written through
    and kept. A path that resolves to a directory, or to something other
    than a regular file (a FIFO, a device, a socket), fails in `sibling`
    and is never replaced. Any exception, an interrupt included, removes
    every sibling and propagates unchanged, except that an OSError names
    the path whose sibling was being written or renamed: a failed or
    interrupted command leaves neither output nor sibling."""
    pending: list[tuple[Path, Path, str]] = []  # (temporary, file, path), in write order
    path = None

    def sibling(given: str) -> Path:
        nonlocal path
        path = target = given
        try:
            mode = os.lstat(given).st_mode
            if stat.S_ISLNK(mode):
                target = os.path.realpath(given)
                mode = os.stat(target).st_mode
        except FileNotFoundError:  # a new file, or the missing file a link names
            mode = stat.S_IFREG
        if stat.S_ISDIR(mode):  # fail before any sibling replaces its path
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISREG(mode):
            raise OSError(errno.EINVAL, "not a regular file")
        target = Path(target)
        temp = target.with_name(f".{target.name}.{os.getpid()}.{len(pending)}.tmp")
        pending.append((temp, target, given))
        return temp

    try:
        yield sibling
        for temp, target, path in pending:
            os.replace(temp, target)
    except BaseException as exc:
        for temp, _, _ in pending:
            with contextlib.suppress(OSError):
                temp.unlink()
        if isinstance(exc, OSError) and path is not None:
            exc.filename = path
        raise


def cmd_derive(args) -> str:
    """Derive and check both branches, write `--output` as JSON through
    write_outputs, then print the report. An empty `--output` path is an
    input error, raised before the derivation runs, in the words that
    `run` and `reduce` use for theirs."""
    from . import balance

    if args.output == "":
        raise ConfigError("derive.outputs[0].path: expected a file path")
    try:
        report = balance.derive()
    except balance.DerivationError as exc:
        print(f"derivation FAILED:\n{exc}")
        return "FAIL"
    if args.output is not None:
        import json

        payload = json.dumps(balance.report_to_dict(report), indent=2, sort_keys=True)
        with write_outputs() as sibling:
            sibling(args.output).write_text(payload + "\n")
    print(balance.render_report(report))
    return report.verdict


def _print_summary(label: str, sc, report, verdict: str) -> None:
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
    print(f"  verdict: {verdict}")
    print(f"{label}: skipped {report.skipped} pole-adjacent points", file=sys.stderr)


def _runs(raw: dict, entries, args, document=None) -> list:
    """The (label, document key, scenario) of each (label, key, entry), in
    order: the entry, an object, merged onto `raw`, then the flags onto that,
    validated as `key` before the next entry is read. Then two outputs that
    resolve to one file, through a symbolic link too, or one that resolves
    to the `document`, stop the command."""
    from .scenario import merge_config, scenario_from_dict

    override: dict = {}
    if args.step is not None:
        override["stencil"] = {"step": args.step}
    if args.threshold is not None:
        override["thresholds"] = {"max_residual": args.threshold}
    if args.branch is not None:
        override["branch"] = args.branch
    runs = []
    for label, key, entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"{key}: expected an object")
        merged = merge_config(merge_config(raw, entry), override)
        outputs = merged.get("outputs", [])
        if args.output is not None and isinstance(outputs, list):
            merged["outputs"] = [*outputs, {"format": "csv", "path": args.output}]
        runs.append((label, key, scenario_from_dict(merged, key)))
    # resolved path, links followed -> the key that names it first
    named = {} if document is None else {os.path.realpath(document): "the document"}
    for _, key, sc in runs:
        for pos, spec in enumerate(sc.outputs):
            where = f"{key}.outputs[{pos}].path"
            first = named.setdefault(os.path.realpath(spec.path), where)
            if first != where:
                raise ConfigError(f"{where}: same file as {first}")
    return runs


def _verify(runs, residual) -> str:
    """Evaluate every (label, document key, scenario), writing its outputs
    through write_outputs, then print every summary and return the worst
    verdict word: neither an evaluation error nor an unwritable output
    prints anything or leaves a file. A run's walk writes its first CSV
    output one row per point; its other CSV outputs are copies of that
    file, and its reports are written from the aggregate. No run keeps a
    point once its walk has passed it."""
    from .scenario import evaluate_scenario, export_csv, export_report

    summaries = []
    with write_outputs() as sibling:
        for label, where, sc in runs:
            csv = next((spec for spec in sc.outputs if spec.format == "csv"), None)
            row = None
            with contextlib.ExitStack() as files:
                if csv is not None:
                    written = sibling(csv.path)
                    row = export_csv(files, written)
                try:
                    report = evaluate_scenario(sc, residual, row)
                except EvaluationError as exc:  # named from `seed`; prefix the run's key
                    raise EvaluationError(f"{where}.{exc}") from None
            verdict = report.verdict(sc.max_residual)
            for spec in sc.outputs:
                if spec is csv:
                    continue
                if spec.format == "csv":
                    import shutil  # loads compression modules; only a second CSV needs it

                    shutil.copyfile(written, sibling(spec.path))
                else:
                    export_report(sc, report, verdict, sibling(spec.path))
            summaries.append((label, sc, report, verdict))
    for summary in summaries:
        _print_summary(*summary)
    return max((summary[-1] for summary in summaries), key=EXIT_CODES.get)


def cmd_run(args) -> str:
    """`run` and `sweep`; `run` is a sweep of one empty entry, and ignores `sweep`."""
    from .residual import fd_residual_dlw
    from .scenario import load_config

    raw = load_config(args.config)
    sweep = raw.pop("sweep", None)
    if args.command == "run":
        entries = [("run", "config", {})]
    elif isinstance(sweep, list) and sweep:
        entries = [(f"sweep[{i}]", f"sweep[{i}]", entry) for i, entry in enumerate(sweep)]
    else:
        raise ConfigError("config has no nonempty 'sweep' list")
    return _verify(_runs(raw, entries, args, args.config), fd_residual_dlw)


def cmd_reduce(args) -> str:
    from .residual import fd_residual_1d

    # step and threshold take the document defaults; the flags arrive
    # through _runs, and scenario_from_dict checks every value
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
    return _verify(_runs(raw, [("reduce", "reduce", {})], args), fd_residual_1d)


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
    p.set_defaults(func=cmd_run, output=None)

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
        return EXIT_CODES[args.func(args)]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except EvaluationError as exc:
        print(f"error: field evaluation failed: {exc}", file=sys.stderr)
    except OSError as exc:  # load_config reports read errors, so this is a write
        # an error with no file name comes from standard output, e.g. a closed pipe
        path = exc.filename
        target = "standard output" if path is None else cut(str(path), PATH_SHOWN)
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
