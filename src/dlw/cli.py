"""Command-line front end.

Subcommands: `derive` (exact symbolic derivation and checks), `run` (verify a
scenario config on its grid and export data), `reduce` (an exact-const run with
c = a on the line y = 0, checked by the (1+1)-dimensional stencil), and `sweep`
(repeat `run` over a parameter list).
Exit codes: 0 verified, 1 verification failure, 2 input error or an output
that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import balance
from .residual import StencilConfig, fd_residual_1d, fd_residual_dlw
from .scenario import (
    ConfigError,
    evaluate_scenario,
    load_config,
    merge_config,
    scenario_from_dict,
    write_outputs,
)
from .seedlab import EvaluationError

__all__ = ["main"]


def cmd_derive(args) -> int:
    try:
        report = balance.derive()
    except balance.DerivationError as exc:
        print(f"derivation FAILED:\n{exc}")
        return 1
    if args.output:
        payload = json.dumps(balance.report_to_dict(report), indent=2, sort_keys=True)
        Path(args.output).write_text(payload + "\n")
    print(balance.render_report(report))
    return 0


def _apply_overrides(raw: dict, args) -> dict:
    override: dict = {}
    if args.step is not None:
        override["stencil"] = {"step": args.step}
    if args.threshold is not None:
        override["thresholds"] = {"max_residual": args.threshold}
    if args.branch is not None:
        override["branch"] = args.branch
    merged = merge_config(raw, override)
    if getattr(args, "output", None):
        outputs = list(merged.get("outputs", []))
        outputs.append({"format": "csv", "path": args.output})
        merged["outputs"] = outputs
    return merged


def _print_summary(label: str, sc, report) -> bool:
    ok = report.passes(sc.max_residual)
    print(
        f"{label}: branch {sc.branch.name.lower()}, {sc.solution_path} path, "
        f"grid {sc.grid.nx}x{sc.grid.ny}x{sc.grid.nt}, step {sc.stencil.step:g}"
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


def _verify(label: str, raw: dict, args, where: str, residual) -> bool:
    """One scenario: overrides, parse, evaluate, write, summarise."""
    sc = scenario_from_dict(_apply_overrides(raw, args), where=where)
    report, records = evaluate_scenario(sc, residual)
    write_outputs(sc, report, records)
    return _print_summary(label, sc, report)


def cmd_run(args) -> int:
    ok = _verify("run", load_config(args.config), args, "config", fd_residual_dlw)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    raw = load_config(args.config)
    entries = raw.get("sweep")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config has no nonempty 'sweep' list")
    base = {key: value for key, value in raw.items() if key != "sweep"}
    all_ok = True
    for pos, entry in enumerate(entries):
        label = f"sweep[{pos}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{label}: expected an object")
        merged = merge_config(base, entry)
        if "outputs" not in entry:
            merged["outputs"] = []  # avoid runs overwriting a shared path
        all_ok = _verify(label, merged, args, label, fd_residual_dlw) and all_ok
    return 0 if all_ok else 1


def cmd_reduce(args) -> int:
    numbers = (
        ("a", args.a), ("d", args.d), ("--z0", args.z0), ("--z1", args.z1),
        ("--t0", args.t0), ("--t1", args.t1), ("--step", args.step),
        ("--threshold", args.threshold),
    )
    for flag, value in numbers:
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number")
    for flag, count in (("--nz", args.nz), ("--nt", args.nt)):
        if count < 1:
            raise ConfigError(f"{flag} must be >= 1")
    for flag, value in (("--step", args.step), ("--threshold", args.threshold)):
        if not value > 0:
            raise ConfigError(f"{flag} must be positive")
    try:
        StencilConfig(args.step)
    except ValueError as exc:
        raise ConfigError(f"--step: {exc}") from None
    for axis, lo, hi in (("z", args.z0, args.z1), ("t", args.t0, args.t1)):
        if hi < lo:
            raise ConfigError(f"--{axis}0 must not exceed --{axis}1")
    # branch, step, threshold and output arrive through _apply_overrides
    raw = {
        "solution_path": "exact-const",
        "params": {"a": args.a, "c": args.a, "d": args.d},
        "grid": {
            "x": [args.z0, args.z1, args.nz],
            "y": [0.0, 0.0, 1],
            "t": [args.t0, args.t1, args.nt],
        },
    }
    return 0 if _verify("reduce", raw, args, "reduce", fd_residual_1d) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlw",
        description=(
            "Exact solutions of the (2+1)-dimensional dispersive long wave "
            "system from linear heat-type seeds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "derive", help="run the exact symbolic derivation and its checks"
    )
    p.add_argument("--output", metavar="PATH", help="write a JSON report to PATH")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("run", help="verify a scenario config on its grid")
    p.add_argument("config", help="scenario JSON document")
    p.add_argument("--step", type=float, help="override stencil step")
    p.add_argument("--threshold", type=float, help="override residual threshold")
    p.add_argument("--branch", choices=["plus", "minus"], help="override branch")
    p.add_argument(
        "--output", metavar="PATH", help="additionally export the grid CSV to PATH"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "sweep", help="repeat `run` over the config's sweep override list"
    )
    p.add_argument("config", help="scenario JSON document with a 'sweep' list")
    p.add_argument("--step", type=float, help="override stencil step")
    p.add_argument("--threshold", type=float, help="override residual threshold")
    p.add_argument("--branch", choices=["plus", "minus"], help="override branch")
    p.set_defaults(func=cmd_sweep, output=None)

    p = sub.add_parser(
        "reduce", help="check the (1+1)-dimensional solitary wave (a = c)"
    )
    p.add_argument("a", type=float, help="wave parameter a (= c)")
    p.add_argument("d", type=float, help="phase offset d")
    p.add_argument("--branch", choices=["plus", "minus"], default="plus")
    p.add_argument("--step", type=float, default=5e-3)
    p.add_argument("--threshold", type=float, default=1e-5)
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
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
