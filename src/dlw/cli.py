"""Command-line front end.

Subcommands: `derive` (exact symbolic derivation and checks), `run` (verify a
scenario config on its grid and export data), `reduce` (the (1+1)-dimensional
solitary-wave check), and `sweep` (repeat `run` over a parameter list).
Exit codes: 0 verified, 1 verification failure, 2 input error or an output
that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import balance
from .jetcalc import Branch
from .residual import GridSpec, StencilConfig, fd_residual_1d
from .scenario import (
    ConfigError,
    evaluate_grid,
    evaluate_scenario,
    export_csv,
    load_config,
    merge_config,
    scenario_from_dict,
    verified,
    write_outputs,
)
from .seedlab import EvaluationError
from .transform import one_plus_exp, reduce_1plus1

__all__ = ["main"]


def cmd_derive(args) -> int:
    try:
        report = balance.derive()
    except balance.DerivationError as exc:
        print(f"derivation FAILED:\n{exc}")
        return 1
    print(balance.render_report(report))
    if args.output:
        payload = json.dumps(balance.report_to_dict(report), indent=2, sort_keys=True)
        Path(args.output).write_text(payload + "\n")
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
    ok = verified(sc, report)
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


def _verify(label: str, raw: dict, args, where: str) -> bool:
    """One scenario: overrides, parse, evaluate, write, summarise."""
    sc = scenario_from_dict(_apply_overrides(raw, args), where=where)
    report, records = evaluate_scenario(sc)
    write_outputs(sc, report, records)
    return _print_summary(label, sc, report)


def cmd_run(args) -> int:
    ok = _verify("run", load_config(args.config), args, where="config")
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
        all_ok = _verify(label, merged, args, where=label) and all_ok
    return 0 if all_ok else 1


def cmd_reduce(args) -> int:
    for flag, count in (("--nz", args.nz), ("--nt", args.nt)):
        if count < 1:
            raise ConfigError(f"{flag} must be >= 1")
    if not args.step > 0:
        raise ConfigError("--step must be positive")
    try:
        grid = GridSpec(
            args.z0, args.z1, args.nz, 0.0, 0.0, 1, args.t0, args.t1, args.nt
        )
    except ValueError:
        # the counts passed above, so a range is reversed
        axis = "z" if args.z1 < args.z0 else "t"
        raise ConfigError(f"--{axis}0 must not exceed --{axis}1") from None
    branch = Branch.from_name(args.branch)

    def reduced(z, t):
        return reduce_1plus1(args.a, args.d, branch, z, t)

    def residual(_sampler, point, cfg):
        z, _, t = point
        return fd_residual_1d(reduced, z, t, cfg)

    def phi_value(z, _, t):
        return one_plus_exp(args.a * z - branch.sign * args.a**2 * t + args.d)

    report, records = evaluate_grid(
        grid,
        StencilConfig(args.step),
        residual,
        lambda z, _, t: reduced(z, t),
        phi_value,
    )
    max_abs = report.max_abs
    print(
        f"reduce: a = c = {args.a:g}, d = {args.d:g}, branch {args.branch}, "
        f"z in [{args.z0:g}, {args.z1:g}], t in [{args.t0:g}, {args.t1:g}]"
    )
    print(
        f"  max residual: r1 = {max_abs[0]:.6e}, r2 = {max_abs[1]:.6e} "
        f"(threshold {args.threshold:g})"
    )
    ok = max_abs[0] <= args.threshold and max_abs[1] <= args.threshold
    print(f"  verdict: {'PASS' if ok else 'FAIL'}")
    if args.output:
        export_csv(records, args.output)
    return 0 if ok else 1


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
