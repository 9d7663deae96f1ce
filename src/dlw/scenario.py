"""Scenario configuration, orchestration, and grid data export.

A scenario is one JSON document selecting a branch, a seed, a solution path,
an evaluation grid, stencil and threshold settings, and export targets.  The
schema mirrors the dataclasses below; expressions are strings in the
coefficient-expression grammar.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .jetcalc import Branch
from .residual import (
    FieldSampler,
    GridSpec,
    ResidualReport,
    StencilConfig,
    aggregate_residuals,
)
from .seedlab import (
    ExprSyntaxError,
    HeatPolynomial,
    Kernel,
    SeedField,
    SeedSpec,
    parse_coeff_expr,
)
from .transform import (
    FieldPair,
    PoleError,
    exact_uh,
    exact_uh_const,
    one_plus_exp,
    transform_point,
)

__all__ = [
    "ConfigError",
    "ConstParams",
    "ExportSpec",
    "PointRecord",
    "Scenario",
    "CSV_HEADER",
    "load_config",
    "scenario_from_dict",
    "merge_config",
    "build_sampler",
    "evaluate_grid",
    "evaluate_scenario",
    "write_outputs",
    "export_csv",
    "export_report",
]

SOLUTION_PATHS = ("transform", "exact", "exact-const")
SEED_KINDS = ("constant", "kernels", "poly", "mixed")

# fd_residual_dlw or fd_residual_1d: (sampler, point, stencil) -> (r1, r2)
Residual = Callable[[FieldSampler, tuple, StencilConfig], tuple[float, float]]


class ConfigError(ValueError):
    """Invalid scenario document or flag; the message names where it is."""


@dataclass(frozen=True)
class ExportSpec:
    format: str  # "csv" | "report"
    path: str


@dataclass(frozen=True)
class ConstParams:
    """Constants of the exact-const solution path."""

    a: float
    c: float
    d: float


@dataclass(frozen=True)
class Scenario:
    branch: Branch
    solution_path: str
    seed: SeedSpec | None
    params: ConstParams | None
    grid: GridSpec
    stencil: StencilConfig
    max_residual: float
    outputs: tuple[ExportSpec, ...]
    perturb_h: float = 0.0


class PointRecord(NamedTuple):
    """One exported grid row, fields in CSV column order; nan marks
    pole-skipped values."""

    x: float
    y: float
    t: float
    phi: float
    u: float
    h: float
    res1: float
    res2: float


CSV_HEADER = ",".join(PointRecord._fields)


def load_config(path: str | Path) -> dict:
    """Read a scenario document; raises ConfigError with a location."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config {path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return raw


def merge_config(base: dict, override: dict) -> dict:
    """Recursively merge override onto base (dicts merged, all else replaced)."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = merge_config(merged[key], value)
        else:
            merged[key] = value
    return merged


def _require(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}: missing key {key!r}")
    return raw[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    # json accepts NaN and Infinity, and integers beyond the float range
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _expr(value, where: str):
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected an expression string, got {value!r}")
    try:
        return parse_coeff_expr(value)
    except ExprSyntaxError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_seed(raw, branch: Branch, where: str) -> SeedSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _require(raw, "kind", where)
    if kind not in SEED_KINDS:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    constant = _number(raw.get("constant", 0.0), f"{where}.constant")
    kernels = []
    for pos, entry in enumerate(raw.get("kernels", [])):
        label = f"{where}.kernels[{pos}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{label}: expected an object")
        kernels.append(
            Kernel(
                amplitude=_number(entry.get("amplitude", 1.0), f"{label}.amplitude"),
                a=_expr(_require(entry, "a", label), f"{label}.a"),
                b=_expr(_require(entry, "b", label), f"{label}.b"),
            )
        )
    poly = None
    if "poly" in raw:
        entry = raw["poly"]
        label = f"{where}.poly"
        if not isinstance(entry, dict):
            raise ConfigError(f"{label}: expected an object")
        poly = HeatPolynomial(
            c2=_expr(entry.get("c2", "0"), f"{label}.c2"),
            c1=_expr(entry.get("c1", "0"), f"{label}.c1"),
            c0=_expr(entry.get("c0", "0"), f"{label}.c0"),
        )
    if kind == "constant" and (kernels or poly):
        raise ConfigError(f"{where}: kind 'constant' admits no kernels or poly")
    if kind == "kernels" and (not kernels or poly):
        raise ConfigError(f"{where}: kind 'kernels' needs kernels and no poly")
    if kind == "poly" and (kernels or poly is None):
        raise ConfigError(f"{where}: kind 'poly' needs a poly part and no kernels")
    return SeedSpec(
        branch=branch,
        constant_term=constant,
        kernels=tuple(kernels),
        poly=poly,
    )


def _parse_grid(raw, where: str) -> GridSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    spans = {}
    for axis in ("x", "y", "t"):
        entry = _require(raw, axis, where)
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ConfigError(f"{where}.{axis}: expected [lo, hi, count]")
        lo = _number(entry[0], f"{where}.{axis}[0]")
        hi = _number(entry[1], f"{where}.{axis}[1]")
        if not isinstance(entry[2], int) or isinstance(entry[2], bool):
            raise ConfigError(f"{where}.{axis}[2]: expected an integer count")
        spans[axis] = (lo, hi, entry[2])
    try:
        return GridSpec(
            *spans["x"][0:2], spans["x"][2],
            *spans["y"][0:2], spans["y"][2],
            *spans["t"][0:2], spans["t"][2],
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def scenario_from_dict(raw: dict, where: str = "config") -> Scenario:
    """Validate a loaded document into a Scenario."""
    branch_name = _require(raw, "branch", where)
    try:
        branch = Branch.from_name(str(branch_name))
    except ValueError as exc:
        raise ConfigError(f"{where}.branch: {exc}") from None

    path = raw.get("solution_path", "transform")
    if path not in SOLUTION_PATHS:
        raise ConfigError(f"{where}.solution_path: unknown path {path!r}")

    seed = None
    params = None
    if path == "exact-const":
        entry = _require(raw, "params", where)
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}.params: expected an object")
        params = ConstParams(
            a=_number(_require(entry, "a", f"{where}.params"), f"{where}.params.a"),
            c=_number(_require(entry, "c", f"{where}.params"), f"{where}.params.c"),
            d=_number(_require(entry, "d", f"{where}.params"), f"{where}.params.d"),
        )
    else:
        seed = _parse_seed(_require(raw, "seed", where), branch, f"{where}.seed")
        if path == "exact":
            unit_kernel = (
                seed.constant_term == 1.0
                and len(seed.kernels) == 1
                and seed.kernels[0].amplitude == 1.0
                and seed.poly is None
            )
            if not unit_kernel:
                raise ConfigError(
                    f"{where}: solution_path 'exact' needs constant 1 and exactly "
                    "one kernel of amplitude 1"
                )

    stencil_raw = raw.get("stencil", {})
    if not isinstance(stencil_raw, dict):
        raise ConfigError(f"{where}.stencil: expected an object")
    step = _number(stencil_raw.get("step", 5e-3), f"{where}.stencil.step")
    try:
        stencil = StencilConfig(step=step)
    except ValueError as exc:
        raise ConfigError(f"{where}.stencil: {exc}") from None

    thresholds = raw.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigError(f"{where}.thresholds: expected an object")
    max_residual = _number(
        thresholds.get("max_residual", 1e-5), f"{where}.thresholds.max_residual"
    )
    if not max_residual > 0:
        raise ConfigError(f"{where}.thresholds.max_residual: must be positive")

    outputs = []
    for pos, entry in enumerate(raw.get("outputs", [])):
        label = f"{where}.outputs[{pos}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{label}: expected an object")
        fmt = _require(entry, "format", label)
        if fmt not in ("csv", "report"):
            raise ConfigError(f"{label}.format: unknown format {fmt!r}")
        target = _require(entry, "path", label)
        if not isinstance(target, str):
            raise ConfigError(f"{label}.path: expected a string")
        outputs.append(ExportSpec(format=fmt, path=target))

    debug = raw.get("debug", {})
    if not isinstance(debug, dict):
        raise ConfigError(f"{where}.debug: expected an object")
    perturb_h = _number(debug.get("perturb_h", 0.0), f"{where}.debug.perturb_h")

    return Scenario(
        branch=branch,
        solution_path=path,
        seed=seed,
        params=params,
        grid=_parse_grid(_require(raw, "grid", where), f"{where}.grid"),
        stencil=stencil,
        max_residual=max_residual,
        outputs=tuple(outputs),
        perturb_h=perturb_h,
    )


def build_sampler(sc: Scenario) -> tuple[FieldSampler, Callable[..., float]]:
    """Sampler (u, h) plus the underlying seed value for the phi column."""
    sign = sc.branch.sign
    if sc.solution_path == "exact-const":
        p = sc.params

        def sampler(x, y, t):
            return exact_uh_const(p.a, p.c, p.d, sc.branch, (x, y, t))

        def phi_value(x, y, t):
            return one_plus_exp(p.a * x - sign * p.a * p.a * t + p.c * y + p.d)

    else:
        # One field per scenario: its coefficient table serves the phi column
        # and every sample of either path.
        field = SeedField(sc.seed)

        def phi_value(x, y, t):
            return field.value((x, y, t))

        if sc.solution_path == "exact":

            def sampler(x, y, t):
                a, b = field.duals(y, 0)
                return exact_uh(a, b, sc.branch, (x, y, t))

        else:

            def sampler(x, y, t):
                return transform_point(field, (x, y, t))

    if sc.perturb_h:
        inner = sampler
        scale = sc.perturb_h

        def sampler(x, y, t):  # negative control: corrupt h by scale*x^2
            u, h = inner(x, y, t)
            return FieldPair(u, h + scale * x * x)

    return sampler, phi_value


def evaluate_grid(
    grid: GridSpec,
    cfg: StencilConfig,
    residual: Residual,
    sampler: FieldSampler,
    phi_value: Callable[..., float],
) -> tuple[ResidualReport, list[PointRecord]]:
    """Residuals, fields and seed values at every grid point, x fastest.

    Each point evaluates phi, then the stencil residual, then (u, h) at the
    centre. A point whose stencil meets a pole is skipped, not failed: its
    record keeps phi and carries nan in the other columns.
    """
    points = grid.points()
    results = []
    records = []
    nan = math.nan
    for x, y, t in points:
        phi = phi_value(x, y, t)
        try:
            r1, r2 = residual(sampler, (x, y, t), cfg)
            u, h = sampler(x, y, t)
            results.append((r1, r2))
            records.append(PointRecord(x, y, t, phi, u, h, r1, r2))
        except PoleError:
            results.append(None)
            records.append(PointRecord(x, y, t, phi, nan, nan, nan, nan))
    return aggregate_residuals(points, results), records


def evaluate_scenario(
    sc: Scenario, residual: Residual
) -> tuple[ResidualReport, list[PointRecord]]:
    """Evaluate fields and `residual` on the scenario's grid."""
    return evaluate_grid(sc.grid, sc.stencil, residual, *build_sampler(sc))


def export_csv(records: list[PointRecord], path: str | Path) -> None:
    """Fixed-header CSV, one row per grid point, 17 significant digits."""
    lines = [CSV_HEADER]
    for record in records:
        lines.append(",".join(format(value, ".17g") for value in record))
    Path(path).write_text("\n".join(lines) + "\n")


def export_report(sc: Scenario, report: ResidualReport, path: str | Path) -> None:
    """Machine-readable run report: the report's fields plus the run's grid
    and step."""
    grid = sc.grid
    payload = {
        "scenario": {
            "branch": sc.branch.name.lower(),
            "solution_path": sc.solution_path,
            "max_residual": sc.max_residual,
            "step": sc.stencil.step,
        },
        "report": {
            **asdict(report),
            "grid": {
                "x": [grid.x0, grid.x1, grid.nx],
                "y": [grid.y0, grid.y1, grid.ny],
                "t": [grid.t0, grid.t1, grid.nt],
            },
            "stencil": {"step": sc.stencil.step},
        },
        "verified": report.passes(sc.max_residual),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_outputs(
    sc: Scenario, report: ResidualReport, records: list[PointRecord]
) -> None:
    for spec in sc.outputs:
        if spec.format == "csv":
            export_csv(records, spec.path)
        else:
            export_report(sc, report, spec.path)
