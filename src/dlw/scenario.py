"""Scenario configuration, the grid walk, and grid data export.

A scenario is one JSON document selecting a branch, a seed, a solution path,
an evaluation grid, stencil and threshold settings, and export targets.  The
schema mirrors the records below; expressions are strings in the
coefficient-expression grammar.

`json` is imported by the two functions that use it, `load_config` and
`export_report`, so a command that builds its scenario from flags and
writes no report (`reduce`) never loads the codec.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from contextlib import ExitStack, suppress
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

from .branch import Branch
from .errors import PATH_SHOWN, ConfigError, cut, shown
from .residual import (
    FieldSampler,
    GridSpec,
    ResidualFold,
    ResidualReport,
    StencilConfig,
    Terms,
    aggregate_residuals,
)
from .seedlab.exprlang import ExprSyntaxError, parse_coeff_expr
from .seedlab.seeds import HeatPolynomial, Kernel, SeedField, SeedSpec
from .transform import (
    PoleError,
    const_wave,
    exact_phi,
    exact_phi_const,
    exact_uh,
    exact_uh_const,
    transform_point,
)

__all__ = [
    "ConstParams",
    "ExportSpec",
    "Scenario",
    "CSV_HEADER",
    "load_config",
    "scenario_from_dict",
    "merge_config",
    "build_sampler",
    "evaluate_grid",
    "evaluate_scenario",
    "export_csv",
    "export_report",
]

SOLUTION_PATHS = ("transform", "exact", "exact-const")
SEED_KINDS = ("constant", "kernels", "poly", "mixed")
# the keys of one run; `dlw sweep` checks each `sweep` entry merged onto the rest
_DOCUMENT_KEYS = ("branch", "solution_path", "seed", "params", "grid", "stencil",
                  "thresholds", "outputs", "debug")

# fd_residual_dlw or fd_residual_1d: (sampler, point, stencil) -> six terms
Residual = Callable[[FieldSampler, tuple, StencilConfig], Terms]


class ExportSpec(NamedTuple):
    format: str  # "csv" | "report"
    path: str


class ConstParams(NamedTuple):
    """Constants of the exact-const solution path."""

    a: float
    c: float
    d: float


class Scenario(NamedTuple):
    branch: Branch
    solution_path: str
    seed: SeedSpec | None
    params: ConstParams | None
    grid: GridSpec
    stencil: StencilConfig
    max_residual: float
    outputs: tuple[ExportSpec, ...]
    perturb_h: float = 0.0


# A split walk (`_split_walk`) deals the grid out in blocks of BLOCK points,
# and gives each walker at least MIN_SPLIT points. On a 2-core x86-64 machine
# with CPython 3.11, a fork, pipe and reap round trip took a median of 2.3 ms,
# the walk of about 80 points, and a walk split in two took 10% less wall
# time than in one process at 726 points, 23% at 1,200 and 21% at 2,205. So
# the benchmark's closed_form walks (363 points at most) stay in one process,
# and a 2,205-point grid splits up to four ways.
BLOCK = 256
MIN_SPLIT = 512

# the columns of an `evaluate_grid` row, in order
CSV_HEADER = "x,y,t,phi,u,h,res1,res2"
# one row and its newline, 17 significant digits a value: "%.17g" renders as
# format(v, ".17g")
_CSV_ROW = ",".join("%.17g" for _ in CSV_HEADER.split(",")) + "\n"


class _Pairs(list):
    """One JSON object's (key, value) pairs as json reads them, in order."""


def _plain(value, where: str, names: list | None = None):
    """`value`, named `where` in an error, with each object in it made a dict.
    A member is named as scenario_from_dict names it (`config.seed`, then
    `config.seed.kernels[0]`), each key cut as `errors.cut` cuts it and the
    whole path cut at PATH_SHOWN characters, however deep it goes; the
    members of `value` itself take `names` in order where given. json keeps
    a repeated key's last value and drops a setting silently, so the first
    key an object names twice raises ConfigError naming that object. Loops,
    not comprehensions, keep to one frame a level, as deep as json's own
    reader goes."""
    if isinstance(value, _Pairs):
        obj = {}
        for pos, (key, item) in enumerate(value):
            if key in obj:
                raise ConfigError(f"{where}: duplicate key {shown(key)}")
            name = names[pos] if names else cut(f"{where}.{cut(key)}", PATH_SHOWN)
            obj[key] = _plain(item, name)
        return obj
    if isinstance(value, list):
        items = []
        for pos, item in enumerate(value):
            items.append(_plain(item, cut(f"{where}[{pos}]", PATH_SHOWN)))
        return items
    return value


def _int(text: str) -> int | float:
    """A JSON integer literal as int, or, past the digits int() converts, as
    the float it rounds to (inf or -inf), which the key's own check rejects
    as it does a literal past the float range."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_config(path: str | Path) -> dict:
    """Read a scenario document; raises ConfigError with a location."""
    name = f"config {cut(str(path), PATH_SHOWN)}"  # how every error names it
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{name}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    import json

    try:
        raw = json.loads(text, object_pairs_hook=_Pairs, parse_int=_int)
        if not isinstance(raw, _Pairs):
            raise ConfigError(f"{name}: top level must be an object")
        # a sweep entry is named as `dlw sweep` names it: sweep[0], sweep[1], ...
        names = ["sweep" if key == "sweep" else f"config.{key}" for key, _ in raw]
        return _plain(raw, name, names)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{name}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    except RecursionError:  # json's nesting limit, or _plain's
        raise ConfigError(f"{name}: nested too deeply") from None


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
        raise ConfigError(f"{where}: expected a number, got {shown(value)}")
    # json accepts NaN and Infinity, and integers beyond the float range
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {shown(value)}")
    return number


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list")
    return value


def _object(value, where: str, keys: tuple[str, ...]) -> dict:
    """An object whose keys are all among `keys`: a misspelt key is an error,
    not a silently ignored setting."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {shown(key)}")
    return value


def _expr(value, where: str):
    if not isinstance(value, str):
        raise ConfigError(
            f"{where}: expected an expression string, got {shown(value)}"
        )
    try:
        return parse_coeff_expr(value)
    except ExprSyntaxError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_seed(raw, branch: Branch, where: str) -> SeedSpec:
    raw = _object(raw, where, ("kind", "constant", "kernels", "poly"))
    kind = _require(raw, "kind", where)
    if kind not in SEED_KINDS:
        raise ConfigError(f"{where}.kind: unknown kind {shown(kind)}")
    constant = _number(raw.get("constant", 0.0), f"{where}.constant")
    kernels = []
    for pos, entry in enumerate(_list(raw.get("kernels", []), f"{where}.kernels")):
        label = f"{where}.kernels[{pos}]"
        entry = _object(entry, label, ("amplitude", "a", "b"))
        kernels.append(
            Kernel(
                amplitude=_number(entry.get("amplitude", 1.0), f"{label}.amplitude"),
                a=_expr(_require(entry, "a", label), f"{label}.a"),
                b=_expr(_require(entry, "b", label), f"{label}.b"),
            )
        )
    poly = None
    if "poly" in raw:
        label = f"{where}.poly"
        entry = _object(raw["poly"], label, ("c2", "c1", "c0"))
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
    raw = _object(raw, where, ("x", "y", "t"))
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
        return GridSpec(**spans)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def scenario_from_dict(raw: dict, where: str = "config") -> Scenario:
    """Validate a loaded document into a Scenario. `seed` and `params` are
    checked wherever they appear; the path says which of the two it needs."""
    _object(raw, where, _DOCUMENT_KEYS)
    branch_name = str(_require(raw, "branch", where))
    try:
        branch = Branch[branch_name.upper()]
    except KeyError:
        raise ConfigError(
            f"{where}.branch: unknown branch {shown(branch_name)} "
            "(expected 'plus' or 'minus')"
        ) from None

    path = raw.get("solution_path", "transform")
    if path not in SOLUTION_PATHS:
        raise ConfigError(f"{where}.solution_path: unknown path {shown(path)}")
    _require(raw, "params" if path == "exact-const" else "seed", where)

    seed = None
    if "seed" in raw:
        seed = _parse_seed(raw["seed"], branch, f"{where}.seed")
    params = None
    if "params" in raw:
        label = f"{where}.params"
        entry = _object(raw["params"], label, ("a", "c", "d"))
        params = ConstParams(
            a=_number(_require(entry, "a", label), f"{label}.a"),
            c=_number(_require(entry, "c", label), f"{label}.c"),
            d=_number(_require(entry, "d", label), f"{label}.d"),
        )
    if path == "exact" and not (
        seed.constant_term == 1.0
        and len(seed.kernels) == 1
        and seed.kernels[0].amplitude == 1.0
        and seed.poly is None
    ):
        raise ConfigError(
            f"{where}: solution_path 'exact' needs constant 1 and exactly "
            "one kernel of amplitude 1"
        )

    stencil_raw = _object(raw.get("stencil", {}), f"{where}.stencil", ("step",))
    default_step = StencilConfig._field_defaults["step"]
    step = _number(stencil_raw.get("step", default_step), f"{where}.stencil.step")

    thresholds = _object(
        raw.get("thresholds", {}), f"{where}.thresholds", ("max_residual",)
    )
    max_residual = _number(
        thresholds.get("max_residual", 1e-5), f"{where}.thresholds.max_residual"
    )
    if not max_residual > 0:
        raise ConfigError(f"{where}.thresholds.max_residual: must be positive")

    outputs = []
    for pos, entry in enumerate(_list(raw.get("outputs", []), f"{where}.outputs")):
        label = f"{where}.outputs[{pos}]"
        entry = _object(entry, label, ("format", "path"))
        fmt = _require(entry, "format", label)
        if fmt not in ("csv", "report"):
            raise ConfigError(f"{label}.format: unknown format {shown(fmt)}")
        target = _require(entry, "path", label)
        if not isinstance(target, str):
            raise ConfigError(f"{label}.path: expected a string")
        if not target:
            raise ConfigError(f"{label}.path: expected a file path")
        outputs.append(ExportSpec(format=fmt, path=target))

    debug = _object(raw.get("debug", {}), f"{where}.debug", ("perturb_h",))
    perturb_h = _number(debug.get("perturb_h", 0.0), f"{where}.debug.perturb_h")

    grid = _parse_grid(_require(raw, "grid", where), f"{where}.grid")
    try:
        stencil = StencilConfig(step=step)
        grid.check_step(step)
    except ValueError as exc:
        raise ConfigError(f"{where}.stencil: {exc}") from None

    return Scenario(
        branch=branch,
        solution_path=path,
        seed=seed,
        params=params,
        grid=grid,
        stencil=stencil,
        max_residual=max_residual,
        outputs=tuple(outputs),
        perturb_h=perturb_h,
    )


def build_sampler(sc: Scenario) -> tuple[FieldSampler, Callable[..., float]]:
    """Sampler (u, h) plus the seed value for the phi column, each one bound
    frame: `partial`s of transform's point maps, or the field's own `phi`."""
    if sc.solution_path == "exact-const":
        wave = const_wave(*sc.params, sc.branch)
        sampler = partial(exact_uh_const, wave)
        phi_value = partial(exact_phi_const, wave)
    else:
        # One field per scenario: its coefficient table serves the phi column
        # and every sample of either path.
        field = SeedField(sc.seed)
        if sc.solution_path == "exact":
            sampler = partial(exact_uh, field)
            phi_value = partial(exact_phi, field)
        else:
            sampler = partial(transform_point, field)
            phi_value = field.phi

    if sc.perturb_h:
        inner = sampler
        scale = sc.perturb_h

        def sampler(x, y, t):  # negative control: corrupt h by scale*x^2
            u, h = inner(x, y, t)
            return u, h + scale * x * x

    return sampler, phi_value


def _walk(cfg, residual, sampler, phi_value, points, add, skip, row) -> None:
    """The one loop body of every grid walk (see evaluate_grid) over
    `points`: each point goes to `add(point, r1, r2)`, or to `skip()` where
    its stencil meets a pole, and then its row to `row` where given."""
    nan = math.nan
    for point in points:
        x, y, t = point
        phi = phi_value(x, y, t)
        try:
            a1, b1, c1, a2, b2, c2 = residual(sampler, point, cfg)
            r1 = a1 + b1 + c1
            r2 = a2 + b2 + c2
            u, h = sampler(x, y, t)
        except PoleError:
            skip()
            if row is not None:
                row((x, y, t, phi, nan, nan, nan, nan))
            continue
        add(point, r1, r2)
        if row is not None:
            row((x, y, t, phi, u, h, r1, r2))


def evaluate_grid(
    grid: GridSpec,
    cfg: StencilConfig,
    residual: Residual,
    sampler: FieldSampler,
    phi_value: Callable[..., float],
    row: Callable[[tuple], object] | None = None,
    walkers: int = 1,
) -> ResidualReport:
    """The residual report of one walk over the grid, x fastest.

    Each point evaluates phi, then the stencil residual, then (u, h) at the
    centre, and is folded into the report as it is walked: the walk keeps
    no point it has passed. A point whose stencil meets a pole is skipped,
    not failed. Where `row` is given, it is called with each point's row in
    walk order, a plain tuple (x, y, t, phi, u, h, res1, res2) in
    CSV_HEADER's column order; a skipped point's row keeps phi and carries
    nan in the other columns. With no `row`, no row is built.

    With `walkers` above 1, the walk is split over that many processes
    (see `_split_walk`), and the report, the rows and any error are those
    of the walk in one process. Only a caller whose sampler and phi_value
    are pure may split: what they record stays in the worker processes.
    """
    fold = ResidualFold()
    walk = partial(_walk, cfg, residual, sampler, phi_value)
    if walkers > 1:
        _split_walk(grid, walkers, walk, fold, row)
    else:
        walk(grid.points(), fold.add, fold.skip, row)
    return aggregate_residuals(fold)


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _walkers(size: int) -> int:
    """How many processes walk a grid of `size` points: one per usable core,
    each given at least MIN_SPLIT points, and one where there is no fork or
    where another thread runs, which a forked process would not have."""
    threading = sys.modules.get("threading")  # read, never imported
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    return max(1, min(_usable_cores(), size // MIN_SPLIT))


def _blocks(grid: GridSpec):
    """The grid's points in walk order, as lists of BLOCK points."""
    points = grid.points()
    while block := list(islice(points, BLOCK)):
        yield block


def _split_walk(grid: GridSpec, walkers: int, walk, fold: ResidualFold, row) -> None:
    """Walk `grid` over `walkers` processes, folding and passing on rows
    exactly as one process would.

    Block b of the walk belongs to walker b % walkers. This process is
    walker 0; the others are forked workers. A worker walks its blocks and
    sends each block's rows through its own pipe, marshalled, with None
    before the row of a skipped point; a full pipe holds it until its rows
    are read. This process takes the blocks strictly in walk order: it walks
    its own, and folds and passes on each worker's rows. A worker whose
    block raises exits, and one that dies closes its pipe too: at the end of
    the pipe this process walks that worker's remaining blocks itself, so an
    error surfaces at the point, and with the message, of the walk in one
    process; so it does for a worker that could not be forked. A worker
    leaves only through os._exit, so it never unwinds into its caller or
    flushes an inherited buffer; every worker is killed and reaped before
    this returns or raises."""
    import signal

    readers: list = [None]  # walker 0 reads from no pipe
    pids = []
    try:
        for worker in range(1, walkers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            # no signal handler runs in a worker before it is inside its `try`
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(grid, walkers, worker, walk, write_end, mask)
                pids.append(pid)
            except OSError:  # no process to spare: this process walks those blocks
                readers[-1].close()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(write_end)  # this process's copy: the pipe ends with the worker
        for block_number, block in enumerate(_blocks(grid)):
            reader = readers[block_number % walkers]
            if reader is not None and not reader.closed:
                try:
                    rows = marshal.load(reader)
                except (EOFError, ValueError):  # the worker raised or died
                    reader.close()
                else:
                    _fold_rows(rows, fold, row)
                    continue
            walk(block, fold.add, fold.skip, row)
    finally:
        for reader in readers[1:]:
            reader.close()
        for pid in pids:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _worker(grid: GridSpec, walkers: int, worker: int, walk, write_end: int, mask):
    """A forked worker of `_split_walk`: restore the signal `mask`, walk
    every block of `worker` and write its rows to `write_end`, then exit;
    on any exception, an interrupt included, exit at once."""
    import signal

    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        out = open(write_end, "wb")
        for block_number, block in enumerate(_blocks(grid)):
            if block_number % walkers == worker:
                rows = []  # each row carries its point's residuals: no fold here
                walk(block, lambda point, r1, r2: None, partial(rows.append, None), rows.append)
                marshal.dump(rows, out)
                out.flush()
    finally:
        os._exit(0)


def _fold_rows(rows: list, fold: ResidualFold, row) -> None:
    """Fold a worker's block of rows and pass each on to `row`."""
    rows = iter(rows)
    for record in rows:
        if record is None:  # the next row is a skipped point's
            fold.skip()
            record = next(rows)
        else:
            fold.add(record[:3], record[6], record[7])
        if row is not None:
            row(record)


def evaluate_scenario(
    sc: Scenario, residual: Residual, row: Callable[[tuple], object] | None = None
) -> ResidualReport:
    """Evaluate fields and `residual` on the scenario's grid, passing each
    point's row to `row` where given (see evaluate_grid). The samplers are
    built here and are pure, so a large grid is split over the usable cores
    (`_walkers`)."""
    return evaluate_grid(sc.grid, sc.stencil, residual, *build_sampler(sc), row,
                         _walkers(sc.grid.size))


def export_csv(files: ExitStack, path: str | Path) -> Callable[[tuple], object]:
    """Start a fixed-header CSV at `path` and return the function that
    writes one row to it, 17 significant digits a value: a grid walk's
    `row`, so the file gets one row per point as the walk reaches it.

    The file is opened in `files`, which closes it. Export holds one row's
    text, never the file's. A run writes it to a temporary sibling through
    `cli.write_outputs`, so a failed or interrupted walk or write leaves
    neither the output nor the sibling."""
    write = files.enter_context(Path(path).open("w")).write
    write(CSV_HEADER + "\n")
    text = _CSV_ROW
    return lambda record: write(text % record)


def export_report(
    sc: Scenario, report: ResidualReport, verdict: str, path: str | Path
) -> None:
    """Machine-readable run report: the report's fields, the run's grid and
    step, and whether `verdict` is PASS. JSON has no NaN or inf, so a
    non-finite residual is null."""
    import json

    fields = report._asdict()
    for key in ("max_abs", "mean_abs"):
        fields[key] = [r if math.isfinite(r) else None for r in fields[key]]
    payload = {
        "scenario": {
            "branch": sc.branch.name.lower(),
            "solution_path": sc.solution_path,
            "max_residual": sc.max_residual,
            "step": sc.stencil.step,
        },
        "report": {
            **fields,
            "grid": sc.grid._asdict(),
            "stencil": sc.stencil._asdict(),
        },
        "verified": verdict == "PASS",
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
