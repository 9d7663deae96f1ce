"""Benchmark runner for dlw: end-to-end metrics, or a traced per-layer split.

    python3 perfbench/run.py --workload kernel_field --seed 1 --seconds 15 --trace 0

One caller in one thread, closed loop: each operation is one in-process call
of `dlw.cli.main` on documents generated from `--seed` (see workloads.py),
and the next call starts when the previous one returns. After one untimed
warm-up cycle, whole cycles of the workload's operations run until
`--seconds` have passed; an untraced run also goes on until at least
MIN_TIMED_OPS operations were timed, so that its tail is at least p75.
Every call goes through the correctness gate (gate.py); a mismatch or
exception is counted in `failed`.

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json:
  setup_s           median time of `import dlw.cli` in fresh interpreters
  op_s.p50          median operation time
  op_s.tail         the 11th-slowest operation time, i.e. the highest
                    percentile with at least ten operations beyond it
  throughput_per_s  grid points (evaluated + skipped) of one cycle over the
                    sum of each operation's median time; on `derive`, which
                    has no grid, derivations per second
  peak_rss_mb       peak resident set of a fresh process running one cycle
`--trace 1` runs each operation untraced and then traced, and prints the
per-layer metrics (tracer.py), normalised per traced operation.

Every reported time is scaled by a machine-speed reference sampled before,
during and after each timed call (reference.py), because the speed of a
small shared machine changes by tens of percent from moment to moment; the
traced run scales by reference samples taken between operations, so that no
sample falls inside a span. To print the end-to-end metrics of every workload:

    for w in kernel_field closed_form derive; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Lines before it give the tail
percentile, the failed ratio, the largest residual margin, and a digest of
all printed text and written CSV/report bytes, which must not change between
commits that claim identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import gate, workloads  # noqa: E402
from perfbench.reference import reference_seconds, scale  # noqa: E402
from perfbench.tracer import SAMPLERS, TARGETS, Tracer  # noqa: E402

SETUP_RUNS = 41  # after one discarded run that may compile bytecode
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
from perfbench.reference import Meter
with Meter() as meter:
    import dlw.cli
print(meter.scaled)
"""
TAIL_BEYOND = 10
MIN_TIMED_OPS = 4 * TAIL_BEYOND


def import_cli_main():
    """`dlw.cli.main` from this checkout's sources, never an installed copy."""
    if not (SRC / "dlw" / "cli.py").is_file():
        raise SystemExit(f"error: no dlw sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import dlw.cli

    if Path(dlw.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: imported dlw from {dlw.cli.__file__}, not {SRC}")
    return dlw.cli.main


class Ledger:
    """Counts attempted and failed operations and keeps what the gate saw."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.margin = 0.0
        self.digests: dict[str, str] = {}

    def record(self, op: workloads.Op, outcome: gate.Outcome) -> None:
        self.attempted += 1
        first = self.digests.setdefault(op.name, outcome.digest)
        if outcome.digest != first:
            outcome.problems.append("output differs from this operation's first run")
        if outcome.problems:
            self.failed += 1
            self.problems.append(f"{op.name}: {'; '.join(outcome.problems)}")
        if outcome.margin is not None:
            self.margin = max(self.margin, outcome.margin)

    def digest(self, ops) -> str:
        text = "".join(f"{op.name} {self.digests.get(op.name, '')}\n" for op in ops)
        return hashlib.sha256(text.encode()).hexdigest()


def write_documents(ops, workdir: Path) -> None:
    """Write the generated documents to a fresh work dir."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for op in ops:
        if op.document is not None:
            (workdir / f"{op.name}.json").write_text(op.document)


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(ROOT)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def measure_peak_rss(workload: str, seed: int, ledger: Ledger) -> tuple[float, float]:
    """Peak RSS of a fresh process running one cycle; its gate results count."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    ledger.attempted += probe["attempted"]
    ledger.failed += probe["failed"]
    ledger.problems.extend(f"(rss probe) {p}" for p in probe["problems"])
    return probe["peak_rss_mb"], probe["start_rss_mb"]


def _high_water_rss_mb() -> float:
    """Peak resident set of this process so far (VmHWM)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("error: no VmHWM in /proc/self/status")


def rss_probe(main, ops, workdir) -> None:
    start_rss = _high_water_rss_mb()  # interpreter, harness and dlw imports
    ledger = Ledger()
    for op in ops:
        ledger.record(op, gate.run_op(main, op, workdir))
    print(json.dumps({
        "peak_rss_mb": _high_water_rss_mb(),
        "start_rss_mb": start_rss,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
    }))


def timed_cycles(seconds: float, ops, step, min_ops: int = 1) -> int:
    """Call step(op) over whole cycles until `seconds` have passed and at
    least `min_ops` calls were made."""
    start = time.perf_counter()
    cycles = 0
    while cycles * len(ops) < min_ops or time.perf_counter() - start < seconds:
        for op in ops:
            step(op)
        cycles += 1
    return cycles


def end_to_end(main, ops, workdir, args, ledger: Ledger) -> tuple[dict, list[str]]:
    setup = measure_setup()
    peak_rss, start_rss = measure_peak_rss(args.workload, args.seed, ledger)
    for op in ops:  # warm-up cycle: gated, not timed
        ledger.record(op, gate.run_op(main, op, workdir))
    times: list[float] = []
    by_op: dict[str, list[float]] = {op.name: [] for op in ops}

    def step(op):
        outcome = gate.run_op(main, op, workdir, sample=True)
        times.append(outcome.scaled)
        by_op[op.name].append(outcome.scaled)
        ledger.record(op, outcome)

    timed_cycles(args.seconds, ops, step, MIN_TIMED_OPS)
    ranked = sorted(times)
    tail_index = max(len(ranked) - TAIL_BEYOND - 1, 0)
    cycle_points = sum(sum(op.points) for op in ops)
    cycle_s = sum(statistics.median(by_op[op.name]) for op in ops)
    metrics = {
        "setup_s": setup,
        "op_s.p50": statistics.median(times),
        "op_s.tail": ranked[tail_index],
        "throughput_per_s": (cycle_points or len(ops)) / cycle_s,
        "peak_rss_mb": peak_rss,
    }
    notes = [
        f"op_s.tail is p{100.0 * (tail_index + 1) / len(ranked):.2f} of "
        f"{len(ranked)} timed ops ({len(ranked) - tail_index - 1} beyond it)",
        f"peak_rss_mb {peak_rss:.2f} MiB; the peak before the first op was "
        f"{start_rss:.2f} MiB (interpreter, harness and dlw imports)",
        f"throughput_per_s counts {'grid points' if cycle_points else 'derivations'}",
    ]
    return metrics, notes


# Derived layer metrics and the targets they are computed from: each reads
# "missing" when one of its targets no longer exists.
NEEDS = {
    "residual.fd_residual_dlw.samples_per_call": ("residual.fd_residual_dlw", *SAMPLERS),
    "scenario.evaluate_scenario.extra_samples_per_point":
        ("scenario.evaluate_scenario", "scenario.build_sampler", *SAMPLERS),
    "scenario.export.calls": ("scenario.export_csv", "scenario.export_report"),
    "scenario.export.s": ("scenario.export_csv", "scenario.export_report"),
    "scenario.export.bytes": ("scenario.export_csv", "scenario.export_report"),
}


def _samples_under(tracer: Tracer, parent: str) -> int:
    return sum(tracer.children[parent, name] for name in SAMPLERS)


def traced(main, ops, workdir, seconds, ledger: Ledger, per_layer) -> tuple[dict, list[str]]:
    tracer = Tracer()
    plain_s = traced_s = 0.0
    # Over transform ops without poles, where every point is evaluated whole.
    transform_points = transform_partials = 0
    # Over ops without poles, where no stencil is cut short.
    whole_fd_calls = whole_fd_samples = 0
    refs = []

    def counters():
        return (
            tracer.stat("seeds.partials").calls,
            tracer.stat("residual.fd_residual_dlw").calls,
            _samples_under(tracer, "residual.fd_residual_dlw"),
        )

    def step(op):
        nonlocal plain_s, traced_s, transform_points, transform_partials
        nonlocal whole_fd_calls, whole_fd_samples
        refs.extend(reference_seconds() for _ in range(5))
        plain = gate.run_op(main, op, workdir)
        ledger.record(op, plain)
        before = counters()
        with tracer.installed():
            outcome = gate.run_op(main, op, workdir)
        tracer.end_op()
        ledger.record(op, outcome)
        plain_s += plain.seconds
        traced_s += outcome.seconds
        if any(op.skipped):
            return
        partials, fd_calls, fd_samples = (b - a for a, b in zip(before, counters()))
        whole_fd_calls += fd_calls
        whole_fd_samples += fd_samples
        if op.path == "transform":
            transform_points += sum(op.points)
            transform_partials += partials

    n = timed_cycles(seconds, ops, step) * len(ops)
    per_op_s = scale(1.0, statistics.median(refs)) / n  # scaled seconds per op
    values = {}
    for name, stat in tracer.stats.items():
        values[f"{name}.calls"] = stat.calls / n
        values[f"{name}.s"] = stat.total * per_op_s
        values[f"{name}.self_s"] = stat.self_time * per_op_s
    for name, _, _ in TARGETS:
        if name not in tracer.stats:
            values.update({f"{name}.calls": 0.0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
    counts = tracer.counts
    csv, report = tracer.stat("scenario.export_csv"), tracer.stat("scenario.export_report")
    extra = _samples_under(tracer, "scenario.evaluate_scenario") + counts["scenario.phi_values"]
    values.update({
        "exprlang.eval_dual.distinct_ratio": _ratio(
            counts["exprlang.eval_dual.distinct"], tracer.stat("exprlang.eval_dual").calls
        ),
        "seeds.partials.per_point": _ratio(transform_partials, transform_points),
        "transform.transform_point.poles":
            tracer.stat("transform.transform_point").errors["PoleError"] / n,
        "residual.fd_residual_dlw.samples_per_call": _ratio(whole_fd_samples, whole_fd_calls),
        "scenario.evaluate_scenario.extra_samples_per_point":
            _ratio(extra, counts["scenario.evaluate_scenario.points"]),
        "scenario.export.calls": (csv.calls + report.calls) / n,
        "scenario.export.s": (csv.total + report.total) * per_op_s,
        "scenario.export.bytes": counts["scenario.export.bytes"] / n,
        "cli.other_s": (traced_s - tracer.root_time) * per_op_s,
        "trace.overhead_ratio": traced_s / plain_s,
        "residual_margin.max": ledger.margin,
    })
    missing = set(tracer.missing)
    for entry in per_layer:
        name = entry["name"]
        if name.rpartition(".")[0] in missing or missing.intersection(NEEDS.get(name, ())):
            values[name] = None
    notes = [f"traced {n} ops; per-layer values are per traced op"]
    if tracer.missing:
        notes.append(f"missing targets: {', '.join(tracer.missing)}")
    return values, notes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    main_fn = import_cli_main()
    ops = workloads.generate(args.workload, args.seed)
    workdir = ROOT / ".perfbench" / args.workload
    if args.rss_probe:  # the parent has written the documents
        os.chdir(workdir)  # documents name their outputs relative to it
        rss_probe(main_fn, ops, workdir)
        return 0
    write_documents(ops, workdir)
    os.chdir(workdir)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = Ledger()
    if args.trace:
        kind = "per_layer"
        values, notes = traced(main_fn, ops, workdir, args.seconds, ledger, spec[kind])
    else:
        kind = "end_to_end"
        values, notes = end_to_end(main_fn, ops, workdir, args, ledger)

    metrics = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in values:
            raise SystemExit(f"error: metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        shown = "missing" if values[name] is None else f"{values[name]:.6g}"
        print(f"{args.workload} {name} = {shown} {entry['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(
        f"{args.workload} failed_ratio = {ledger.failed / ledger.attempted:.6g} "
        f"({ledger.failed} of {ledger.attempted} ops)"
    )
    print(f"{args.workload} residual_margin.max = {ledger.margin:.6g}")
    print(f"{args.workload} output digest {ledger.digest(ops)}")
    for problem in ledger.problems[:20]:
        print(f"{args.workload} FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
