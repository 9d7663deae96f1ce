"""A/B comparison of two source trees on the committed benchmark.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --seed 4901 --out BENCH_<n>.json

Both trees are copied to sibling directories of equal path length (`parent`
and `change` in one temporary directory), without caches, and compiled once.
Each tree then runs its own unchanged `perfbench/run.py --trace 0` in
alternating pairs: one seed per pair on both sides, the parent first on even
pairs and the change first on odd ones, and each workload on its own range
of consecutive seeds. Pick seeds that development runs did not use.

For each workload and each end-to-end metric of the parent's BENCHMARK.json
it prints both medians and quartile ranges, the relative change of the
median, the number of pairs the change won, and a verdict against the
metric's bound:
  regression    the median is worse by more than the bound
  gain          the change won at least nine tenths of the pairs, and its
                median is better by more than the parent's quartile range
  unresolved    either side's quartile range is wider than the bound, or
                there is one pair, so a shift within the bound cannot be
                told from noise; unless every run of the change reads
                better than every run of the parent
  within bound  anything else
`--layers` also runs one traced pass per tree and workload (`--trace 1`
at the workload's first seed, for the same seconds) and prints each
per-layer metric of the parent's BENCHMARK.json for parent and change,
with both output digests, so that a change shows the layer it moved.
`--replay` times each numeric layer without the tracer. In each pair,
each tree's own `dlw` runs in a process of its own on the same documents,
read from the parent's `scenarios/`: two_kernel (transform path),
exact_wave (exact path) and exact_wave's grid as an exact-const wave. The
process walks each document with `scenario.evaluate_grid` and records
every sample, grid point, residual and CSV row of the walk, which fills
the coefficient tables. The pair's two processes then run in lockstep:
each pass runs on one side and then on the other, and the side that goes
first alternates from pass to pass and from pair to pair, so a slow spell
of the machine that lasts a whole process slows both sides. A pass times
each layer in turn over the recorded inputs, with `gc` off; a layer keeps
the best of REPLAY_PASSES (21) passes, in ns per call:
each path's `build_sampler` sampler and phi column, `SeedField.partials`,
`eval_dual` over the distinct (expression, y) pairs, `fd_residual_dlw` per
grid point, `ResidualFold.add` and the CSV row's `%` formatting. For each
layer it prints both medians, the median of the paired ratios
change/parent, the order-statistic interval of that median (at least 95%
where the pairs allow, its confidence printed), and the pairs the change
won. The recorded rows of both trees must be equal.
`--out` writes the same numbers, every run included, as JSON in the shape
of the BENCH_<n>.json files, whose `change` and `claim` the author adds.
The exit code is 1 when some operation failed its gate or a pair's output
digests or recorded rows differ, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
SKIPPED = shutil.ignore_patterns(
    ".git", "__pycache__", ".perfbench", ".hypothesis", ".pytest_cache", ".benchmarks"
)
GAIN_WINS = 0.9  # the share of pairs a gain must win
# a replay pass repeats its layer's inputs up to at least this many calls,
# and each layer keeps the best of this many passes
REPLAY_CALLS = 20_000
REPLAY_PASSES = 21


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One `perfbench/run.py` run in `tree`: its metric values, op counts
    and output digest."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    # without PYTHONPATH, each tree imports its own src
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    marker = f"{workload} output digest "
    digest = next(line[len(marker):] for line in lines if line.startswith(marker))
    return {
        "values": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digest,
    }


def summary(runs: list[float]) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(entry: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's medians, quartiles, wins and verdict."""
    lower = entry["better"] == "lower"
    p, c = summary(parent), summary(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    relative = (c["median"] - p["median"]) / p["median"]
    worse = relative if lower else -relative
    gap_exceeds_iqr = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    # a single run shows no spread, so it cannot resolve a shift either
    spread = (max(p["q3"] - p["q1"], c["q3"] - c["q1"]) / abs(p["median"])
              if len(parent) > 1 else math.inf)
    every_run_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if worse > entry["bound"]:
        verdict = "regression"
    elif worse < 0 and gap_exceeds_iqr and wins >= math.ceil(GAIN_WINS * len(parent)):
        verdict = "gain"
    elif spread > entry["bound"] and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": entry["unit"],
        "better": entry["better"],
        "bound": entry["bound"],
        "parent": p,
        "change": c,
        "change_wins": wins,
        "relative_change_of_median": round(relative, 6),
        "within_bound": worse <= entry["bound"],
        "median_gap_exceeds_parent_iqr": gap_exceeds_iqr,
        "verdict": verdict,
    }


def ab_workload(trees: dict, workload: str, seeds: range, seconds: float,
                metrics: list[dict]) -> dict:
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
        print(f"{workload} pair {i + 1} of {len(seeds)} (seed {seed}) done", file=sys.stderr)
    return {
        "pairs": len(seeds),
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "digests_equal_in_every_pair": all(
            a["digest"] == b["digest"] for a, b in zip(runs["parent"], runs["change"])
        ),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": {
            entry["name"]: compare(
                entry, *([r["values"][entry["name"]] for r in runs[side]] for side in SIDES)
            )
            for entry in metrics
        },
    }


def layers(trees: dict, workload: str, seed: int, seconds: float,
           metrics: list[dict]) -> dict:
    """One traced run per tree at `seed`: each per-layer metric and digest."""
    runs = {side: run_once(trees[side], workload, seed, seconds, trace=1) for side in SIDES}
    digests = {side: runs[side]["digest"] for side in SIDES}
    return {
        "seed": seed,
        "digests": digests,
        "digests_equal": digests["parent"] == digests["change"],
        "failed": {side: runs[side]["failed"] for side in SIDES},
        "metrics": {
            entry["name"]: {
                "unit": entry["unit"],
                "better": entry["better"],
                **{side: runs[side]["values"].get(entry["name"]) for side in SIDES},
            }
            for entry in metrics
        },
    }


def replay_documents(tree: Path) -> dict:
    """One document per solution path, without outputs: `tree`'s two_kernel
    and exact_wave scenarios, and exact_wave's grid as an exact-const wave."""
    documents = {}
    for path, name in (("transform", "two_kernel"), ("exact", "exact_wave")):
        raw = json.loads((tree / "scenarios" / f"{name}.json").read_text())
        documents[path] = {key: value for key, value in raw.items() if key != "outputs"}
    documents["exact-const"] = {
        **{key: value for key, value in documents["exact"].items() if key != "seed"},
        "solution_path": "exact-const",
        "params": {"a": 1.1, "c": 0.7, "d": 0.3},
    }
    return documents


def replay_layers(documents: dict) -> None:
    """Run in a tree's own process, with its `dlw` importable: record the
    inputs of every layer over `documents`, and print each layer's calls
    per pass and the sha256 of the recorded rows as one JSON line. Then,
    for each line read from standard input, time one pass of each layer in
    turn, with `gc` off, and print each layer's ns per call as one JSON
    line."""
    from dlw import scenario
    from dlw.residual import ResidualFold, fd_residual_dlw
    from dlw.seedlab.exprlang import eval_dual
    from dlw.seedlab.seeds import SeedField

    inputs = {}  # layer -> (callable, argument tuples)
    folded, rows = [], []
    for path, raw in documents.items():
        sc = scenario.scenario_from_dict(raw)
        sampler, phi_value = scenario.build_sampler(sc)
        samples, walked = [], []

        def recorded(x, y, t):
            samples.append((x, y, t))
            return sampler(x, y, t)

        scenario.evaluate_grid(sc.grid, sc.stencil, fd_residual_dlw, recorded, phi_value,
                               walked.append)
        rows += walked
        # the walk folds every point but a skipped one, whose row carries nan in u
        kept = [((x, y, t), r1, r2) for x, y, t, _, u, _, r1, r2 in walked if u == u]
        folded += kept
        inputs[f"{path}.sampler"] = sampler, samples
        inputs[f"{path}.phi"] = phi_value, [(x, y, t) for x, y, t, *_ in walked]
        if path == "transform":
            field = SeedField(sc.seed)
            inputs["seeds.partials"] = field.partials, samples
            exprs = [expr for kernel in sc.seed.kernels for expr in (kernel.a, kernel.b)]
            exprs += sc.seed.poly or ()
            ys = {repr(y): y for _, y, _ in samples}.values()  # signed zeros apart
            inputs["exprlang.eval_dual"] = eval_dual, [(e, y) for e in exprs for y in ys]
            inputs["residual.fd_residual_dlw"] = fd_residual_dlw, [
                (sampler, point, sc.stencil) for point, _, _ in kept
            ]
    inputs["residual.ResidualFold.add"] = ResidualFold().add, folded
    inputs["scenario.csv_row"] = scenario._CSV_ROW.__mod__, [(row,) for row in rows]

    for fn, args in inputs.values():
        for call in args:  # fill every table the layer reads before timing
            fn(*call)
    inputs = {name: (fn, args * -(-REPLAY_CALLS // len(args)))
              for name, (fn, args) in inputs.items()}
    print(json.dumps({
        "calls": {name: len(args) for name, (_, args) in inputs.items()},
        "rows_digest": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }), flush=True)
    for _ in sys.stdin:
        times = {}
        gc.disable()
        try:
            for name, (fn, args) in inputs.items():
                start = time.perf_counter_ns()
                for call in args:
                    fn(*call)
                times[name] = (time.perf_counter_ns() - start) / len(args)
        finally:
            gc.enable()
        print(json.dumps(times), flush=True)


def turn(pair: int, step: int) -> tuple[str, str]:
    """The sides in the order they take pass `step` of pair `pair`: the side
    that goes first alternates from pass to pass and from pair to pair."""
    return SIDES if (pair + step) % 2 == 0 else SIDES[::-1]


def replay_pair(trees: dict, documents: dict, pair: int, passes: int) -> dict:
    """One pair of `replay_layers` processes, one per tree, each importing its
    own dlw, run at once in lockstep: both record, then each pass runs on one
    side and then on the other, in `turn` order, so that a slow spell of the
    machine that lasts a whole process slows both sides. Returns each side's
    calls per pass and best ns per call of each layer, and its rows digest."""
    code = ("import json, runpy, sys; "
            "runpy.run_path(sys.argv[1])['replay_layers'](json.loads(sys.stdin.readline()))")
    procs = {}

    def reply(side: str) -> dict:
        line = procs[side].stdout.readline()
        if not line:
            raise SystemExit(f"error: the replay in {trees[side]} ended early")
        return json.loads(line)

    def send(side: str, line: str) -> None:
        procs[side].stdin.write(line + "\n")
        procs[side].stdin.flush()

    try:
        for side in SIDES:
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            procs[side] = subprocess.Popen(
                [sys.executable, "-c", code, str(Path(__file__).resolve())],
                cwd=trees[side], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )
            send(side, json.dumps(documents))
        recorded = {side: reply(side) for side in SIDES}
        best = {side: dict.fromkeys(recorded[side]["calls"], math.inf) for side in SIDES}
        for step in range(passes):
            for side in turn(pair, step):
                send(side, "pass")
                for name, ns in reply(side).items():
                    best[side][name] = min(best[side][name], ns)
    finally:
        for proc in procs.values():
            proc.stdin.close()  # the end of its passes
            proc.stdout.close()
            proc.wait()
    for side, proc in procs.items():
        if proc.returncode != 0:
            raise SystemExit(f"error: the replay in {trees[side]} exited {proc.returncode}")
    return {
        side: {
            "layers": {name: {"calls": calls, "ns_per_call": best[side][name]}
                       for name, calls in recorded[side]["calls"].items()},
            "rows_digest": recorded[side]["rows_digest"],
        }
        for side in SIDES
    }


def median_interval(values: list[float]) -> tuple[float, float, float]:
    """The order-statistic interval of the median of `values` and its
    confidence: the narrowest pair of ranks k and n+1-k whose confidence,
    1 - 2 P(Binomial(n, 1/2) < k), is at least 95%, or the whole range
    where no pair reaches it."""
    values = sorted(values)
    n = len(values)

    def confidence(k):
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(k)) / 2**n

    k = 1
    while k < n - k and confidence(k + 1) >= 0.95:
        k += 1
    return values[k - 1], values[n - k], confidence(k)


def replay(trees: dict, pairs: int, passes: int) -> dict:
    documents = replay_documents(trees["parent"])
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        result = replay_pair(trees, documents, i, passes)
        for side in SIDES:
            runs[side].append(result[side])
        print(f"replay pair {i + 1} of {pairs} done", file=sys.stderr)
    layers = {}
    for name, first in runs["parent"][0]["layers"].items():
        parent, change = ([r["layers"][name]["ns_per_call"] for r in runs[side]]
                          for side in SIDES)
        ratios = [c / p for p, c in zip(parent, change)]
        low, high, confidence = median_interval(ratios)
        layers[name] = {
            "calls_per_pass": first["calls"],
            "parent": {"median": statistics.median(parent), "runs": parent},
            "change": {"median": statistics.median(change), "runs": change},
            "ratio": {"median": statistics.median(ratios), "low": low, "high": high,
                      "confidence": confidence},
            "change_wins": sum(c < p for p, c in zip(parent, change)),
        }
    return {
        "pairs": pairs,
        "passes": passes,
        "method": (
            "each tree's own dlw in a process of its own, the pair's two processes in "
            "lockstep: both record, then each pass runs on one side and then the other, "
            "parent first on even passes of even pairs and odd passes of odd pairs; each "
            "layer timed over inputs recorded from the documents, repeated to at least "
            f"{REPLAY_CALLS} calls a pass, with gc off, best of the passes, one pass of each "
            "layer in turn; ratio is "
            "change/parent in each pair, and low/high the order-statistic interval of its "
            "median at the stated confidence"
        ),
        "documents": documents,
        "rows_equal_in_every_pair": all(
            a["rows_digest"] == b["rows_digest"] for a, b in zip(runs["parent"], runs["change"])
        ),
        "layers": layers,
    }


def report_replay(result: dict) -> None:
    confidence = next(iter(result["layers"].values()))["ratio"]["confidence"]
    print(f"replay: {result['pairs']} pairs, best of {result['passes']} passes, ns per call, "
          f"rows {'equal' if result['rows_equal_in_every_pair'] else 'DIFFER'}, "
          f"interval at {confidence:.1%}")
    for name, m in result["layers"].items():
        r = m["ratio"]
        print(f"  {name:<26} parent {m['parent']['median']:.6g}  change "
              f"{m['change']['median']:.6g}  {r['median'] - 1:+.2%} "
              f"[{r['low'] - 1:+.2%}, {r['high'] - 1:+.2%}]  wins {m['change_wins']}/"
              f"{result['pairs']}")


def shown(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def report_layers(workload: str, result: dict) -> None:
    digests = result["digests"]
    print(f"{workload} layers, traced at seed {result['seed']}: digests parent "
          f"{digests['parent'][:8]} change {digests['change'][:8]}")
    for name, m in result["metrics"].items():
        p, c = m["parent"], m["change"]
        relative = f"  {(c - p) / p:+.2%}" if p and c is not None else ""
        print(f"  {name:<50} parent {shown(p)}  change {shown(c)}{relative}")


def report(workload: str, result: dict) -> None:
    print(f"{workload}: {result['pairs']} pairs, seeds {result['seeds']}, failed ops "
          f"{result['failed']['parent']} and {result['failed']['change']}, digests "
          f"{'equal' if result['digests_equal_in_every_pair'] else 'DIFFER'}")
    for name, m in result["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"  {name:<17} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"{m['relative_change_of_median']:+.2%}  wins {m['change_wins']}/"
              f"{result['pairs']}  {m['verdict']} (bound {m['bound']})")


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(line.split(":", 1)[1].strip() for line in cpuinfo
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()}-core {model}, Python {platform.python_version()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree that claims a change")
    parser.add_argument("--workloads", nargs="+", metavar="W",
                        help="workloads to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, required=True,
                        help="first seed; each workload takes the next PAIRS seeds")
    parser.add_argument("--layers", action="store_true",
                        help="also compare one traced pass per tree and workload")
    parser.add_argument("--replay", action="store_true",
                        help="also time each numeric layer by replay, in PAIRS pairs")
    parser.add_argument("--out", type=Path, help="write the results as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results = {}
    replayed = None
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {}
        for side in SIDES:
            trees[side] = Path(scratch) / side
            shutil.copytree(getattr(args, side).resolve(), trees[side], ignore=SKIPPED)
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=trees[side], check=True, stdout=subprocess.DEVNULL)
        for k, workload in enumerate(workloads):
            first = args.seed + k * args.pairs
            seeds = range(first, first + args.pairs)
            results[workload] = ab_workload(trees, workload, seeds, seconds,
                                            spec["end_to_end"])
            report(workload, results[workload])
            if args.layers:
                traced = layers(trees, workload, first, seconds, spec["per_layer"])
                results[workload]["layers"] = traced
                report_layers(workload, traced)
        if args.replay:
            replayed = replay(trees, args.pairs, REPLAY_PASSES)
            report_replay(replayed)

    if args.out:
        bench = {
            "machine": machine(),
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "method": (
                f"tools/ab.py: {args.pairs} alternating pairs per workload, one seed per "
                "pair on both sides, parent first on even pairs; each tree runs its own "
                "perfbench/run.py from a copy at a path of equal length, without caches, "
                "compiled once before the first run; quartiles are "
                "statistics.quantiles(method='inclusive'); median_gap_exceeds_parent_iqr "
                "compares the gap between medians with the parent's q3 - q1; a gain wins "
                f"at least {GAIN_WINS:.0%} of pairs and clears the parent's quartile range"
            ),
            "workloads": results,
        }
        if replayed is not None:
            bench["replay"] = replayed
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    checks = [(r["digests_equal_in_every_pair"], r["failed"]) for r in results.values()]
    checks += [(r["layers"]["digests_equal"], r["layers"]["failed"])
               for r in results.values() if "layers" in r]
    if replayed is not None:
        checks.append((replayed["rows_equal_in_every_pair"], {}))
    clean = all(equal and not any(failed.values()) for equal, failed in checks)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
