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
`--out` writes the same numbers, every run included, as JSON in the shape
of the BENCH_<n>.json files, whose `change` and `claim` the author adds.
The exit code is 1 when some operation failed its gate or a pair's output
digests differ, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SKIPPED = shutil.ignore_patterns(
    ".git", "__pycache__", ".perfbench", ".hypothesis", ".pytest_cache", ".benchmarks"
)
GAIN_WINS = 0.9  # the share of pairs a gain must win


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
    parser.add_argument("--out", type=Path, help="write the results as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results = {}
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

    if args.out:
        args.out.write_text(json.dumps({
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
        }, indent=1) + "\n")
    checks = [(r["digests_equal_in_every_pair"], r["failed"]) for r in results.values()]
    checks += [(r["layers"]["digests_equal"], r["layers"]["failed"])
               for r in results.values() if "layers" in r]
    clean = all(equal and not any(failed.values()) for equal, failed in checks)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
