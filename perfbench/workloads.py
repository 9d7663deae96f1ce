"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed cycle of operations; each operation is one `dlw` CLI
invocation. The seed changes only the numbers inside the generated scenario
documents (coefficients, amplitudes, branches, pole positions), never the
shape of the cycle, so the cost of a cycle is steady across seeds while the
inputs still differ. The verdict each operation must produce is fixed here,
before it runs:

- smooth positive seeds PASS at a threshold computed from the largest
  coefficient |a| the document can reach (truncation error grows like a^5);
- `debug.perturb_h` negative controls FAIL;
- heat-polynomial seeds with a root on a grid point PASS with a known,
  nonzero number of pole-skipped points.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

STEP = 5e-3
# Residual thresholds are K * amax^5. The largest max_residual / threshold
# was 0.09 over kernel_field seeds 0-39, and 0.14 (exact-const) and 0.07
# (reduce) over closed_form seeds 0-59, so a genuine document PASSes with a
# wide margin.
K_KERNEL = 6e-5
K_CONST = 3e-5
K_REDUCE = 2e-5
PERTURB_H = 1e-3  # adds 2e-3 to h_xx: far above every threshold used here

# The grid of the kernel documents shipped in scenarios/ (2,205 points), so
# the per-op fixed costs (parsing, CLI, export open) and the reuse of each
# coefficient value across the points of one y keep the shares they have there.
KERNEL_GRID = {"x": [-3.0, 3.0, 21], "y": [-3.0, 3.0, 21], "t": [0.0, 1.0, 5]}
# Spacing 0.25: no grid point sits sqrt(2*STEP) from a root, where a t-stencil
# sample would land on the zero set.
POLE_GRID_X = [-1.5, 1.5, 13]
POLE_GRID_Y = [-2.0, 2.0, 5]
CONST_GRID = {"x": [-3.0, 3.0, 11], "y": [-3.0, 3.0, 11], "t": [0.0, 1.0, 3]}
REDUCE_NZ, REDUCE_NT = 41, 5  # the CLI defaults
Y_REACH = 3.0 + STEP  # |y| of the outermost stencil sample on kernel grids


@dataclass(frozen=True)
class Op:
    """One CLI invocation with its expected outcome.

    `points` and `skipped` hold one entry per summary the command prints (one
    for `run`, one per entry for `sweep`, one for `reduce`, none for
    `derive`); `skipped` is the exact pole-skip count the gate requires.
    """

    name: str
    argv: tuple[str, ...]
    expect: str  # "PASS" or "FAIL"
    path: str  # solution path, or "reduce" / "derive"
    points: tuple[int, ...] = ()
    skipped: tuple[int, ...] = ()
    outputs: tuple[str, ...] = ()
    document: str | None = None  # written to <name>.json before the first run

    @property
    def genuine(self) -> bool:
        return self.expect == "PASS"


def _num(value: float) -> str:
    return repr(round(value, 3))


def _signed(coeff: float, term: str) -> str:
    sign = "-" if coeff < 0 else "+"
    return f" {sign} {_num(abs(coeff))}*{term}"


def _a_expr(slot: int, rng: random.Random) -> tuple[str, float]:
    """Coefficient a(y), within [0.3, 1.4], and the largest |a| it reaches."""
    base = rng.uniform(0.6, 1.1)
    amp = rng.uniform(-0.3, 0.3)
    kind = slot % 5
    if kind == 3:
        rate = round(rng.uniform(-0.08, 0.08), 3)
        base = round(base, 3)
        return f"{_num(base)}*exp({_num(rate)}*y)", base * math.exp(abs(rate) * Y_REACH)
    func = ("tanh(y)", "sech(y)", "sin(y)", None, "cos(y)")[kind]
    return _num(base) + _signed(amp, func), round(base, 3) + round(abs(amp), 3)


def _b_expr(slot: int, rng: random.Random) -> str:
    lin = rng.uniform(-1.0, 1.0)
    wave = rng.uniform(0.1, 0.8)
    return (
        f"{_num(lin)}*y",
        f"{_num(lin)}*y" + _signed(wave, "sin(y)"),
        f"{_num(wave)}*cos(y)",
        f"{_num(lin)}*tanh(y)",
        f"{_num(lin)}*y" + _signed(-wave, "sech(y)"),
    )[slot % 5]


def _doc(raw: dict) -> str:
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def _grid_size(grid: dict) -> int:
    return grid["x"][2] * grid["y"][2] * grid["t"][2]


def _run(name: str, raw: dict, expect: str, path: str, skipped: int = 0) -> Op:
    """A `run` op whose document exports its CSV and report next to it."""
    outputs = (f"{name}.csv", f"{name}_report.json")
    raw = dict(
        raw,
        outputs=[{"format": "csv", "path": outputs[0]},
                 {"format": "report", "path": outputs[1]}],
    )
    return Op(
        name=name,
        argv=("run", f"{name}.json"),
        expect=expect,
        path=path,
        points=(_grid_size(raw["grid"]),),
        skipped=(skipped,),
        outputs=outputs,
        document=_doc(raw),
    )


def _kernel_seed(rng: random.Random, count: int, slot0: int) -> tuple[dict, float]:
    kernels = []
    amax = 0.0
    for slot in range(slot0, slot0 + count):
        a, reach = _a_expr(slot, rng)
        amp = 1.0 if count == 1 else round(rng.uniform(0.5, 2.0), 3)
        kernels.append({"amplitude": amp, "a": a, "b": _b_expr(slot, rng)})
        amax = max(amax, reach)
    return {"kind": "kernels", "constant": 1.0, "kernels": kernels}, amax


def _kernel_doc(rng: random.Random, count: int, slot0: int) -> dict:
    seed, amax = _kernel_seed(rng, count, slot0)
    return {
        "branch": rng.choice(("plus", "minus")),
        "solution_path": "transform",
        "seed": seed,
        "grid": KERNEL_GRID,
        "stencil": {"step": STEP},
        "thresholds": {"max_residual": float(f"{K_KERNEL * amax**5:.3g}")},
    }


def _pole_doc(rng: random.Random, slot: int) -> tuple[dict, int]:
    """phi = c2(y)*((x - x0)^2 - sign*2t) with x0 on the grid.

    phi vanishes only at t = 0, x = x0 (t runs over [-1, 0] on the plus
    branch and [0, 1] on the minus branch), so exactly one point per y is
    skipped. The transform of this seed is y-independent, with h = -1, so
    the residuals are roundoff and the document PASSes.
    """
    branch = ("plus", "minus")[slot % 2]
    lo, hi, nx = POLE_GRID_X
    x0 = lo + (hi - lo) * rng.randrange(2, nx - 2) / (nx - 1)
    c2 = _a_expr(slot, rng)[0]
    t_span = [-1.0, 0.0, 3] if branch == "plus" else [0.0, 1.0, 3]
    raw = {
        "branch": branch,
        "solution_path": "transform",
        "seed": {
            "kind": "poly",
            "poly": {
                "c2": c2,
                "c1": f"{-2.0 * x0 + 0.0!r}*({c2})",
                "c0": f"{x0 * x0!r}*({c2})",
            },
        },
        "grid": {"x": POLE_GRID_X, "y": POLE_GRID_Y, "t": t_span},
        "stencil": {"step": STEP},
        "thresholds": {"max_residual": 1e-5},
    }
    return raw, POLE_GRID_Y[2]


def kernel_field(seed: int) -> list[Op]:
    """Transform-path exponential-kernel seeds, an exact-path twin, poles.

    Kernel slots 0-4 cover tanh, sech, sin, exp and cos coefficients.
    """
    rng = random.Random(f"kernel_field:{seed}")
    raw = _kernel_doc(rng, 1, 0)
    ops = [
        _run("k1", raw, "PASS", "transform"),
        _run("k1_exact", dict(raw, solution_path="exact"), "PASS", "exact"),
        # k1 with h corrupted: a control that costs what k1 costs, so the
        # median op time is taken over two ops of each cycle
        _run("k1_neg", dict(raw, debug={"perturb_h": PERTURB_H}), "FAIL", "transform"),
        _run("k2", _kernel_doc(rng, 2, 1), "PASS", "transform"),
        _run("k3", _kernel_doc(rng, 3, 3), "PASS", "transform"),
    ]
    # With k1_exact and the pole document below the k1 pair and k2, k3 above
    # it, the median op time sits in the middle of the k1 pair's times.
    raw, skipped = _pole_doc(rng, rng.randrange(2))
    ops.append(_run("pole", raw, "PASS", "transform", skipped))
    return ops


def _const_params(rng: random.Random) -> tuple[dict, float]:
    a = round(rng.uniform(0.5, 1.3), 3)
    c = round(rng.uniform(-1.3, 1.3), 3)
    d = round(rng.uniform(-1.0, 1.0), 3)
    return {"a": a, "c": c, "d": d}, max(a, abs(c))


def _const_doc(rng: random.Random) -> dict:
    params, amax = _const_params(rng)
    return {
        "branch": rng.choice(("plus", "minus")),
        "solution_path": "exact-const",
        "params": params,
        "grid": CONST_GRID,
        "stencil": {"step": STEP},
        "thresholds": {"max_residual": float(f"{K_CONST * amax**5:.3g}")},
        "outputs": [],
    }


def closed_form(seed: int) -> list[Op]:
    """Many small exact-const `run`/`sweep` ops and `reduce` ops, no CSV."""
    rng = random.Random(f"closed_form:{seed}")
    size = _grid_size(CONST_GRID)
    ops = []

    def add(name, raw, expect, argv0="run", points=(size,)):
        ops.append(
            Op(
                name=name,
                argv=(argv0, f"{name}.json"),
                expect=expect,
                path="exact-const",
                points=points,
                skipped=(0,) * len(points),
                document=_doc(raw),
            )
        )

    for i in range(4):
        add(f"const_{i}", _const_doc(rng), "PASS")
    for i in range(2):
        base = _const_doc(rng)
        entries = []
        amax = 0.0
        for _ in range(3):
            params, reach = _const_params(rng)
            entries.append({"branch": rng.choice(("plus", "minus")), "params": params})
            amax = max(amax, reach)
        base["params"] = entries[0]["params"]
        base["thresholds"] = {"max_residual": float(f"{K_CONST * amax**5:.3g}")}
        base["sweep"] = entries
        add(f"sweep_{i}", base, "PASS", argv0="sweep", points=(size,) * 3)
    for i in range(3):
        a = round(rng.uniform(0.5, 1.2), 3)
        ops.append(
            Op(
                name=f"reduce_{i}",
                argv=(
                    "reduce", repr(a), _num(rng.uniform(-1.0, 1.0)),
                    "--branch", rng.choice(("plus", "minus")),
                    "--threshold", f"{K_REDUCE * a**5:.3g}",
                ),
                expect="PASS",
                path="reduce",
                points=(REDUCE_NZ * REDUCE_NT,),
                skipped=(0,),
            )
        )
    raw = _const_doc(rng)
    raw["debug"] = {"perturb_h": PERTURB_H}
    add("const_neg", raw, "FAIL")
    return ops


def derive(seed: int) -> list[Op]:
    """The symbolic derivation; it takes no input, so the seed changes nothing."""
    del seed
    return [
        Op(
            name="derive",
            argv=("derive", "--output", "derive.json"),
            expect="PASS",
            path="derive",
            outputs=("derive.json",),
        )
    ]


GENERATORS = {"kernel_field": kernel_field, "closed_form": closed_form, "derive": derive}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Op]:
    return GENERATORS[workload](seed)
