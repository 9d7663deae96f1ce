"""Span tracer that wraps the public functions of each `dlw` layer.

The benchmark patches from outside: nothing under `src/` knows it is being
traced. A target is replaced at every module that binds it (for example
`eval_dual` in `dlw.seedlab.exprlang`, `dlw.seedlab`, `dlw.seedlab.seeds`,
`dlw.transform` and `dlw`), because each module calls through its own global
name. `installed()` restores every original on exit. A target that no longer
exists is reported in `missing`, so its metrics read "missing", not 0.

Self time is a span's duration minus the time its direct child spans took,
kept with a stack of open spans. The tracer's own bookkeeping at the end of a
span (statistics, counters, the hooks below) runs after the span's clock has
stopped and is charged to the parent as child time, so it lands in no
layer's self time. A span also counts its calls per parent span: the
samples a stencil draws are the sampler spans directly under
`fd_residual_dlw`, counted without wrapping the sampler.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, defining module, attribute; "Class.method" for methods)
TARGETS = (
    ("exprlang.parse_coeff_expr", "dlw.seedlab.exprlang", "parse_coeff_expr"),
    ("exprlang.eval_dual", "dlw.seedlab.exprlang", "eval_dual"),
    ("scenario.load", "dlw.scenario", "load_config"),
    ("scenario.scenario_from_dict", "dlw.scenario", "scenario_from_dict"),
    ("scenario.build_sampler", "dlw.scenario", "build_sampler"),
    ("scenario.evaluate_scenario", "dlw.scenario", "evaluate_scenario"),
    ("scenario.export_csv", "dlw.scenario", "export_csv"),
    ("scenario.export_report", "dlw.scenario", "export_report"),
    ("seeds.partials", "dlw.seedlab.seeds", "SeedField.partials"),
    ("transform.transform_point", "dlw.transform", "transform_point"),
    ("transform.exact_uh", "dlw.transform", "exact_uh"),
    ("transform.exact_uh_const", "dlw.transform", "exact_uh_const"),
    ("residual.fd_residual_dlw", "dlw.residual", "fd_residual_dlw"),
    ("residual.fd_residual_1d", "dlw.residual", "fd_residual_1d"),
    ("residual.aggregate_residuals", "dlw.residual", "aggregate_residuals"),
    ("balance.derive", "dlw.balance", "derive"),
    ("balance.solve_balance_exponents", "dlw.balance", "solve_balance_exponents"),
    ("balance.build_residuals", "dlw.balance", "build_residuals"),
    ("jetcalc.total_derivative", "dlw.jetcalc", "total_derivative"),
    ("jetcalc.specialize_log", "dlw.jetcalc", "specialize_log"),
    ("jetcalc.reduce_heat", "dlw.jetcalc", "reduce_heat"),
)
# Targets patched for a counter only, with no span: their time stays in the
# caller's self time.
UNTIMED = frozenset({"scenario.build_sampler"})
# What a scenario's sampler calls once per (u, h) sample, on each path.
SAMPLERS = ("transform.transform_point", "transform.exact_uh", "transform.exact_uh_const")


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0  # summed span durations
    self_time: float = 0.0  # summed durations minus direct child spans
    errors: Counter = field(default_factory=Counter)  # raised exception type names


class Tracer:
    """Span statistics plus the counters the hooks below record."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.children: Counter = Counter()  # (parent span, span) -> calls
        self.root_time = 0.0  # time inside spans that have no parent span
        self.missing: list[str] = []
        self._open: list[list] = []  # [name, child time] of each open span
        self._distinct: set = set()

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._open
        frame = [name, 0.0]
        stack.append(frame)
        error = None
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            duration = self.clock() - start
            stack.pop()
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.calls += 1
            stat.total += duration
            stat.self_time += duration - frame[1]
            after = AFTER.get(name)
            if error is not None:
                stat.errors[error] += 1
            elif after is not None:
                after(self, args)
            if stack:
                parent = stack[-1]
                self.children[parent[0], name] += 1
                parent[1] += self.clock() - start
            else:
                self.root_time += self.clock() - start

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def end_op(self) -> None:
        """Close the per-operation window of distinct eval_dual arguments."""
        self.counts["exprlang.eval_dual.distinct"] += len(self._distinct)
        self._distinct.clear()

    @contextmanager
    def installed(self):
        patches: list[tuple[object, str, object]] = []
        try:
            _install(self, patches)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


# Hooks run when a span returns, outside its timing, with the call's arguments.
# Expressions live for the whole operation, so id() names one within it.
AFTER = {
    "exprlang.eval_dual": lambda tracer, args: tracer._distinct.add((id(args[0]), args[1])),
    "scenario.evaluate_scenario": lambda tracer, args: tracer.counts.update(
        {"scenario.evaluate_scenario.points": args[0].grid.size}
    ),
    "scenario.export_csv": lambda tracer, args: tracer.counts.update(
        {"scenario.export.bytes": os.path.getsize(args[-1])}
    ),
}
AFTER["scenario.export_report"] = AFTER["scenario.export_csv"]


def _count_phi_values(tracer: Tracer, fn):
    """build_sampler, with its phi column counted: one value per call."""
    counts = tracer.counts

    def build_sampler(*args, **kwargs):
        sampler, phi_value = fn(*args, **kwargs)

        def counted_phi(*point):
            counts["scenario.phi_values"] += 1
            return phi_value(*point)

        return sampler, counted_phi

    return build_sampler


def _make_wrapper(tracer: Tracer, name: str, original):
    if name in UNTIMED:
        return _count_phi_values(tracer, original)
    span = tracer.span

    def traced(*args, **kwargs):
        return span(name, original, *args, **kwargs)

    return traced


def _install(tracer: Tracer, patches: list) -> None:
    """Patch every binding of every target, recording (owner, attr, original)."""
    tracer.missing = []
    resolved = []
    for name, module_name, attr_path in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *class_path, attr = attr_path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            resolved.append((name, owner if class_path else None, attr, vars(owner)[attr]))
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(name)
    modules = [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "dlw" or key.startswith("dlw."))
    ]
    for name, cls, attr, original in resolved:
        wrapper = _make_wrapper(tracer, name, original)
        if cls is not None:
            patches.append((cls, attr, original))
            setattr(cls, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
