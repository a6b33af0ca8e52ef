"""Per-module timers and counters installed from outside the program.

The tracer replaces public functions of the ``indexlab`` modules with
wrappers that time each call and count it, then rebinds every name under
which ``indexlab`` modules hold the original (``from .hermite import
quantize`` makes ``indexlab.flow.quantize`` such a name).  Methods and
classmethods are replaced on their class.  Nothing under ``src/`` changes.

Spans nest: a wrapper's self time is its duration minus the time of the
wrapped calls made inside it.  A target that a later version of the
program removes or renames is skipped, and its metrics are left out of
the result instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to wrap and the metrics its calls feed."""

    module: str
    attr: str  # "name" or "Class.name"
    key: str  # span name, e.g. "hermite.quantize"
    time_metric: str | None = None  # total seconds
    calls_metric: str | None = None
    self_metric: str | None = None  # seconds minus wrapped calls inside
    runner: bool = False  # a public runner: its outermost spans make solve_s
    hook: Callable | None = None  # hook(extra, bound_arguments, result)
    extra_metrics: tuple[str, ...] = ()  # counters the hook adds to


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_: dict[str, float] = {}
        self.extra: dict[str, int] = {}
        self.runner_total = 0.0
        self._stack: list[float] = []  # wrapped-child seconds per open span
        self._runners_open = 0
        self.installed: list[Target] = []

    def reset(self):
        for table in (self.calls, self.total, self.self_, self.extra):
            for k in table:
                table[k] = 0
        self.runner_total = 0.0

    def wrap(self, target: Target, fn: Callable) -> Callable:
        key = target.key
        self.calls[key] = 0
        self.total[key] = 0.0
        self.self_[key] = 0.0
        for name in target.extra_metrics:
            self.extra[name] = 0
        stack = self._stack
        signature = inspect.signature(fn) if target.hook else None
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.runner:
                self._runners_open += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[key] += 1
                self.total[key] += dt
                self.self_[key] += dt - inner
                if target.runner:
                    self._runners_open -= 1
                    if self._runners_open == 0:
                        self.runner_total += dt
            if signature is not None:
                target.hook(self.extra, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self, targets, package: str):
        """Wrap every target that exists; skip the rest."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                continue
            *owner_path, name = target.attr.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            if owner is module:
                original = getattr(module, name, None)
                if not callable(original):
                    continue
                traced = self.wrap(target, original)
                _rebind(package, original, traced)
            else:
                raw = inspect.getattr_static(owner, name, None)
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, name, type(raw)(self.wrap(target, raw.__func__)))
                elif callable(raw):
                    setattr(owner, name, self.wrap(target, raw))
                else:
                    continue
            self.installed.append(target)

    def metrics(self) -> dict[str, float]:
        """Metric name -> value for every installed target."""
        out: dict[str, float] = {}
        runner_self = None
        for t in self.installed:
            if t.time_metric:
                out[t.time_metric] = self.total[t.key]
            if t.calls_metric:
                out[t.calls_metric] = self.calls[t.key]
            if t.self_metric:
                out[t.self_metric] = self.self_[t.key]
            if t.runner:
                runner_self = (runner_self or 0.0) + self.self_[t.key]
        if runner_self is not None:
            out["cli.self_s"] = runner_self
        out.update(self.extra)
        return out

    def counts(self) -> dict[str, int]:
        return {**self.calls, **self.extra}


def _rebind(package: str, original, traced):
    """Replace ``original`` under every name a module of ``package`` holds it."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, traced)


# ---------------------------------------------------------------------------
# the indexlab targets
# ---------------------------------------------------------------------------

def _count_points(extra, args, result):
    points = args.get("points")
    if points is not None:
        extra["hermite.evaluated_points"] += len(points)


def _count_samples(extra, args, result):
    samples = getattr(result, "samples", None)
    if samples is None:
        return
    extra["flow.samples"] += len(samples)
    steps = args.get("steps")
    if steps is not None:
        extra["flow.refine_samples"] += len(samples) - (int(steps) + 1)


INDEXLAB_TARGETS = (
    Target("indexlab.cli", "run_flow", "cli.run_flow", runner=True),
    Target("indexlab.cli", "run_chern", "cli.run_chern", runner=True),
    Target("indexlab.cli", "run_verify", "cli.run_verify", runner=True),
    Target("indexlab.hermite", "quantize", "hermite.quantize",
           "hermite.quantize_s", "hermite.quantize_calls"),
    Target("indexlab.hermite", "AffineMatrixSymbol.evaluate_many", "hermite.evaluate_many",
           "hermite.evaluate_many_s", "hermite.evaluate_many_calls",
           hook=_count_points, extra_metrics=("hermite.evaluated_points",)),
    Target("indexlab.hermite", "sampled_gap_certificate", "hermite.gap_certificate",
           "hermite.gap_certificate_s"),
    Target("indexlab.flow", "sweep", "flow.sweep",
           "flow.sweep_s", self_metric="flow.sweep_self_s",
           hook=_count_samples, extra_metrics=("flow.samples", "flow.refine_samples")),
    Target("indexlab.flow", "spectral_index", "flow.spectral_index", "flow.spectral_index_s"),
    Target("indexlab.topology", "SphereGrid.build", "topology.grid_build",
           "topology.grid_build_s", "topology.grid_builds"),
    Target("indexlab.topology", "BandProjectorField.build", "topology.field_build",
           "topology.field_build_s", "topology.field_builds"),
    Target("indexlab.topology", "chern_curvature", "topology.curvature", "topology.curvature_s"),
    Target("indexlab.topology", "chern_clutching", "topology.clutching", "topology.clutching_s"),
    Target("indexlab.topology", "chern_section_zeros", "topology.zeros", "topology.zeros_s"),
    Target("indexlab.topology", "point_eigensystem", "topology.point_eigensystem",
           "topology.point_eigensystem_s", "topology.point_eigensystem_calls"),
)
