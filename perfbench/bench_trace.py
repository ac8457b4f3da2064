"""Outside-in layer tracing: span wrappers around the layers' public functions.

The simulator is not instrumented for this benchmark.  Instead, each
layer's public entry point is replaced, for the duration of one timed
region, by a wrapper that records a span (name, start, end, parent span,
attributes) and then calls the original.  Every function is wrapped
where its caller looks it up: methods on their class, and module-level
functions in the module that imported them by name
(``repro.experiments.runner.simulate_frame``,
``repro.experiments.fig15.psnr``).

Spans stay in memory; :func:`layer_metrics` folds them into per-layer
self times and counts, and ``run.py`` writes them out when the run ends.
A layer's self time is its span's duration minus the time its child
spans cover.  A hook whose target no longer exists is reported as an
unmeasured layer rather than failing the run, so a refactor that renames
a layer shows up as a gap in coverage.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Describe = Callable[[tuple, dict, Any], Dict[str, Any]]
Label = Callable[[tuple, dict], str]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    """Argument ``name`` of a call, passed by position ``index`` or keyword."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _render_label(args: tuple, kwargs: dict) -> str:
    mode = _arg(args, kwargs, 3, "mode")
    return "render." + (mode.value if mode is not None else "exact")


def _render_describe(args: tuple, kwargs: dict, output: Any) -> Dict[str, Any]:
    return {
        "fragments": len(output.trace.requests),
        "threshold": _arg(args, kwargs, 4, "angle_threshold", 0.0),
        "reuses": output.parent_reuses,
        "recalculations": output.parent_recalculations,
    }


def _expand_describe(args: tuple, kwargs: dict, expanded: Any) -> Dict[str, Any]:
    children = sum(parent.num_children for parent in expanded.parents)
    return {"texels": expanded.num_conventional_texels + children}


def _simulate_describe(args: tuple, kwargs: dict, run: Any) -> Dict[str, Any]:
    return {"design": run.design.name}


@dataclass(frozen=True)
class Hook:
    """One wrapped function: its layer name and where callers find it."""

    layer: str
    module: str
    qualname: str
    label: Optional[Label] = None
    """Span name from the call's arguments (default: ``layer``)."""
    describe: Optional[Describe] = None
    """Span attributes from the call's arguments and result."""

    @property
    def target(self) -> str:
        return f"{self.module}.{self.qualname}"


HOOKS: Tuple[Hook, ...] = (
    Hook("workloads.build", "repro.workloads.games", "GameWorkload.build"),
    Hook(
        "render.trace_only", "repro.render.renderer", "Renderer.trace_only",
        describe=lambda args, kwargs, out: {"requests": len(out.trace.requests)},
    ),
    Hook(
        "render.render", "repro.render.renderer", "Renderer.render",
        label=_render_label, describe=_render_describe,
    ),
    Hook("render.rasterize", "repro.render.raster", "Rasterizer.rasterize_scene"),
    Hook(
        "core.expand", "repro.core.expansion", "RequestExpander.expand",
        describe=_expand_describe,
    ),
    Hook(
        "core.expand", "repro.core.expansion",
        "RequestExpander.expand_isotropic", describe=_expand_describe,
    ),
    Hook(
        "core.simulate_frame", "repro.experiments.runner", "simulate_frame",
        describe=_simulate_describe,
    ),
    Hook("gpu.replay", "repro.gpu.pipeline", "GpuPipeline.replay_texture_stream"),
    Hook("gpu.simulate_frame", "repro.gpu.pipeline", "GpuPipeline.simulate_frame"),
    Hook("energy.frame_energy", "repro.energy.model", "EnergyModel.frame_energy"),
    Hook("quality.psnr", "repro.experiments.fig15", "psnr"),
    Hook("experiments.run", "repro.experiments.runner", "ExperimentRunner.run"),
    Hook(
        "experiments.run_many", "repro.experiments.runner",
        "ExperimentRunner.run_many",
    ),
)

ORCHESTRATION = frozenset(
    {"experiments.run", "experiments.run_many", "core.simulate_frame"}
)
"""Spans whose self time is glue between layers; every other span's
self time counts as covered work in ``bench.coverage``."""

DESIGNS = ("BASELINE", "B_PIM", "S_TFIM", "A_TFIM")

_REFACTORED = (AttributeError, IndexError, KeyError, TypeError)
"""What reading a span's name or attributes raises once the wrapped
function's arguments or result change shape: the span keeps its layer
name and no attributes, and the call itself is unaffected."""


def _resolve(hook: Hook) -> Optional[Tuple[Any, str, Callable]]:
    """``(owner, attribute, original)`` for a hook, or ``None`` if gone."""
    try:
        owner: Any = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, attribute = hook.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # A class's own __dict__, so an inherited method is never shadowed
    # and restoring puts back exactly what was there.
    original = vars(owner).get(attribute)
    if not callable(original):
        return None
    return owner, attribute, original


class Tracer:
    """In-memory span recorder for the process that created it.

    A span is ``[name, start, end, parent_index, attributes]``.  Worker
    processes forked while the wrappers are installed inherit them; the
    wrappers call straight through there, since their spans could never
    reach this process.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._installed: List[Tuple[Any, str, Callable]] = []
        self.unmeasured = sorted(
            {hook.target for hook in HOOKS if _resolve(hook) is None}
        )

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        tracer = self
        label, describe = hook.label, hook.describe

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            name = hook.layer
            if label is not None:
                with contextlib.suppress(*_REFACTORED):
                    name = label(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if describe is not None:
                with contextlib.suppress(*_REFACTORED):
                    span[4] = describe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every resolvable hook; returns the index of the next span."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for hook in HOOKS:
            resolved = _resolve(hook)
            if resolved is None:
                continue
            owner, attribute, original = resolved
            setattr(owner, attribute, self._wrap(hook, original))
            self._installed.append(resolved)
        return len(self.spans)

    def uninstall(self) -> None:
        """Put every original function back, in reverse order."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


def layer_metrics(spans: List[list], first: int, wall_s: float) -> Dict[str, float]:
    """Per-layer self times and counts of the spans from index ``first`` on.

    ``wall_s`` is the timed wall time those spans fall in; it is the
    denominator of ``bench.coverage``, the share of it spent in the self
    time of layers other than :data:`ORCHESTRATION`.
    """
    from repro.core.angle import DEFAULT_THRESHOLD

    window = range(first, len(spans))
    child_s = {index: 0.0 for index in window}
    for index in window:
        parent = spans[index][3]
        if parent >= first:
            child_s[parent] += spans[index][2] - spans[index][1]
    metrics: Dict[str, float] = dict.fromkeys(SPAN_METRICS, 0.0)
    reuses = recalculations = 0
    covered = 0.0
    for index in window:
        name, start, end, parent, attrs = spans[index]
        attrs = attrs or {}
        self_s = end - start - child_s[index]
        if name in ORCHESTRATION:
            key = ("core.simulate_frame_self_s" if name == "core.simulate_frame"
                   else "experiments.runner_self_s")
            metrics[key] += self_s
            continue
        covered += self_s
        if name in _SELF_METRIC:
            metrics[_SELF_METRIC[name]] += self_s
        elif name == "gpu.replay":
            measured = parent >= 0 and spans[parent][0] == "gpu.simulate_frame"
            key = "gpu.measured_replay_s" if measured else "gpu.warmup_replay_s"
            metrics[key] += self_s
            design = _ancestor_attr(spans, parent, "core.simulate_frame", "design")
            if design is not None:
                metrics[f"gpu.replay_s.{design}"] += self_s
        elif name == "core.expand":
            metrics["core.expand_s"] += self_s
            metrics["core.expand_calls"] += 1
            metrics["core.texels"] += attrs.get("texels", 0)
        elif name == "render.trace_only":
            metrics["render.trace_only_s"] += self_s
            metrics["render.requests"] += attrs.get("requests", 0)
        else:  # render.<sampling mode>
            if name + "_s" in metrics:
                metrics[name + "_s"] += self_s
            metrics["render.fragments"] += attrs.get("fragments", 0)
            if name == "render.atfim" and attrs.get("threshold") == (
                DEFAULT_THRESHOLD.effective_radians
            ):
                reuses += attrs.get("reuses", 0)
                recalculations += attrs.get("recalculations", 0)
    metrics["render.parent_reuse_frac"] = (
        reuses / (reuses + recalculations) if reuses + recalculations else 0.0
    )
    metrics["bench.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return metrics


def _ancestor_attr(spans: List[list], index: int, name: str, attr: str) -> Any:
    """Attribute ``attr`` of the nearest enclosing span called ``name``."""
    while index >= 0:
        if spans[index][0] == name:
            return (spans[index][4] or {}).get(attr)
        index = spans[index][3]
    return None


_SELF_METRIC = {
    "workloads.build": "workloads.build_s",
    "render.rasterize": "render.rasterize_s",
    "gpu.simulate_frame": "gpu.simulate_frame_self_s",
    "energy.frame_energy": "energy.frame_energy_s",
    "quality.psnr": "quality.psnr_s",
}

SPAN_METRICS: Tuple[str, ...] = (
    "workloads.build_s",
    "render.trace_only_s",
    "render.requests",
    "render.rasterize_s",
    "render.exact_s",
    "render.atfim_s",
    "render.fragments",
    "render.parent_reuse_frac",
    "core.expand_s",
    "core.expand_calls",
    "core.texels",
    "core.simulate_frame_self_s",
    "gpu.warmup_replay_s",
    "gpu.measured_replay_s",
    *(f"gpu.replay_s.{design}" for design in DESIGNS),
    "gpu.simulate_frame_self_s",
    "energy.frame_energy_s",
    "quality.psnr_s",
    "experiments.runner_self_s",
    "bench.coverage",
)
"""Every metric :func:`layer_metrics` returns."""
