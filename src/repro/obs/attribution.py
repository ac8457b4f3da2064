"""Span-tree -> per-name wall-clock attribution.

The run manifest embeds the tracer's span forest
(:meth:`~repro.obs.tracer.Span.as_dict`): recursive dicts with a
``name`` (``timed_stage`` uses ``module.qualname``, manual spans use
dotted stage names like ``render.rasterize``), a monotonic
``duration`` and nested ``children``.  This module folds that forest
into a flat per-name cost table so consumers -- the benchmark's layer
ledger -- can ask "what share of the run did this code account for?"
without walking trees themselves.

Two costs per name, the classic profiler pair:

* ``total``  -- inclusive seconds: the span and everything beneath it.
* ``self_seconds`` -- exclusive seconds: the span minus its children
  (clamped at zero; clock skew between a parent and its children must
  not create negative time).

Spans sharing a name (a stage called once per frame) accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

__all__ = ["SpanCost", "attribute_spans", "iter_spans", "profile_total"]


@dataclass(frozen=True)
class SpanCost:
    """Accumulated wall-clock cost of every span sharing one name."""

    name: str
    total: float
    self_seconds: float
    count: int


def iter_spans(
    spans: Iterable[Mapping[str, Any]],
) -> Iterator[Mapping[str, Any]]:
    """Depth-first walk of a span forest (parents before children)."""
    stack: List[Mapping[str, Any]] = list(spans)[::-1]
    while stack:
        span = stack.pop()
        yield span
        children = span.get("children") or ()
        stack.extend(list(children)[::-1])


def attribute_spans(
    spans: Iterable[Mapping[str, Any]],
) -> Dict[str, SpanCost]:
    """Fold a span forest into ``{name: SpanCost}``."""
    totals: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for span in iter_spans(spans):
        name = str(span.get("name", ""))
        duration = float(span.get("duration") or 0.0)
        child_time = sum(
            float(child.get("duration") or 0.0)
            for child in (span.get("children") or ())
        )
        totals[name] = totals.get(name, 0.0) + duration
        selfs[name] = selfs.get(name, 0.0) + max(0.0, duration - child_time)
        counts[name] = counts.get(name, 0) + 1
    return {
        name: SpanCost(name=name, total=totals[name],
                       self_seconds=selfs[name], count=counts[name])
        for name in totals
    }


def profile_total(spans: Iterable[Mapping[str, Any]]) -> float:
    """Total attributable wall-clock: the sum of root span durations."""
    return sum(float(span.get("duration") or 0.0) for span in spans)
