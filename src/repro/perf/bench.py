"""Timing benchmarks: batched sampler, rasterizer, and cached runner.

Each benchmark is written as machine-readable JSON at the repo root.
The scalar rasterizer and replay baselines are the reference
implementations in :mod:`repro.perf.oracles`:

``BENCH_sampling.json``
    Per workload: trace generation (SoA rasterizer vs the scalar oracle)
    and the exact, isotropic, reordered and A-TFIM shading paths
    (batched kernels vs the scalar reference; A-TFIM at every
    ``THRESHOLD_SWEEP`` threshold), with a bit-identity check on every
    color produced and, for A-TFIM, on the reuse/recalculation counts.
``BENCH_runner.json``
    A figure-suite slice (Fig. 10) through :class:`ExperimentRunner`
    cold (empty disk cache) and warm (second process over the same
    cache), with the measured cache hit rate.
``BENCH_tracing.json``
    The disabled-tracing cost of :mod:`repro.obs` instrumentation: a
    fixed numeric kernel timed bare vs wrapped in ``timed_stage`` with
    ``REPRO_TRACE`` off.  The wrapped path must stay within noise of
    the bare one (the zero-overhead-when-disabled contract).
``BENCH_frame.json``
    The whole-frame hot path per workload: trace generation (SoA
    rasterizer vs the scalar AoS oracle), request expansion (columnar
    vs the per-request scalar expander) and the texture replay
    (batched per-timestamp drain vs the scalar heap scheduler), timed
    cold (warm-up replay against empty caches) and warm (measured replay
    against warmed caches), with identity checks on the request stream,
    every expansion column, and the replay's makespan, latency
    histogram, per-cluster counts, and traffic.
``BENCH_sweep.json``
    A tiny sampled design-space sweep (:mod:`repro.experiments.sweep`)
    executed once per executor backend (serial, process-pool), each
    against its own empty disk cache, with a bit-identity check over
    every sweep point's result signature.  The identity check always
    gates: a divergent backend is a scheduler bug, never a performance
    trade-off.

All numbers are host wall-clock seconds -- the speed of the
reproduction itself, not of the modelled hardware.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

BENCH_SAMPLING_FILENAME = "BENCH_sampling.json"
BENCH_RUNNER_FILENAME = "BENCH_runner.json"
BENCH_TRACING_FILENAME = "BENCH_tracing.json"
BENCH_FRAME_FILENAME = "BENCH_frame.json"
BENCH_SWEEP_FILENAME = "BENCH_sweep.json"

SAMPLING_PATHS = ("exact", "isotropic", "reordered", "atfim")
"""The shading paths :func:`bench_sampling` times and checks."""


def _geomean(values: Sequence[float]) -> float:
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def _speedup(scalar_seconds: float, batch_seconds: float) -> float:
    if batch_seconds <= 0:
        return float("inf")
    return scalar_seconds / batch_seconds


def bench_sampling(
    workload_names: Optional[Sequence[str]] = None,
    include_raster: bool = True,
) -> Dict[str, Any]:
    """Time the scalar vs batched sampler on real frame traces.

    For every workload the full request trace is shaded twice per
    path -- once through the scalar reference functions, once through
    the :mod:`repro.texture.batch` kernels -- and the resulting colors
    are compared bit for bit.  The paths are ``exact``, ``isotropic``,
    ``reordered`` and ``atfim``; ``atfim`` runs once per
    :data:`~repro.core.angle.THRESHOLD_SWEEP` threshold, through the
    angle-tagged parent store of :mod:`repro.perf.oracles` on the
    scalar side, and also requires equal reuse and recalculation counts.
    """
    from repro.core.angle import THRESHOLD_SWEEP
    from repro.experiments.cache import source_version
    from repro.experiments.runner import FAST_WORKLOADS
    from repro.perf.oracles import (
        _AngleTaggedParentStore,
        _shade_atfim,
        trace_only_scalar,
    )
    from repro.texture.batch import BatchSampler, RequestBatch
    from repro.texture.sampling import (
        anisotropic_first_sample,
        anisotropic_sample,
        trilinear_sample,
    )
    from repro.workloads import workload_by_name

    names = list(workload_names or FAST_WORKLOADS)
    workload_results: List[Dict[str, Any]] = []
    for name in names:
        workload = workload_by_name(name)
        entry: Dict[str, Any] = {"name": name}

        if include_raster:
            built = workload.build()
            renderer = workload.make_renderer()
            started = time.perf_counter()
            scalar_output = trace_only_scalar(
                renderer, built.scene, built.camera
            )
            scalar_raster_seconds = time.perf_counter() - started
            renderer = workload.make_renderer()
            started = time.perf_counter()
            vector_output = renderer.trace_only(built.scene, built.camera)
            vector_raster_seconds = time.perf_counter() - started
            scene = built.scene
            trace = vector_output.trace
            entry["trace"] = {
                "scalar_seconds": scalar_raster_seconds,
                "batch_seconds": vector_raster_seconds,
                "speedup_vs_scalar": _speedup(
                    scalar_raster_seconds, vector_raster_seconds
                ),
                "identical_requests": scalar_output.trace.requests
                == vector_output.trace.requests,
            }
        else:
            scene, trace = workload.trace()

        requests = trace.requests
        entry["requests"] = len(requests)
        by_texture: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            by_texture.setdefault(request.texture_id, []).append(index)
        groups = [
            (
                scene.mipmap_chain(texture_id),
                indices,
                RequestBatch.from_requests([requests[i] for i in indices]),
                np.array(
                    [requests[i].camera_angle for i in indices],
                    dtype=np.float64,
                ),
            )
            for texture_id, indices in by_texture.items()
        ]

        for path, scalar_fn, batch_fn in (
            (
                "exact",
                lambda c, r: anisotropic_sample(c, r.footprint, r.u, r.v),
                BatchSampler.sample_exact,
            ),
            (
                "isotropic",
                lambda c, r: trilinear_sample(c, r.footprint.lod, r.u, r.v),
                BatchSampler.sample_isotropic,
            ),
            (
                "reordered",
                lambda c, r: anisotropic_first_sample(
                    c, r.footprint, r.u, r.v
                ),
                BatchSampler.sample_reordered,
            ),
        ):
            scalar_colors = np.zeros((len(requests), 4), dtype=np.float64)
            started = time.perf_counter()
            for chain, indices, _batch, _angles in groups:
                for i in indices:
                    scalar_colors[i] = scalar_fn(chain, requests[i])
            scalar_seconds = time.perf_counter() - started

            batch_colors = np.zeros((len(requests), 4), dtype=np.float64)
            started = time.perf_counter()
            for chain, indices, batch, _angles in groups:
                batch_colors[indices] = batch_fn(BatchSampler(chain), batch)
            batch_seconds = time.perf_counter() - started

            entry[path] = {
                "scalar_seconds": scalar_seconds,
                "batch_seconds": batch_seconds,
                "speedup_vs_scalar": _speedup(scalar_seconds, batch_seconds),
                "bit_identical": bool(
                    np.array_equal(scalar_colors, batch_colors)
                ),
            }

        thresholds: List[Dict[str, Any]] = []
        for threshold in THRESHOLD_SWEEP:
            radians = threshold.effective_radians
            scalar_colors = np.zeros((len(requests), 4), dtype=np.float64)
            store = _AngleTaggedParentStore(threshold=radians)
            started = time.perf_counter()
            for chain, indices, _batch, _angles in groups:
                for i in indices:
                    scalar_colors[i] = _shade_atfim(chain, requests[i], store)
            scalar_seconds = time.perf_counter() - started

            batch_colors = np.zeros((len(requests), 4), dtype=np.float64)
            reuses = recalculations = 0
            started = time.perf_counter()
            for chain, indices, batch, angles in groups:
                shade = BatchSampler(chain).sample_atfim(batch, angles, radians)
                batch_colors[indices] = shade.colors
                reuses += shade.reuses
                recalculations += shade.recalculations
            batch_seconds = time.perf_counter() - started

            thresholds.append({
                "threshold": threshold.label,
                "scalar_seconds": scalar_seconds,
                "batch_seconds": batch_seconds,
                "reuses": reuses,
                "recalculations": recalculations,
                "bit_identical": bool(
                    np.array_equal(scalar_colors, batch_colors)
                ),
                "identical_counts": (reuses, recalculations)
                == (store.reuses, store.recalculations),
            })
        scalar_total = sum(t["scalar_seconds"] for t in thresholds)
        batch_total = sum(t["batch_seconds"] for t in thresholds)
        entry["atfim"] = {
            "scalar_seconds": scalar_total,
            "batch_seconds": batch_total,
            "speedup_vs_scalar": _speedup(scalar_total, batch_total),
            "bit_identical": all(
                t["bit_identical"] and t["identical_counts"] for t in thresholds
            ),
            "thresholds": thresholds,
        }
        workload_results.append(entry)

    exact_speedups = [w["exact"]["speedup_vs_scalar"] for w in workload_results]
    return {
        "schema": "repro-bench-sampling/2",
        "source_version": source_version(),
        "workloads": workload_results,
        "summary": {
            "min_exact_speedup": min(exact_speedups),
            "geomean_exact_speedup": _geomean(exact_speedups),
            "bit_identical": all(
                w[path]["bit_identical"]
                for w in workload_results
                for path in SAMPLING_PATHS
            ),
        },
    }


def bench_frame(
    workload_names: Optional[Sequence[str]] = None,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Time the whole frame: trace + expand + replay, oracle vs batched.

    Per workload, the three phases of one design's frame are each timed
    both ways (best of ``repeats``):

    * *trace*: rasterization into texture requests, through the scalar
      AoS fragment loop vs the columnar :class:`FragmentBatch` path;
    * *expand*: request expansion (anisotropic), through the
      per-request :func:`~repro.perf.oracles.expand_scalar` vs the
      whole-trace :class:`~repro.core.expansion.RequestExpander`;
    * *replay*: the baseline design's texture replay, through the scalar
      heap scheduler vs the batched per-timestamp drain -- split into
      the cold warm-up replay (compulsory misses) and the warm measured
      replay (steady-state caches), matching ``simulate_frame``'s
      warm-up protocol.  Both schedulers replay the same columns.

    ``total`` sums all four timings, so the whole-frame speedup covers
    trace, expansion and both replays.  Every pairing is checked for
    end-result identity: equal request streams out of the rasterizer,
    equal expansion columns, and equal makespan / latency histogram /
    per-cluster counts / external traffic out of the replay.
    """
    from repro.core import Design
    from repro.core.designs import DesignConfig
    from repro.core.expansion import RequestExpander
    from repro.core.frontend import make_texture_path
    from repro.experiments.cache import source_version
    from repro.experiments.runner import FAST_WORKLOADS
    from repro.gpu.pipeline import GpuPipeline
    from repro.memory.traffic import TrafficMeter
    from repro.perf.oracles import expand_scalar, replay_scalar, trace_only_scalar
    from repro.render.renderer import Renderer
    from repro.texture.address import TexelAddressMap
    from repro.workloads import workload_by_name

    trace_fns = {"scalar": trace_only_scalar, "batched": Renderer.trace_only}
    replay_fns = {
        "scalar": replay_scalar,
        "batched": GpuPipeline.replay_texture_stream,
    }

    def replay_snapshot(makespan, histogram, counts, traffic):
        return {
            "makespan": makespan,
            "latency_count": histogram.count,
            "latency_total": float(histogram.total),
            "latency_max": float(histogram.max_latency),
            "latency_buckets": list(histogram.buckets),
            "per_cluster": list(counts),
            "external_bytes": float(traffic.external_total),
        }

    names = list(workload_names or FAST_WORKLOADS)
    rounds = max(1, repeats)
    workload_results: List[Dict[str, Any]] = []
    for name in names:
        workload = workload_by_name(name)
        built = workload.build()

        trace_seconds = {"scalar": float("inf"), "batched": float("inf")}
        outputs: Dict[str, Any] = {}
        for _ in range(rounds):
            for mode in ("scalar", "batched"):
                renderer = workload.make_renderer()
                started = time.perf_counter()
                outputs[mode] = trace_fns[mode](
                    renderer, built.scene, built.camera
                )
                trace_seconds[mode] = min(
                    trace_seconds[mode], time.perf_counter() - started
                )
        trace = outputs["batched"].trace
        trace_identical = (
            outputs["scalar"].trace.requests == trace.requests
        )

        expand_seconds = {"scalar": float("inf"), "batched": float("inf")}
        expansions: Dict[str, Any] = {}
        for _ in range(rounds):
            started = time.perf_counter()
            expansions["scalar"] = expand_scalar(
                built.scene, trace.requests, TexelAddressMap(), aniso=True
            )
            expand_seconds["scalar"] = min(
                expand_seconds["scalar"], time.perf_counter() - started
            )
            started = time.perf_counter()
            expansions["batched"] = RequestExpander(built.scene).expand(
                trace.requests
            )
            expand_seconds["batched"] = min(
                expand_seconds["batched"], time.perf_counter() - started
            )
        expanded = expansions["batched"]
        expansion_identical = expanded.equals(expansions["scalar"])

        config = DesignConfig(design=Design.BASELINE)

        cold_seconds = {"scalar": float("inf"), "batched": float("inf")}
        warm_seconds = {"scalar": float("inf"), "batched": float("inf")}
        snapshots: Dict[str, Any] = {}
        for _ in range(rounds):
            for mode in ("scalar", "batched"):
                replay = replay_fns[mode]
                traffic = TrafficMeter()
                path = make_texture_path(config, traffic)
                pipeline = GpuPipeline(config.gpu)
                started = time.perf_counter()
                replay(pipeline, trace, expanded, path)
                cold_seconds[mode] = min(
                    cold_seconds[mode], time.perf_counter() - started
                )
                path.reset_for_measurement()
                traffic.reset()
                started = time.perf_counter()
                makespan, histogram, counts = replay(
                    pipeline, trace, expanded, path
                )
                warm_seconds[mode] = min(
                    warm_seconds[mode], time.perf_counter() - started
                )
                snapshots[mode] = replay_snapshot(
                    makespan, histogram, counts, traffic
                )

        scalar_total = (
            trace_seconds["scalar"]
            + expand_seconds["scalar"]
            + cold_seconds["scalar"]
            + warm_seconds["scalar"]
        )
        batched_total = (
            trace_seconds["batched"]
            + expand_seconds["batched"]
            + cold_seconds["batched"]
            + warm_seconds["batched"]
        )
        workload_results.append({
            "name": name,
            "requests": len(trace.requests),
            "design": Design.BASELINE.value,
            "trace": {
                "scalar_seconds": trace_seconds["scalar"],
                "batch_seconds": trace_seconds["batched"],
                "speedup_vs_scalar": _speedup(
                    trace_seconds["scalar"], trace_seconds["batched"]
                ),
                "identical_requests": trace_identical,
            },
            "expand": {
                "scalar_seconds": expand_seconds["scalar"],
                "batch_seconds": expand_seconds["batched"],
                "speedup_vs_scalar": _speedup(
                    expand_seconds["scalar"], expand_seconds["batched"]
                ),
                "identical_expansion": expansion_identical,
            },
            "replay": {
                "scalar_cold_seconds": cold_seconds["scalar"],
                "scalar_warm_seconds": warm_seconds["scalar"],
                "batch_cold_seconds": cold_seconds["batched"],
                "batch_warm_seconds": warm_seconds["batched"],
                "speedup_cold": _speedup(
                    cold_seconds["scalar"], cold_seconds["batched"]
                ),
                "speedup_warm": _speedup(
                    warm_seconds["scalar"], warm_seconds["batched"]
                ),
                "identical_results": snapshots["scalar"]
                == snapshots["batched"],
                "result": snapshots["batched"],
            },
            "total": {
                "scalar_seconds": scalar_total,
                "batch_seconds": batched_total,
                "speedup_vs_scalar": _speedup(scalar_total, batched_total),
            },
        })

    total_speedups = [
        w["total"]["speedup_vs_scalar"] for w in workload_results
    ]
    return {
        "schema": "repro-bench-frame/2",
        "source_version": source_version(),
        "repeats": rounds,
        "workloads": workload_results,
        "summary": {
            "min_total_speedup": min(total_speedups),
            "geomean_total_speedup": _geomean(total_speedups),
            "identical": all(
                w["trace"]["identical_requests"]
                and w["expand"]["identical_expansion"]
                and w["replay"]["identical_results"]
                for w in workload_results
            ),
        },
    }


def bench_runner(
    workload_names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> Dict[str, Any]:
    """Time a figure-suite slice cold vs warm through the disk cache.

    Cold: a fresh :class:`ExperimentRunner` over an empty cache
    directory generates Fig. 10 (prefetching the grid in parallel when
    ``jobs > 1``).  Warm: a second runner over the same directory
    regenerates it purely from disk.
    """
    from repro.core import Design
    from repro.core.angle import DEFAULT_THRESHOLD
    from repro.experiments import fig10
    from repro.experiments.cache import source_version
    from repro.experiments.runner import FAST_WORKLOADS, ExperimentRunner, RunKey

    names = list(workload_names or FAST_WORKLOADS)
    default = DEFAULT_THRESHOLD.effective_radians
    keys = [
        RunKey(name, design, default, True)
        for name in names
        for design in Design
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        cold = ExperimentRunner(names, cache_dir=cache_dir)
        started = time.perf_counter()
        if jobs is not None and jobs > 1:
            cold.run_many(keys, jobs=jobs)
        fig10.run(cold)
        cold_seconds = time.perf_counter() - started

        warm = ExperimentRunner(names, cache_dir=cache_dir)
        started = time.perf_counter()
        warm.run_many(keys, jobs=1)
        fig10.run(warm)
        warm_seconds = time.perf_counter() - started
        warm_stats = warm.cache_stats()

        return {
            "schema": "repro-bench-runner/1",
            "source_version": source_version(),
            "figure": "fig10",
            "workloads": names,
            "jobs": jobs or 1,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup_warm_vs_cold": _speedup(cold_seconds, warm_seconds),
            "cache_hit_rate": warm_stats.disk_hit_rate,
            "cache_entries": warm_stats.disk_entries,
            "cache_bytes": warm_stats.disk_bytes,
        }


def bench_tracing(repeats: int = 7, calls: int = 400) -> Dict[str, Any]:
    """Measure what disabled tracing costs instrumented code.

    A fixed ~1 ms numeric kernel is timed bare and wrapped in
    :func:`repro.obs.timed_stage` with tracing off; with min-of-repeats
    timing the wrapped path should be indistinguishable from the bare
    one (a single boolean test per call).  For contrast the wrapped
    kernel is also timed with tracing *on*, where span bookkeeping is
    expected to show up.
    """
    from repro.experiments.cache import source_version
    from repro.obs import reset_tracer, set_tracing, timed_stage, tracing_enabled

    size = 160
    left = np.arange(size * size, dtype=np.float64).reshape(size, size) / size
    right = left.T.copy()

    def body() -> float:
        return float(np.dot(left, right).trace())

    wrapped = timed_stage("bench.tracing_body")(body)

    def time_once(fn: Any) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - started

    was_tracing = tracing_enabled()
    set_tracing(False, propagate_env=False)
    try:
        # Interleave the three variants within every repeat so they all
        # sample the same machine noise (frequency scaling, BLAS thread
        # wake-ups); min-of-repeats then compares like with like.
        time_once(body)
        time_once(wrapped)
        bare_seconds = float("inf")
        disabled_seconds = float("inf")
        enabled_seconds = float("inf")
        for _ in range(repeats):
            bare_seconds = min(bare_seconds, time_once(body))
            disabled_seconds = min(disabled_seconds, time_once(wrapped))
            set_tracing(True, propagate_env=False)
            enabled_seconds = min(enabled_seconds, time_once(wrapped))
            reset_tracer()  # drop the benchmark's own spans
            set_tracing(False, propagate_env=False)
    finally:
        set_tracing(was_tracing, propagate_env=False)

    disabled_overhead = (
        disabled_seconds / bare_seconds - 1.0 if bare_seconds > 0 else 0.0
    )
    return {
        "schema": "repro-bench-tracing/1",
        "source_version": source_version(),
        "calls": calls,
        "repeats": repeats,
        "bare_seconds": bare_seconds,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "disabled_overhead_ratio": disabled_overhead,
        "enabled_overhead_ratio": (
            enabled_seconds / bare_seconds - 1.0 if bare_seconds > 0 else 0.0
        ),
    }


def bench_sweep(
    workload_names: Optional[Sequence[str]] = None,
    points: int = 8,
    jobs: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, Any]:
    """Run one sampled sweep per executor backend; demand identical results.

    The same deterministic ``points``-point sample is executed through
    every backend in :data:`repro.faults.BACKEND_NAMES`, each over its
    own empty cache directory (agreement must come from recomputation,
    not from reading a sibling's cache).  The signature map -- sweep
    token to (frame cycles, texture cycles, external texture bytes,
    request count) -- must match the serial backend's exactly.
    """
    import os

    from repro.experiments.cache import source_version
    from repro.experiments.runner import FAST_WORKLOADS
    from repro.experiments.sweep import SweepDefinition, run_sweep
    from repro.faults import BACKEND_NAMES, FAST_RETRIES

    names = list(workload_names or FAST_WORKLOADS[:1])
    if jobs is None:
        jobs = max(2, min(4, os.cpu_count() or 1))
    definition = SweepDefinition(
        name="bench-smoke",
        workloads=tuple(names),
        thresholds=(0.005, 0.0314159),
        link_scales=(0.5, 1.0),
        seed=seed,
    )
    sample = definition.sample(points)
    backends: List[Dict[str, Any]] = []
    signatures: Dict[str, Dict[str, Any]] = {}
    for backend in BACKEND_NAMES:
        with tempfile.TemporaryDirectory(
            prefix=f"repro-sweep-{backend}-"
        ) as cache_dir:
            started = time.perf_counter()
            result = run_sweep(
                definition,
                points=sample,
                cache_dir=cache_dir,
                jobs=jobs,
                backend=backend,
                retry_policy=FAST_RETRIES,
            )
            elapsed = time.perf_counter() - started
        signatures[backend] = {
            token: list(signature)
            for token, signature in sorted(result.signatures().items())
        }
        backends.append({
            "backend": backend,
            "seconds": elapsed,
            "records": len(result.records),
            "missing": len(result.missing),
            "unique_runs": result.unique_runs,
            "identical_to_serial": signatures[backend]
            == signatures[BACKEND_NAMES[0]],
        })
    return {
        "schema": "repro-bench-sweep/1",
        "source_version": source_version(),
        "workloads": names,
        "points": len(sample),
        "jobs": jobs,
        "backends": backends,
        "summary": {
            "identical_results": all(
                entry["identical_to_serial"] for entry in backends
            ),
            "complete": all(entry["missing"] == 0 for entry in backends),
        },
    }


def run_bench(
    fast: bool = False,
    jobs: Optional[int] = None,
    min_speedup: float = 1.0,
    frame_min_speedup: float = 1.0,
    output_dir: str = ".",
) -> int:
    """Run the benchmarks, write the JSON files, gate on the speedups.

    ``fast`` restricts to a single workload (the CI smoke
    configuration); the default covers the whole ``FAST_WORKLOADS``
    set.  Returns a non-zero exit code when the batched exact sampler's
    slowest per-workload speedup falls below ``min_speedup``, the
    whole-frame trace+expand+replay speedup falls below
    ``frame_min_speedup``,
    or any output fails the bit-identity check.
    """
    from repro.experiments.runner import FAST_WORKLOADS

    names = FAST_WORKLOADS[:1] if fast else FAST_WORKLOADS
    out = Path(output_dir)

    sampling = bench_sampling(names)
    sampling_path = out / BENCH_SAMPLING_FILENAME
    sampling_path.write_text(json.dumps(sampling, indent=2) + "\n")
    for workload in sampling["workloads"]:
        print(
            f"{workload['name']:24s} exact {workload['exact']['speedup_vs_scalar']:5.1f}x  "
            f"isotropic {workload['isotropic']['speedup_vs_scalar']:5.1f}x  "
            f"reordered {workload['reordered']['speedup_vs_scalar']:5.1f}x  "
            f"atfim {workload['atfim']['speedup_vs_scalar']:5.1f}x  "
            f"raster {workload.get('trace', {}).get('speedup_vs_scalar', 0.0):5.1f}x  "
            f"({workload['requests']} requests)"
        )
    summary = sampling["summary"]
    print(
        f"sampler speedup: min {summary['min_exact_speedup']:.1f}x, "
        f"geomean {summary['geomean_exact_speedup']:.1f}x, "
        f"bit-identical: {summary['bit_identical']}"
    )
    print(f"wrote {sampling_path}")

    frame = bench_frame(names)
    frame_path = out / BENCH_FRAME_FILENAME
    frame_path.write_text(json.dumps(frame, indent=2) + "\n")
    for workload in frame["workloads"]:
        replay = workload["replay"]
        print(
            f"{workload['name']:24s} frame "
            f"{workload['total']['speedup_vs_scalar']:5.1f}x  "
            f"(trace {workload['trace']['speedup_vs_scalar']:.1f}x, "
            f"expand {workload['expand']['speedup_vs_scalar']:.1f}x, "
            f"replay cold {replay['speedup_cold']:.1f}x / "
            f"warm {replay['speedup_warm']:.1f}x)"
        )
    frame_summary = frame["summary"]
    print(
        f"frame speedup: min {frame_summary['min_total_speedup']:.1f}x, "
        f"geomean {frame_summary['geomean_total_speedup']:.1f}x, "
        f"identical results: {frame_summary['identical']}"
    )
    print(f"wrote {frame_path}")

    runner = bench_runner(names, jobs=jobs)
    runner_path = out / BENCH_RUNNER_FILENAME
    runner_path.write_text(json.dumps(runner, indent=2) + "\n")
    print(
        f"runner: cold {runner['cold_seconds']:.2f}s, "
        f"warm {runner['warm_seconds']:.2f}s "
        f"({runner['speedup_warm_vs_cold']:.0f}x, "
        f"hit rate {runner['cache_hit_rate']:.2f})"
    )
    print(f"wrote {runner_path}")

    tracing = bench_tracing()
    tracing_path = out / BENCH_TRACING_FILENAME
    tracing_path.write_text(json.dumps(tracing, indent=2) + "\n")
    print(
        f"tracing: disabled overhead "
        f"{tracing['disabled_overhead_ratio'] * 100:+.2f}%, "
        f"enabled {tracing['enabled_overhead_ratio'] * 100:+.2f}% "
        f"(bare {tracing['bare_seconds'] * 1000:.1f} ms "
        f"per {tracing['calls']} calls)"
    )
    print(f"wrote {tracing_path}")

    from repro.perf.parity import PARITY_MATH_FILENAME, run_parity

    parity = run_parity()
    parity_path = out / PARITY_MATH_FILENAME
    parity_path.write_text(json.dumps(parity, indent=2) + "\n")
    for fn in parity["functions"]:
        print(
            f"parity {fn['function']:6s} libm divergence "
            f"{fn['libm_divergence_rate'] * 100:6.3f}% "
            f"(max {fn['libm_max_ulp']} ulp), batch-invariant: "
            f"{fn['batch_invariant']}"
        )
    print(f"wrote {parity_path}")

    sweep = bench_sweep(names if not fast else names[:1], jobs=jobs)
    sweep_path = out / BENCH_SWEEP_FILENAME
    sweep_path.write_text(json.dumps(sweep, indent=2) + "\n")
    for entry in sweep["backends"]:
        print(
            f"sweep {entry['backend']:13s} {entry['seconds']:6.2f}s  "
            f"{entry['records']} points / {entry['unique_runs']} runs  "
            f"identical: {entry['identical_to_serial']}"
        )
    print(f"wrote {sweep_path}")

    if not summary["bit_identical"]:
        print(
            "FAIL: batched sampler output is not bit-identical to scalar "
            "(or A-TFIM reuse/recalculation counts differ; see "
            "BENCH_sampling.json)"
        )
        return 1
    if summary["min_exact_speedup"] < min_speedup:
        print(
            f"FAIL: batched sampler speedup {summary['min_exact_speedup']:.2f}x "
            f"below required {min_speedup:.2f}x"
        )
        return 1
    if not frame_summary["identical"]:
        print(
            "FAIL: batched frame path is not bit-identical to the "
            "scalar oracle (trace requests, expansion columns or replay "
            "results differ)"
        )
        return 1
    if frame_summary["min_total_speedup"] < frame_min_speedup:
        print(
            f"FAIL: whole-frame speedup "
            f"{frame_summary['min_total_speedup']:.2f}x below required "
            f"{frame_min_speedup:.2f}x"
        )
        return 1
    if not parity["summary"]["batch_invariant"]:
        print(
            "FAIL: numpy ufunc results depend on batch shape -- the "
            "canonical-kernel bit-identity strategy is unsound on this "
            "toolchain (see PARITY_math.json)"
        )
        return 1
    if not sweep["summary"]["complete"]:
        print("FAIL: a sweep backend dropped points (see BENCH_sweep.json)")
        return 1
    if not sweep["summary"]["identical_results"]:
        print(
            "FAIL: executor backends disagree on sweep results -- the "
            "scheduler leaked nondeterminism (see BENCH_sweep.json)"
        )
        return 1
    return 0
