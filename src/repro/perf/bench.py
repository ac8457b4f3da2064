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
    vs the per-request scalar expander) and every design's texture
    replay (the two-pass replay vs the scalar heap scheduler and
    per-lookup serves), timed cold (warm-up replay against empty
    caches) and warm (measured replay against warmed caches), with the
    share of ``core.simulate_frame`` those replays cover, and identity
    checks on the request stream, every expansion column, and each
    replay's makespan, latency histogram, per-cluster counts, traffic
    and flattened path ``StatGroup``.
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
from typing import Any, Dict, List, Optional, Sequence, Tuple

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

    Per workload, the phases of a frame are each timed both ways (best
    of ``repeats``):

    * *trace*: rasterization into texture requests, through the scalar
      AoS fragment loop vs the columnar :class:`FragmentBatch` path;
    * *expand*: request expansion, through the per-request
      :func:`~repro.perf.oracles.expand_scalar` vs the whole-trace
      :class:`~repro.core.expansion.RequestExpander` (anisotropic; the
      isotropic columns a design without aniso needs are expanded
      untimed);
    * *replay*: every design's texture replay under the workload's
      design config, through the scalar heap scheduler and per-lookup
      serves vs the two-pass replay -- split into the cold warm-up
      replay (compulsory misses) and the warm measured replay
      (steady-state caches), matching ``simulate_frame``'s warm-up
      protocol.  Both replay the same columns.

    ``total`` sums trace, expansion and all four designs' replays.
    ``simulate_frame`` times each design's whole production
    ``core.simulate_frame`` on the shared columns (invariant checks
    off), and ``replay_share`` is the part of it the two timed
    replays cover.  Every pairing is checked for end-result identity:
    equal request streams out of the rasterizer, equal expansion
    columns, and, per design, equal makespan / latency histogram /
    per-cluster counts / external and internal traffic / flattened path
    ``StatGroup`` after each replay.
    """
    from repro.core import Design
    from repro.core.expansion import RequestExpander
    from repro.core.frontend import make_texture_path, simulate_frame
    from repro.experiments.cache import source_version
    from repro.experiments.runner import FAST_WORKLOADS
    from repro.gpu.pipeline import GpuPipeline
    from repro.memory.traffic import TrafficMeter
    from repro.perf.oracles import expand_scalar, replay_scalar, trace_only_scalar
    from repro.render.renderer import Renderer
    from repro.texture.address import TexelAddressMap
    from repro.workloads import workload_by_name

    rounds = max(1, repeats)

    def best_of(run: Any) -> Tuple[float, Any]:
        """Fastest of ``rounds`` calls, and the last call's result."""
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - started)
        return best, result

    def replay_twice(replay: Any, config: Any, trace: Any, columns: Any) -> Any:
        """Cold then warm replay on a fresh path: seconds and every
        observable after each."""
        traffic = TrafficMeter()
        path = make_texture_path(config, traffic)
        pipeline = GpuPipeline(config.gpu)
        phases = {}
        for phase in ("cold", "warm"):
            if phase == "warm":
                path.reset_for_measurement()
                traffic.reset()
            started = time.perf_counter()
            makespan, histogram, counts = replay(pipeline, trace, columns, path)
            phases[phase] = (time.perf_counter() - started, {
                "makespan": makespan,
                "latency_count": histogram.count,
                "latency_total": float(histogram.total),
                "latency_max": float(histogram.max_latency),
                "latency_buckets": list(histogram.buckets),
                "per_cluster": list(counts),
                "external_bytes": float(traffic.external_total),
                "internal_bytes": float(traffic.internal_total),
                "path_stats": dict(path.stat_group().flatten()),
            })
        return phases

    modes = {
        "scalar": (trace_only_scalar, replay_scalar),
        "batch": (Renderer.trace_only, GpuPipeline.replay_texture_stream),
    }
    workload_results: List[Dict[str, Any]] = []
    for name in workload_names or FAST_WORKLOADS:
        workload = workload_by_name(name)
        built = workload.build()
        timings: Dict[str, Dict[str, float]] = {mode: {} for mode in modes}
        outputs: Dict[str, Any] = {}
        for mode, (trace_fn, _) in modes.items():
            timings[mode]["trace"], outputs[mode] = best_of(
                lambda: trace_fn(workload.make_renderer(), built.scene, built.camera)
            )
        trace = outputs["batch"].trace
        trace_identical = outputs["scalar"].trace.requests == trace.requests
        timings["scalar"]["expand"], scalar_columns = best_of(
            lambda: expand_scalar(
                built.scene, trace.requests, TexelAddressMap(), aniso=True
            )
        )
        timings["batch"]["expand"], expanded = best_of(
            lambda: RequestExpander(built.scene).expand(trace.requests)
        )
        isotropic = RequestExpander(built.scene).expand_isotropic(trace.requests)

        designs: Dict[str, Any] = {}
        for design in Design:
            config = workload.design_config(design)
            columns = expanded if config.aniso_enabled else isotropic
            entry: Dict[str, Any] = {}
            snapshots = {}
            for mode, (_, replay) in modes.items():
                for _ in range(rounds):
                    phases = replay_twice(replay, config, trace, columns)
                    for phase, (seconds, _) in phases.items():
                        key = f"{mode}_{phase}_seconds"
                        entry[key] = min(entry.get(key, float("inf")), seconds)
                snapshots[mode] = {phase: snap for phase, (_, snap) in phases.items()}
                timings[mode][design.value] = (
                    entry[f"{mode}_cold_seconds"] + entry[f"{mode}_warm_seconds"]
                )
            entry["simulate_frame_seconds"], _ = best_of(
                lambda: simulate_frame(
                    built.scene, trace, config, check_invariants=False,
                    expansion=columns,
                )
            )
            entry["replay_share"] = (
                timings["batch"][design.value] / entry["simulate_frame_seconds"]
            )
            entry["identical_results"] = snapshots["scalar"] == snapshots["batch"]
            entry["result"] = snapshots["batch"]["warm"]
            designs[design.value] = entry

        totals = {mode: sum(timings[mode].values()) for mode in modes}
        replays = {
            mode: sum(timings[mode][design.value] for design in Design)
            for mode in modes
        }
        frame_seconds = sum(
            entry["simulate_frame_seconds"] for entry in designs.values()
        )
        workload_results.append({
            "name": name,
            "requests": len(trace.requests),
            "trace": {
                "scalar_seconds": timings["scalar"]["trace"],
                "batch_seconds": timings["batch"]["trace"],
                "speedup_vs_scalar": _speedup(
                    timings["scalar"]["trace"], timings["batch"]["trace"]
                ),
                "identical_requests": trace_identical,
            },
            "expand": {
                "scalar_seconds": timings["scalar"]["expand"],
                "batch_seconds": timings["batch"]["expand"],
                "speedup_vs_scalar": _speedup(
                    timings["scalar"]["expand"], timings["batch"]["expand"]
                ),
                "identical_expansion": expanded.equals(scalar_columns),
            },
            "replay": {
                "designs": designs,
                "scalar_seconds": replays["scalar"],
                "batch_seconds": replays["batch"],
                "speedup_vs_scalar": _speedup(replays["scalar"], replays["batch"]),
                "identical_results": all(
                    entry["identical_results"] for entry in designs.values()
                ),
            },
            "simulate_frame": {
                "seconds": frame_seconds,
                "replay_share": replays["batch"] / frame_seconds,
            },
            "total": {
                "scalar_seconds": totals["scalar"],
                "batch_seconds": totals["batch"],
                "speedup_vs_scalar": _speedup(totals["scalar"], totals["batch"]),
            },
        })

    total_speedups = [
        w["total"]["speedup_vs_scalar"] for w in workload_results
    ]
    return {
        "schema": "repro-bench-frame/3",
        "source_version": source_version(),
        "repeats": rounds,
        "workloads": workload_results,
        "summary": {
            "min_total_speedup": min(total_speedups),
            "geomean_total_speedup": _geomean(total_speedups),
            "min_replay_share": min(
                w["simulate_frame"]["replay_share"] for w in workload_results
            ),
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
            f"replay {replay['speedup_vs_scalar']:.1f}x over "
            f"{len(replay['designs'])} designs)"
        )
        print(
            f"{'':24s} benched replays cover "
            f"{workload['simulate_frame']['replay_share']:.0%} of "
            f"core.simulate_frame ({workload['simulate_frame']['seconds']:.2f} s "
            f"for the four designs)"
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
