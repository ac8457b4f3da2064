"""Experiment runner with memoised, disk-cached, parallel simulations.

Most figures slice the same underlying grid -- (workload x design x
threshold x aniso) -- so the runner memoises :func:`simulate_frame`
results, the per-workload traces, and each trace's request expansion
(one per aniso setting, shared by every design point).  All experiments
are deterministic; the caches are purely time savers.

Three layers, consulted in order:

* an in-process memo (``RunKey`` -> result dictionaries, as before);
* an optional on-disk :class:`~repro.experiments.cache.DiskCache`, keyed
  by workload/config/source-version content hashes, so reruns of the
  figure suite are incremental across processes and sessions (enable by
  passing ``cache_dir`` or setting ``REPRO_CACHE_DIR``);
* :meth:`ExperimentRunner.run_many`, which fans a batch of grid points
  out over a process pool -- traces first (one per distinct workload),
  then the design runs -- with workers communicating through the disk
  cache rather than shipping multi-megabyte traces back.

The fan-out is fault tolerant: scheduling goes through
:func:`repro.faults.executor.run_fanout`, so a failed task attempt is
retried with exponential backoff, a dead worker (``BrokenProcessPool``)
triggers a pool rebuild with in-flight keys requeued, and a task that
exhausts its retry budget degrades to serial in-process execution.
Whatever happens, ``run_many`` returns every result it obtained, and
:meth:`ExperimentRunner.fanout_report` labels each key with its
:class:`~repro.faults.outcomes.RunOutcome` (ok / retried / degraded /
failed).  Memoisation counters advance identically in the serial and
parallel branches: one miss per scheduled grid point (trace memoisation
is only counted by direct :meth:`ExperimentRunner.trace` /
:meth:`ExperimentRunner.run` calls).
"""

from __future__ import annotations

import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro import faults, obs
from repro.core import Design, simulate_frame
from repro.core.angle import DEFAULT_THRESHOLD, AngleThreshold
from repro.core.expansion import ExpansionColumns, expand_trace
from repro.core.frontend import DesignRun
from repro.energy import EnergyBreakdown, EnergyModel
from repro.experiments.cache import CacheStats, DiskCache
from repro.faults import (
    FanoutReport,
    FanoutTask,
    FaultContext,
    RetryPolicy,
    RunOutcome,
    TaskReport,
    run_fanout,
    task_token,
)
from repro.render.scene import Scene
from repro.texture.requests import FragmentTrace
from repro.units import Radians
from repro.workloads import WORKLOADS, GameWorkload, workload_by_name

FAST_WORKLOADS = ["doom3-640x480", "riddick-640x480", "wolfenstein-640x480"]
"""Small subset used by tests and quick runs (sub-second traces)."""


@dataclass(frozen=True)
class RunKey:
    """Memoisation key for one design simulation."""

    workload: str
    design: Design
    angle_threshold: float
    aniso_enabled: bool
    mtu_share: int = 1
    consolidation_enabled: bool = True
    memory_backend: str = "hmc"
    """PIM substrate (:mod:`repro.memory.registry` name)."""
    link_bandwidth_scale: float = 1.0
    """External-interface multiplier of the substrate (sweep axis)."""


@dataclass
class RunnerCacheStats:
    """Cache effectiveness counters for one :class:`ExperimentRunner`."""

    memo_hits: int
    memo_misses: int
    disk_hits: int
    disk_misses: int
    disk_stores: int
    disk_errors: int
    disk_entries: int
    disk_bytes: int

    @property
    def disk_hit_rate(self) -> float:
        total = self.disk_hits + self.disk_misses
        return self.disk_hits / total if total else 0.0


def _run_payload(key: RunKey) -> Dict[str, Any]:
    """Canonical JSON-able payload identifying one design run."""
    return {
        "workload": key.workload,
        "design": key.design.name,
        "angle_threshold": key.angle_threshold,
        "aniso_enabled": key.aniso_enabled,
        "mtu_share": key.mtu_share,
        "consolidation_enabled": key.consolidation_enabled,
        "memory_backend": key.memory_backend,
        "link_bandwidth_scale": key.link_bandwidth_scale,
    }


def _trace_pair(
    cache: DiskCache, workload: GameWorkload
) -> Tuple[Scene, FragmentTrace]:
    """Load (or generate and persist) a workload's scene + trace."""
    trace_key = cache.key("trace", workload=workload.name)
    hit, pair = cache.load(trace_key)
    if not hit:
        pair = workload.trace()
        cache.store_safe(trace_key, pair)
    return pair


class _WorkerResult(NamedTuple):
    """What a pool worker sends back to the runner."""

    value: Any
    cache_stats: CacheStats
    """Counters of the worker's own :class:`DiskCache`; the runner folds
    them into its cache's counters so :meth:`ExperimentRunner.cache_stats`
    covers work done in other processes."""
    spans: Sequence[Dict[str, Any]] = ()
    """The worker's span forest (traced workers only)."""


def _worker_trace(
    workload_name: str, cache_root: str,
    ctx: Optional[FaultContext] = None,
) -> _WorkerResult:
    """Pool worker: ensure one workload's trace exists in the disk cache."""
    faults.enter_worker(ctx)
    cache = DiskCache(root=Path(cache_root))
    _trace_pair(cache, workload_by_name(workload_name))
    return _WorkerResult(workload_name, cache.stats)


def _worker_run(
    key: RunKey, cache_root: str,
    ctx: Optional[FaultContext] = None,
) -> _WorkerResult:
    """Pool worker: simulate one grid point, reading/writing the cache."""
    faults.enter_worker(ctx)
    cache = DiskCache(root=Path(cache_root))
    run_key = cache.key("run", **_run_payload(key))
    hit, run = cache.load(run_key)
    if hit:
        return _WorkerResult(run, cache.stats)
    workload = workload_by_name(key.workload)
    scene, trace = _trace_pair(cache, workload)
    config = workload.design_config(
        key.design,
        angle_threshold=key.angle_threshold,
        aniso_enabled=key.aniso_enabled,
        mtu_share=key.mtu_share,
        consolidation_enabled=key.consolidation_enabled,
        memory_backend=key.memory_backend,
        link_bandwidth_scale=key.link_bandwidth_scale,
    )
    run = simulate_frame(scene, trace, config)
    cache.store_safe(run_key, run)
    return _WorkerResult(run, cache.stats)


def _worker_trace_traced(
    workload_name: str, cache_root: str,
    ctx: Optional[FaultContext] = None,
) -> _WorkerResult:
    """Traced pool worker: trace generation plus this worker's span forest.

    Forked workers inherit the parent's half-built tracer state, so the
    tracer is reset before any spans are recorded here -- except when
    running in the parent itself (the degraded fallback under
    :func:`faults.suppress`, or a serial-backend attempt under
    :func:`faults.inline_execution`), where the parent's live tracer
    already covers the work and resetting it would destroy the run's
    span forest.
    """
    if faults.suppressed() or faults.inline():
        return _worker_trace(workload_name, cache_root, ctx)
    obs.reset_tracer()
    with obs.span("worker.trace", workload=workload_name):
        result = _worker_trace(workload_name, cache_root, ctx)
    return result._replace(spans=obs.get_tracer().as_dicts())


def _worker_run_traced(
    key: RunKey, cache_root: str,
    ctx: Optional[FaultContext] = None,
) -> _WorkerResult:
    """Traced pool worker: one grid point plus this worker's span forest."""
    if faults.suppressed() or faults.inline():
        return _worker_run(key, cache_root, ctx)
    obs.reset_tracer()
    with obs.span(
        "worker.run", workload=key.workload, design=key.design.name
    ):
        result = _worker_run(key, cache_root, ctx)
    return result._replace(spans=obs.get_tracer().as_dicts())


def _graft_worker_spans(
    phase_span, forests: Sequence[Sequence[Dict[str, Any]]]
) -> None:
    """Attach each worker's span forest to a fan-out phase span."""
    if phase_span is None:
        return
    phase_span.attributes["worker_spans"] = [
        forest for forest in forests if forest
    ]


class ExperimentRunner:
    """Runs and memoises design simulations over the workload set."""

    def __init__(
        self,
        workload_names: Optional[Sequence[str]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        backend: Optional[str] = None,
        cache: Optional[DiskCache] = None,
    ) -> None:
        if workload_names is None:
            self.workloads: List[GameWorkload] = list(WORKLOADS)
        else:
            self.workloads = [workload_by_name(name) for name in workload_names]
        self._traces: Dict[str, Tuple[Scene, FragmentTrace]] = {}
        self._expansions: Dict[Tuple[str, bool], ExpansionColumns] = {}
        self._runs: Dict[RunKey, DesignRun] = {}
        self._energy: Dict[RunKey, EnergyBreakdown] = {}
        self.energy_model = EnergyModel()
        self.jobs = jobs
        self.backend = backend
        self.retry_policy = retry_policy or RetryPolicy()
        self.memo_hits = 0
        self.memo_misses = 0
        self._last_fanout = FanoutReport()
        self._memo_lock = threading.RLock()
        """Guards the memo dicts and counters: a persistent server reads
        :meth:`cache_stats` from its HTTP thread while a job thread is
        inside :meth:`run_batch`."""
        if cache is not None:
            # An explicitly-constructed cache (namespaced, size-bounded:
            # the job server's artifact store) wins over cache_dir/env.
            self._disk: Optional[DiskCache] = cache
        else:
            if cache_dir is None:
                env = os.environ.get("REPRO_CACHE_DIR")
                cache_dir = Path(env) if env else None
            self._disk = (
                DiskCache(root=Path(cache_dir)) if cache_dir is not None
                else None
            )

    @property
    def disk_cache(self) -> Optional[DiskCache]:
        """The persistent cache, or ``None`` when running memo-only."""
        return self._disk

    def fanout_report(self) -> FanoutReport:
        """Per-key robustness outcomes of the most recent :meth:`run_many`.

        Empty until the first ``run_many`` call; keys already served from
        the memo are not listed (they were never scheduled).
        """
        return self._last_fanout

    def trace(self, workload: GameWorkload) -> Tuple[Scene, FragmentTrace]:
        if workload.name in self._traces:
            self.memo_hits += 1
            return self._traces[workload.name]
        self.memo_misses += 1
        with obs.span("runner.trace", workload=workload.name):
            if self._disk is not None:
                pair = _trace_pair(self._disk, workload)
            else:
                pair = workload.trace()
        self._traces[workload.name] = pair
        return pair

    def _expansion(
        self, workload_name: str, aniso_enabled: bool,
        scene: Scene, trace: FragmentTrace,
    ) -> ExpansionColumns:
        """A trace's expansion, computed once per (workload, aniso flag).

        Every design point of a workload replays the same expansion, so
        it is memoised next to the trace.
        """
        key = (workload_name, aniso_enabled)
        with self._memo_lock:
            expansion = self._expansions.get(key)
        if expansion is None:
            expansion = expand_trace(scene, trace.requests, aniso_enabled)
            with self._memo_lock:
                expansion = self._expansions.setdefault(key, expansion)
        return expansion

    def run(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
        aniso_enabled: bool = True,
        mtu_share: int = 1,
        consolidation_enabled: bool = True,
    ) -> DesignRun:
        """Simulate (memoised + disk-cached) one design point."""
        threshold = threshold or DEFAULT_THRESHOLD
        key = RunKey(
            workload=workload.name,
            design=design,
            angle_threshold=threshold.effective_radians,
            aniso_enabled=aniso_enabled,
            mtu_share=mtu_share,
            consolidation_enabled=consolidation_enabled,
        )
        if key in self._runs:
            self.memo_hits += 1
            return self._runs[key]
        self.memo_misses += 1
        with obs.span(
            "runner.run", workload=workload.name, design=design.name
        ) as current:
            disk_key = None
            if self._disk is not None:
                disk_key = self._disk.key("run", **_run_payload(key))
                hit, run = self._disk.load(disk_key)
                if hit:
                    self._runs[key] = run
                    if current is not None:
                        current.attributes["source"] = "disk"
                    return run
            scene, trace = self.trace(workload)
            config = workload.design_config(
                design,
                angle_threshold=threshold.effective_radians,
                aniso_enabled=aniso_enabled,
                mtu_share=mtu_share,
                consolidation_enabled=consolidation_enabled,
            )
            expansion = self._expansion(
                workload.name, aniso_enabled, scene, trace
            )
            run = simulate_frame(scene, trace, config, expansion=expansion)
            if current is not None:
                current.attributes["source"] = "simulated"
            self._runs[key] = run
            if self._disk is not None and disk_key is not None:
                self._disk.store_safe(disk_key, run)
            return run

    def _simulate_pending(self, key: RunKey) -> DesignRun:
        """Serially simulate one grid point ``run_many`` already accounted.

        Identical to the miss path of :meth:`run` except that it touches
        no memoisation counters: :meth:`run_many` charges exactly one
        memo miss per scheduled key in both its serial and parallel
        branches, so the two stay comparable.
        """
        with obs.span(
            "runner.run", workload=key.workload, design=key.design.name
        ) as current:
            disk_key = None
            if self._disk is not None:
                disk_key = self._disk.key("run", **_run_payload(key))
                hit, run = self._disk.load(disk_key)
                if hit:
                    with self._memo_lock:
                        self._runs[key] = run
                    if current is not None:
                        current.attributes["source"] = "disk"
                    return run
            workload = workload_by_name(key.workload)
            pair = self._traces.get(workload.name)
            if pair is None:
                with obs.span("runner.trace", workload=workload.name):
                    if self._disk is not None:
                        pair = _trace_pair(self._disk, workload)
                    else:
                        pair = workload.trace()
                with self._memo_lock:
                    self._traces[workload.name] = pair
            scene, trace = pair
            config = workload.design_config(
                key.design,
                angle_threshold=key.angle_threshold,
                aniso_enabled=key.aniso_enabled,
                mtu_share=key.mtu_share,
                consolidation_enabled=key.consolidation_enabled,
                memory_backend=key.memory_backend,
                link_bandwidth_scale=key.link_bandwidth_scale,
            )
            expansion = self._expansion(
                workload.name, key.aniso_enabled, scene, trace
            )
            run = simulate_frame(scene, trace, config, expansion=expansion)
            if current is not None:
                current.attributes["source"] = "simulated"
            with self._memo_lock:
                self._runs[key] = run
            if self._disk is not None and disk_key is not None:
                self._disk.store_safe(disk_key, run)
            return run

    def run_many(
        self,
        keys: Sequence[RunKey],
        jobs: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> Dict[RunKey, DesignRun]:
        """Simulate a batch of grid points, fanning out across processes.

        Thin wrapper over :meth:`run_batch` that additionally publishes
        the batch's :class:`~repro.faults.outcomes.FanoutReport` as
        :meth:`fanout_report` -- the historical single-shot interface.
        Long-running callers that issue batches concurrently (the job
        server) use :meth:`run_batch` directly, which hands each caller
        its own report instead of racing on the runner-wide slot.
        """
        results, report = self.run_batch(
            keys,
            jobs=jobs,
            retry_policy=retry_policy,
            task_timeout=task_timeout,
            backend=backend,
        )
        self._last_fanout = report
        return results

    def run_batch(
        self,
        keys: Sequence[RunKey],
        jobs: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> Tuple[Dict[RunKey, DesignRun], FanoutReport]:
        """Re-entrant core of :meth:`run_many`: returns ``(results, report)``.

        Safe to call repeatedly from a persistent process: the batch's
        fan-out report is *returned* (never stored on the runner), the
        memo dictionaries and counters are mutated under a lock so
        concurrent :meth:`cache_stats` reads see consistent values, and
        every scratch resource is scoped to the call.

        Two phases: first every distinct workload's trace is generated
        (one worker each), then the design runs execute against the
        now-warm cache.  Workers exchange artefacts through the disk
        cache; when the runner has none configured, a temporary one
        scoped to this call is used.  With ``jobs=1`` (or a single key)
        everything runs in-process -- results are identical either way
        because the whole pipeline is deterministic.

        ``backend`` names an executor backend
        (:data:`repro.faults.BACKEND_NAMES`: ``serial`` or
        ``process-pool``); naming one explicitly --
        here or on the runner -- routes scheduling through
        :func:`~repro.faults.executor.run_fanout` on that backend even
        when ``jobs`` would otherwise take the in-process shortcut, so
        cross-backend comparisons exercise the same code path.

        The parallel branch is fault tolerant (see
        :func:`repro.faults.executor.run_fanout`): failed attempts are
        retried under ``retry_policy`` (default: the runner's), tasks
        exceeding ``task_timeout`` seconds are requeued after a pool
        rebuild, and keys that exhaust their retries fall back to serial
        in-process execution.  The returned mapping contains every key
        that produced a result -- possibly a strict subset of ``keys``;
        consult :meth:`fanout_report` for per-key outcomes.
        """
        jobs = jobs if jobs is not None else self.jobs
        if jobs is None:
            jobs = os.cpu_count() or 1
        backend = backend if backend is not None else self.backend
        results: Dict[RunKey, DesignRun] = {}
        pending: List[RunKey] = []
        report = FanoutReport()
        with self._memo_lock:
            for key in keys:
                if key in self._runs:
                    self.memo_hits += 1
                    results[key] = self._runs[key]
                elif key not in pending:
                    pending.append(key)
            if not pending:
                return results, report
            self.memo_misses += len(pending)

        if backend is None and (jobs <= 1 or len(pending) == 1):
            with obs.span(
                "runner.run_many", pending=len(pending), jobs=1
            ):
                for key in pending:
                    report.tasks[key] = TaskReport(
                        token=task_token(key), outcome=RunOutcome.OK,
                        attempts=1,
                    )
                    results[key] = self._simulate_pending(key)
            return results, report

        scratch: Optional[tempfile.TemporaryDirectory] = None
        if self._disk is not None:
            # base_dir, not root: workers construct un-namespaced caches,
            # so a namespaced parent must point them inside its partition
            # or the two would read and write disjoint directories.
            cache_root = str(self._disk.base_dir)
        else:
            scratch = tempfile.TemporaryDirectory(prefix="repro-cache-")
            cache_root = scratch.name
        traced = obs.tracing_enabled()
        policy = retry_policy if retry_policy is not None else self.retry_policy
        trace_fn = _worker_trace_traced if traced else _worker_trace
        run_fn = _worker_run_traced if traced else _worker_run
        workload_names: List[str] = []
        for key in pending:
            if key.workload not in workload_names:
                workload_names.append(key.workload)
        try:
            with obs.span(
                "runner.run_many", pending=len(pending), jobs=jobs
            ) as many_span:
                with obs.span(
                    "runner.trace_phase", workloads=len(workload_names)
                ) as trace_phase:
                    trace_results, trace_report = run_fanout(
                        [
                            FanoutTask(
                                key=name, fn=trace_fn, args=(name, cache_root)
                            )
                            for name in workload_names
                        ],
                        jobs=min(jobs, len(workload_names)),
                        policy=policy,
                        task_timeout=task_timeout,
                        phase="faults.trace_fanout",
                        backend=backend,
                    )
                    # Graft in submission order, not dict (completion)
                    # order, so the manifest span tree is bit-identical
                    # across runs.
                    _graft_worker_spans(
                        trace_phase,
                        [trace_results[name].spans for name in workload_names
                         if name in trace_results],
                    )
                report.merge(trace_report)
                with obs.span(
                    "runner.run_phase", runs=len(pending)
                ) as run_phase:
                    run_results, run_report = run_fanout(
                        [
                            FanoutTask(
                                key=key, fn=run_fn, args=(key, cache_root)
                            )
                            for key in pending
                        ],
                        jobs=jobs,
                        policy=policy,
                        task_timeout=task_timeout,
                        phase="faults.run_fanout",
                        backend=backend,
                    )
                    _graft_worker_spans(
                        run_phase,
                        [run_results[key].spans for key in pending
                         if key in run_results],
                    )
                report.merge(run_report)
                with self._memo_lock:
                    if self._disk is not None:
                        for worker in (*trace_results.values(),
                                       *run_results.values()):
                            self._disk.stats.add(worker.cache_stats)
                    for key in pending:
                        if key not in run_results:
                            continue  # FAILED: absent, labelled in the report
                        run = run_results[key].value
                        self._runs[key] = run
                        results[key] = run
                if many_span is not None:
                    summary = report.as_dict()
                    del summary["tasks"]
                    many_span.attributes["fanout"] = summary
        finally:
            if scratch is not None:
                scratch.cleanup()
        return results, report

    def completed_runs(self) -> Dict[RunKey, DesignRun]:
        """Snapshot of every design run this runner has produced so far."""
        with self._memo_lock:
            return dict(self._runs)

    def energy(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> EnergyBreakdown:
        """Frame energy (memoised + disk-cached) for one design point."""
        threshold = threshold or DEFAULT_THRESHOLD
        key = RunKey(
            workload=workload.name,
            design=design,
            angle_threshold=threshold.effective_radians,
            aniso_enabled=True,
        )
        if key in self._energy:
            self.memo_hits += 1
            return self._energy[key]
        self.memo_misses += 1
        disk_key = None
        if self._disk is not None:
            disk_key = self._disk.key("energy", **_run_payload(key))
            hit, breakdown = self._disk.load(disk_key)
            if hit:
                self._energy[key] = breakdown
                return breakdown
        run = self.run(workload, design, threshold)
        breakdown = self.energy_model.frame_energy(design, run.frame)
        self._energy[key] = breakdown
        if self._disk is not None and disk_key is not None:
            self._disk.store_safe(disk_key, breakdown)
        return breakdown

    def cache_stats(self) -> RunnerCacheStats:
        """Memoisation and disk-cache effectiveness counters."""
        disk = self._disk
        with self._memo_lock:
            memo_hits, memo_misses = self.memo_hits, self.memo_misses
        return RunnerCacheStats(
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            disk_hits=disk.stats.hits if disk else 0,
            disk_misses=disk.stats.misses if disk else 0,
            disk_stores=disk.stats.stores if disk else 0,
            disk_errors=disk.stats.errors if disk else 0,
            disk_entries=disk.entries() if disk else 0,
            disk_bytes=disk.total_bytes() if disk else 0,
        )

    def baseline(self, workload: GameWorkload) -> DesignRun:
        return self.run(workload, Design.BASELINE)

    # Convenience ratios ------------------------------------------------

    def texture_speedup(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> float:
        """Fig. 10 metric: mean texture-filter latency ratio."""
        run = self.run(workload, design, threshold)
        return run.frame.texture_speedup_over(self.baseline(workload).frame)

    def render_speedup(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> float:
        """Fig. 11 metric: frame makespan ratio."""
        run = self.run(workload, design, threshold)
        return run.frame.speedup_over(self.baseline(workload).frame)

    def texture_traffic_ratio(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> float:
        """Fig. 12 metric: external texture bytes, normalized."""
        run = self.run(workload, design, threshold)
        base = self.baseline(workload).frame.traffic.external_texture
        if base <= 0:
            raise ValueError(f"baseline of {workload.name} moved no texture bytes")
        return run.frame.traffic.external_texture / base

    def energy_ratio(
        self,
        workload: GameWorkload,
        design: Design,
        threshold: Optional[AngleThreshold] = None,
    ) -> float:
        """Fig. 13 metric: total frame energy, normalized."""
        energy = self.energy(workload, design, threshold)
        base = self.energy(workload, Design.BASELINE)
        return energy.total / base.total
