"""The benchmark's three workloads: ``frame``, ``quality`` and ``sweep``.

Each workload generates its inputs from the seed (``generate``, timed as
set-up), runs one iteration of the user-facing path inside timed regions
(``iterate``), and checks every operation of that iteration against the
invariants, the first iteration of the run and, at the default seed
(``--seed 0``), the committed reference in ``reference.json``.

Seed ``n`` gives the doom3-640x480 scene the registry seed plus ``n``
(12 + n) and the sweep the sampling seed ``n``, so seed 0 reproduces the
registry values EXPERIMENTS.md was generated from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.analysis.invariants import check_run
from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD, THRESHOLD_SWEEP
from repro.experiments import fig15
from repro.experiments.cache import DiskCache
from repro.experiments.runner import FAST_WORKLOADS, ExperimentRunner
from repro.experiments.sweep import SweepDefinition, run_sweep
from repro.workloads import GameWorkload, workload_by_name

FRAME_WORKLOAD = "doom3-640x480"
SWEEP_JOBS = 2
SWEEP_BACKEND = "process-pool"

OUTPUT_NAMES = (
    "atfim_texture_speedup",
    "atfim_render_speedup",
    "stfim_traffic_ratio",
    "atfim_energy_ratio",
    "psnr_db",
)
"""Simulated results a workload reports; 0 where it does not produce one."""

Timer = Callable[[str], AbstractContextManager]
"""``timer(label)``: a context manager timing one region of an iteration.
Regions labelled ``run`` or ``run.<part>`` make up ``run_s``; ``warm``
makes up the sweep's warm pass."""


@dataclass
class Iteration:
    """What one iteration produced, checked."""

    requests: int
    """Texture requests processed: simulated through a design, or shaded."""
    attempted: int
    failed: int
    outputs: Dict[str, float] = field(default_factory=dict)
    """Workload-specific results (simulated ratios, PSNR, warm pass)."""
    layers: Dict[str, float] = field(default_factory=dict)
    """Per-layer metrics read from the results rather than from spans."""
    problems: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.outputs = {**dict.fromkeys(OUTPUT_NAMES, 0.0), **self.outputs}


def _seeded(seed: int) -> GameWorkload:
    base = workload_by_name(FRAME_WORKLOAD)
    return dataclasses.replace(base, seed=base.seed + seed)


def _digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()[:16]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_layers(runs) -> Dict[str, float]:
    """The modelled machine's ``sim.<design>.*`` counts from drained runs."""
    layers: Dict[str, float] = {}
    for design in Design:
        stats = dict(obs.run_stat_group(runs[design]).flatten()) if design in runs else {}

        def get(name: str, stats=stats) -> float:
            return stats.get("run." + name, 0.0)

        prefix = f"sim.{design.name}."
        layers[prefix + "frame_cycles"] = get("stages.frame_cycles")
        layers[prefix + "texture_cycles"] = get("stages.texture_cycles")
        layers[prefix + "texture_latency_mean"] = get("texture_latency.mean_cycles")
        layers[prefix + "l1_hit_rate"] = _ratio(
            get("caches.l1_hits"),
            get("caches.l1_hits") + get("caches.l1_misses")
            + get("caches.l1_angle_misses"),
        )
        layers[prefix + "l2_hit_rate"] = _ratio(
            get("caches.l2_hits"), get("caches.l2_hits") + get("caches.l2_misses")
        )
        layers[prefix + "ext_texture_bytes"] = get("traffic.external_texture_bytes")
        layers[prefix + "internal_bytes"] = get("traffic.internal_bytes")
        if design is Design.A_TFIM:
            reuses = get("path.atfim_stages.parent_reuses")
            recalculations = get("path.atfim_stages.parent_recalculations")
            layers[prefix + "parent_reuse_frac"] = _ratio(
                reuses, reuses + recalculations
            )
            layers[prefix + "recalculation_rate"] = get(
                "path.atfim_stages.recalculation_rate"
            )
            layers[prefix + "child_texels"] = get(
                "path.atfim_stages.child_texels_generated"
            )
    return layers


def runner_layers(unique_runs: int = 0, entries: int = 0, cache_bytes: int = 0,
                  reports=()) -> Dict[str, float]:
    """``experiments.*`` and ``faults.*`` counts, read from outside the runner.

    Cache counts come from the cache directory itself: with process-pool
    workers the runner's own ``RunnerCacheStats`` disk counters stay 0,
    because hits and stores happen in the workers.
    """
    return {
        "experiments.unique_runs": unique_runs,
        "experiments.cache_entries": entries,
        "experiments.cache_bytes": cache_bytes,
        "experiments.cache_bytes_per_entry": _ratio(cache_bytes, entries),
        "faults.tasks": sum(len(r.tasks) for r in reports),
        "faults.retries": sum(r.total_retries for r in reports),
        "faults.pool_rebuilds": sum(r.pool_rebuilds for r in reports),
        "faults.degraded": sum(len(r.degraded_keys) for r in reports),
        "faults.failed": sum(len(r.failed_keys) for r in reports),
    }


class _Workload:
    """Shared state: the seed, the reference section, the first outputs.

    ``reference`` is the workload's section of ``reference.json`` at the
    default seed, else ``None``; outputs are then checked against the
    run's first iteration (``first``) only.
    """

    name = ""
    ops_per_iteration = 0

    def __init__(self, seed: int, reference: Optional[dict], work_dir: Path) -> None:
        self.seed = seed
        self.reference = reference or {}
        self.work_dir = work_dir
        self.first: Optional[dict] = None

    def close(self) -> None:
        """Undo anything the workload changed in the simulator's modules."""


class FrameWorkload(_Workload):
    """``python -m repro simulate doom3-640x480``: four designs, cold."""

    name = "frame"
    ops_per_iteration = len(Design)

    def generate(self) -> None:
        self.workload = _seeded(self.seed)
        self.workload.build()

    def iterate(self, timer: Timer) -> Iteration:
        workload = self.workload
        # One timed region per design point, so run.py can take each
        # one's lower quartile across iterations (``_seconds`` there).
        runs = {}
        for design in Design:
            with timer(f"run.{design.name}"):
                if not runs:
                    runner = ExperimentRunner([workload.name])
                runs[design] = runner.run(workload, design, DEFAULT_THRESHOLD)
        with timer("run.ratios"):
            ratios = {
                design: (
                    runner.render_speedup(workload, design, DEFAULT_THRESHOLD),
                    runner.texture_speedup(workload, design, DEFAULT_THRESHOLD),
                    runner.texture_traffic_ratio(workload, design, DEFAULT_THRESHOLD),
                    runner.energy_ratio(workload, design, DEFAULT_THRESHOLD),
                )
                for design in Design
            }
        outputs = {
            "atfim_texture_speedup": ratios[Design.A_TFIM][1],
            "atfim_render_speedup": ratios[Design.A_TFIM][0],
            "stfim_traffic_ratio": ratios[Design.S_TFIM][2],
            "atfim_energy_ratio": ratios[Design.A_TFIM][3],
        }
        result = Iteration(
            requests=sum(run.frame.num_requests for run in runs.values()),
            attempted=len(Design),
            failed=0,
            outputs=outputs,
            layers={**sim_layers(runs), **runner_layers(unique_runs=len(runs))},
        )
        digests = {
            design.name: _digest(obs.run_stat_group(run).flatten())
            for design, run in runs.items()
        }
        if self.first is None:
            self.first = digests
        expected = self.reference.get("outputs") or self.first
        rounded = self.reference.get("experiments_md", {})
        for design in Design:
            problems = []
            run = runs.get(design)
            if run is None:
                problems.append("missing from the results")
            else:
                problems += [str(v) for v in check_run(run, raise_on_violation=False)]
                if digests[design.name] != expected[design.name]:
                    problems.append(
                        f"stat digest {digests[design.name]} != {expected[design.name]}"
                    )
            for metric, value in rounded.get(design.name, {}).items():
                if round(outputs[metric], 3) != value:
                    problems.append(f"{metric} {outputs[metric]:.4f} != EXPERIMENTS.md {value}")
            if problems:
                result.failed += 1
                result.problems += [f"{design.name}: {p}" for p in problems]
        return result


def _image_hash(image: np.ndarray) -> str:
    array = np.ascontiguousarray(image)
    return hashlib.sha256(
        repr((array.dtype.str, array.shape)).encode() + array.tobytes()
    ).hexdigest()[:16]


class _PsnrCapture:
    """Stands in for ``fig15.psnr`` to record each compared image's hash.

    ``fig15.run`` returns only PSNR values; the images it compares reach
    no caller, so the check reads them where they meet ``psnr``.
    """

    def __init__(self, psnr) -> None:
        self.psnr = psnr
        self.calls: List[tuple] = []

    def __call__(self, reference, candidate, *args, **kwargs):
        value = self.psnr(reference, candidate, *args, **kwargs)
        self.calls.append((_image_hash(reference), _image_hash(candidate), value))
        return value


class QualityWorkload(_Workload):
    """Fig. 15 on doom3-640x480: one EXACT render, five A-TFIM renders."""

    name = "quality"
    ops_per_iteration = 1 + len(THRESHOLD_SWEEP)

    def __init__(self, seed: int, reference: Optional[dict], work_dir: Path) -> None:
        super().__init__(seed, reference, work_dir)
        self.fragments: Optional[int] = None
        self.capture = _PsnrCapture(fig15.psnr)
        fig15.psnr = self.capture

    def close(self) -> None:
        fig15.psnr = self.capture.psnr

    def generate(self) -> None:
        self.workload = _seeded(self.seed)
        self.workload.build()

    def iterate(self, timer: Timer) -> Iteration:
        workload = self.workload
        self.capture.calls.clear()
        with timer("run"):
            runner = ExperimentRunner([FRAME_WORKLOAD])
            runner.workloads = [workload]
            data = fig15.run(runner)
        labels = [threshold.label for threshold in THRESHOLD_SWEEP]
        row = data.row(workload.name).values
        calls = self.capture.calls
        observed = {
            "exact": calls[0][0] if calls else None,
            "atfim": {
                label: [call[1], call[2]] for label, call in zip(labels, calls)
            },
        }
        if self.first is None:
            self.first = observed
        expected = self.reference.get("outputs") or self.first
        rounded = self.reference.get("experiments_md", {})
        problems: List[str] = []
        if len(calls) != len(labels):
            problems.append(f"EXACT: {len(calls)} comparisons, expected {len(labels)}")
        elif any(call[0] != observed["exact"] for call in calls):
            problems.append("EXACT: reference image changed between comparisons")
        elif observed["exact"] != expected["exact"]:
            problems.append(f"EXACT: image {observed['exact']} != {expected['exact']}")
        failed = 1 if problems else 0
        for label in labels:
            got = observed["atfim"].get(label)
            want = expected["atfim"].get(label)
            issues = []
            if got is None:
                issues.append("render missing")
            else:
                if not math.isfinite(got[1]) or got[1] != row.get(label):
                    issues.append(f"PSNR {got[1]} not finite or not in the figure row")
                if got != want:
                    issues.append(f"(image, PSNR) {got} != {want}")
                if label in rounded and round(got[1], 1) != rounded[label]:
                    issues.append(f"PSNR {got[1]:.2f} != EXPERIMENTS.md {rounded[label]}")
            if issues:
                failed += 1
                problems += [f"A-TFIM {label}: {issue}" for issue in issues]
        if self.fragments is None:
            built = workload.build()
            trace = workload.make_renderer().trace_only(built.scene, built.camera).trace
            self.fragments = len(trace.requests)
        default = DEFAULT_THRESHOLD.label
        return Iteration(
            requests=self.fragments * (1 + len(labels)),
            attempted=1 + len(labels),
            failed=failed,
            outputs={"psnr_db": row.get(default, 0.0)},
            layers={**sim_layers({}), **runner_layers()},
            problems=problems,
        )


class SweepWorkload(_Workload):
    """Sampled design-space sweep: a cold pass, then a warm pass, per iteration.

    One point per (workload, design) stratum of the default sweep, each
    drawn by the sweep's own deterministic sampler: 6 points, 9 unique
    simulations at every seed.  The seed varies the memory backend, link
    scale and threshold of each point; a plain 8-point sample would also
    vary the number and kind of simulations (10 or 11, 2 to 6 A-TFIM),
    which moves the work per pass by about 11% across seeds.
    """

    name = "sweep"
    ops_per_iteration = 2 * len(FAST_WORKLOADS) * len(SweepDefinition.designs)

    def __init__(self, seed: int, reference: Optional[dict], work_dir: Path) -> None:
        super().__init__(seed, reference, work_dir)
        self.count = 0

    def generate(self) -> None:
        self.definition = SweepDefinition(
            name="design-space", workloads=tuple(FAST_WORKLOADS)
        )
        self.points = [
            point
            for workload in self.definition.workloads
            for design in self.definition.designs
            for point in dataclasses.replace(
                self.definition, workloads=(workload,), designs=(design,)
            ).sample(1, self.seed)
        ]

    def _pass(self, cache_root: Path):
        runner = ExperimentRunner(FAST_WORKLOADS, cache=DiskCache(root=cache_root))
        result = run_sweep(
            self.definition, self.points, runner=runner,
            jobs=SWEEP_JOBS, backend=SWEEP_BACKEND,
        )
        return runner, result

    def iterate(self, timer: Timer) -> Iteration:
        cache_root = self.work_dir / f"sweep-cache-{self.count}"
        self.count += 1
        try:
            with timer("run"):
                cold_runner, cold = self._pass(cache_root)
            cache = cold_runner.disk_cache
            entries, cache_bytes = cache.entries(), cache.total_bytes()
            with timer("warm"):
                warm_runner, warm = self._pass(cache_root)
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)
        requests = sum(
            run.frame.num_requests for run in cold_runner.completed_runs().values()
        )
        signatures = {
            "cold": {token: list(sig) for token, sig in cold.signatures().items()},
            "warm": {token: list(sig) for token, sig in warm.signatures().items()},
        }
        if self.first is None:
            self.first = signatures["cold"]
        expected = self.reference.get("outputs") or self.first
        problems: List[str] = []
        failed = 0
        for point in self.points:
            token = point.token
            cold_sig = signatures["cold"].get(token)
            for label in ("cold", "warm"):
                got = signatures[label].get(token)
                issues = []
                if got is None:
                    issues.append("missing from the results")
                elif got != cold_sig:
                    issues.append(f"signature {got} != cold pass {cold_sig}")
                elif got != expected.get(token):
                    issues.append(f"signature {got} != {expected.get(token)}")
                if issues:
                    failed += 1
                    problems += [f"{label} {token}: {issue}" for issue in issues]
        return Iteration(
            requests=requests,
            attempted=2 * len(self.points),
            failed=failed,
            outputs={},
            layers={
                **sim_layers({}),
                **runner_layers(
                    unique_runs=cold.unique_runs, entries=entries,
                    cache_bytes=cache_bytes,
                    reports=[cold_runner.fanout_report(), warm_runner.fanout_report()],
                ),
            },
            problems=problems,
        )


WORKLOADS = {cls.name: cls for cls in (FrameWorkload, QualityWorkload, SweepWorkload)}
