"""Declarative design-space sweeps over the fan-out scheduler.

A sweep is a Cartesian product over four axes -- angle threshold,
workload (which carries resolution), external-link bandwidth scale, and
memory backend (:mod:`repro.memory.registry`) -- optionally subsampled
to a fixed point budget, and executed as one batch through
:meth:`~repro.experiments.runner.ExperimentRunner.run_many` on either
executor backend (``serial`` or ``process-pool``, see
:data:`repro.faults.BACKEND_NAMES`).

Two properties make thousand-point sweeps cheap and comparable:

* **Canonicalization**: a :class:`SweepPoint` knows which axes its
  design actually reads (BASELINE ignores the PIM substrate entirely;
  only A-TFIM reads the angle threshold), so distinct points collapse
  onto shared :class:`~repro.experiments.runner.RunKey` simulations.
  A 1000-point sample typically needs far fewer unique frames.
* **Deterministic sampling**: subsets are chosen by ranking each
  point's token under :func:`repro.faults.plan.stable_fraction`, so a
  sample is a pure function of ``(definition, n, seed)`` -- identical
  across processes, hosts, and executor backends.

The headline product is the **A-TFIM crossover surface**: for each
(memory backend x link scale) cell, the smallest angle threshold at
which A-TFIM's mean frame speedup overtakes S-TFIM's, written as a
section of EXPERIMENTS.md (see :func:`surface_markdown`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.faults import RetryPolicy
from repro.faults.plan import stable_fraction

SWEEP_THRESHOLDS: Tuple[float, ...] = (
    0.0025,
    0.005,
    0.01,
    0.0157,
    0.0314159,
    0.0785,
    0.157,
    0.314159,
)
"""Default angle-threshold axis (radians): the paper's sweep points
(0.0005pi .. 0.1pi) plus midpoints, dense where Fig. 14 bends."""

SWEEP_LINK_SCALES: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
"""Default external-interface multipliers around each backend's nominal
link rate."""


@dataclass(frozen=True)
class SweepPoint:
    """One coordinate of the design space."""

    workload: str
    design: Design
    angle_threshold: float
    memory_backend: str = "hmc"
    link_bandwidth_scale: float = 1.0

    @property
    def token(self) -> str:
        """Stable identity used for sampling ranks and signatures."""
        return "|".join(
            (
                self.workload,
                self.design.name,
                repr(self.angle_threshold),
                self.memory_backend,
                repr(self.link_bandwidth_scale),
            )
        )

    def run_key(self) -> RunKey:
        """The canonical simulation this point's metrics come from.

        Axes a design never reads are collapsed to their defaults so
        the memo/disk caches deduplicate them: only A-TFIM compares
        against the angle threshold (``effective_angle_threshold`` is
        consulted nowhere else), and BASELINE runs on GDDR5, never
        touching the PIM substrate or its link scale.
        """
        threshold = self.angle_threshold
        backend = self.memory_backend
        link_scale = self.link_bandwidth_scale
        if self.design is not Design.A_TFIM:
            threshold = DEFAULT_THRESHOLD.effective_radians
        if self.design is Design.BASELINE:
            backend = "hmc"
            link_scale = 1.0
        return RunKey(
            workload=self.workload,
            design=self.design,
            angle_threshold=threshold,
            aniso_enabled=True,
            memory_backend=backend,
            link_bandwidth_scale=link_scale,
        )

    def baseline_key(self) -> RunKey:
        """The normalization run every speedup divides by."""
        return RunKey(
            workload=self.workload,
            design=Design.BASELINE,
            angle_threshold=DEFAULT_THRESHOLD.effective_radians,
            aniso_enabled=True,
        )


@dataclass(frozen=True)
class SweepDefinition:
    """A named Cartesian product over the sweep axes."""

    name: str
    workloads: Tuple[str, ...]
    designs: Tuple[Design, ...] = (Design.S_TFIM, Design.A_TFIM)
    thresholds: Tuple[float, ...] = SWEEP_THRESHOLDS
    memory_backends: Tuple[str, ...] = ("hmc", "hbm", "nearbank")
    link_scales: Tuple[float, ...] = SWEEP_LINK_SCALES
    seed: int = 0

    def __post_init__(self) -> None:
        for axis_name in ("workloads", "designs", "thresholds",
                          "memory_backends", "link_scales"):
            if not getattr(self, axis_name):
                raise ValueError(f"sweep axis {axis_name!r} is empty")

    @property
    def size(self) -> int:
        """Points in the full Cartesian product."""
        return (
            len(self.workloads) * len(self.designs) * len(self.thresholds)
            * len(self.memory_backends) * len(self.link_scales)
        )

    def points(self) -> List[SweepPoint]:
        """The full product, in deterministic axis-major order."""
        return [
            SweepPoint(workload, design, threshold, backend, link_scale)
            for workload, design, threshold, backend, link_scale
            in itertools.product(
                self.workloads, self.designs, self.thresholds,
                self.memory_backends, self.link_scales,
            )
        ]

    def sample(self, n: int, seed: Optional[int] = None) -> List[SweepPoint]:
        """A deterministic ``n``-point subset of the product.

        Every point is ranked by ``stable_fraction(seed, site, token)``
        and the ``n`` lowest-ranked survive, returned in product order.
        A pure function of ``(definition, n, seed)``: no RNG state, so
        serial and parallel sweeps agree on the subset by construction.
        """
        if n <= 0:
            raise ValueError("sample size must be positive")
        seed = self.seed if seed is None else seed
        universe = self.points()
        if n >= len(universe):
            return universe
        site = f"sweep:{self.name}"
        ranked = sorted(
            range(len(universe)),
            key=lambda i: (stable_fraction(seed, site, universe[i].token), i),
        )
        keep = set(ranked[:n])
        return [point for i, point in enumerate(universe) if i in keep]


def _signature(run) -> Tuple[float, float, float, int]:
    """The fields two runs must agree on to count as bit-identical
    (same contract as the ``chaos`` gate)."""
    return (
        run.frame_cycles,
        run.texture_cycles,
        run.external_texture_bytes,
        run.frame.num_requests,
    )


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point's measured outcome."""

    point: SweepPoint
    render_speedup: float
    texture_traffic_ratio: float
    signature: Tuple[float, float, float, int]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.point.workload,
            "design": self.point.design.name,
            "angle_threshold": self.point.angle_threshold,
            "memory_backend": self.point.memory_backend,
            "link_bandwidth_scale": self.point.link_bandwidth_scale,
            "render_speedup": self.render_speedup,
            "texture_traffic_ratio": self.texture_traffic_ratio,
            "signature": list(self.signature),
        }


@dataclass
class SweepResult:
    """Everything one :func:`run_sweep` call measured."""

    definition: SweepDefinition
    records: List[SweepRecord]
    executor_backend: Optional[str]
    unique_runs: int
    missing: List[SweepPoint] = field(default_factory=list)
    fanout: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        return len(self.records) + len(self.missing)

    def signatures(self) -> Dict[str, Tuple[float, float, float, int]]:
        """Token -> signature map for cross-backend identity checks."""
        return {
            record.point.token: record.signature for record in self.records
        }

    def surface(self) -> List[Dict[str, Any]]:
        """The A-TFIM crossover surface over (backend x link scale).

        One cell per (memory backend, link scale) pair that any A-TFIM
        point landed in.  Within a cell, speedups are averaged per
        threshold across workloads; the **crossover threshold** is the
        smallest threshold whose mean A-TFIM speedup reaches the cell's
        mean S-TFIM speedup (S-TFIM is threshold-independent).  ``None``
        means A-TFIM never catches up inside the sampled range.
        """
        cells: Dict[Tuple[str, float], Dict[str, Any]] = {}
        for record in self.records:
            point = record.point
            if point.design not in (Design.A_TFIM, Design.S_TFIM):
                continue
            cell = cells.setdefault(
                (point.memory_backend, point.link_bandwidth_scale),
                {"atfim": {}, "stfim": []},
            )
            if point.design is Design.A_TFIM:
                cell["atfim"].setdefault(point.angle_threshold, []).append(
                    record.render_speedup
                )
            else:
                cell["stfim"].append(record.render_speedup)
        surface = []
        for (backend, link_scale) in sorted(cells):
            cell = cells[(backend, link_scale)]
            by_threshold = {
                threshold: sum(values) / len(values)
                for threshold, values in sorted(cell["atfim"].items())
            }
            stfim_mean = (
                sum(cell["stfim"]) / len(cell["stfim"])
                if cell["stfim"] else None
            )
            target = stfim_mean if stfim_mean is not None else 1.0
            crossover = next(
                (
                    threshold
                    for threshold, speedup in by_threshold.items()
                    if speedup >= target
                ),
                None,
            )
            surface.append(
                {
                    "memory_backend": backend,
                    "link_bandwidth_scale": link_scale,
                    "atfim_speedup_by_threshold": by_threshold,
                    "stfim_mean_speedup": stfim_mean,
                    "crossover_threshold": crossover,
                    "points": (
                        sum(len(v) for v in cell["atfim"].values())
                        + len(cell["stfim"])
                    ),
                }
            )
        return surface

    def as_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.definition.name,
            "executor_backend": self.executor_backend,
            "points": self.num_points,
            "unique_runs": self.unique_runs,
            "missing": [point.token for point in self.missing],
            "records": [record.as_dict() for record in self.records],
            "surface": self.surface(),
            "fanout": self.fanout,
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True))
        return path


def run_sweep(
    definition: SweepDefinition,
    points: Optional[Sequence[SweepPoint]] = None,
    runner: Optional[ExperimentRunner] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    retry_policy: Optional[RetryPolicy] = None,
    task_timeout: Optional[float] = None,
) -> SweepResult:
    """Execute a sweep (or a sampled subset) as one fan-out batch.

    ``backend`` selects the executor backend for the underlying
    :meth:`~repro.experiments.runner.ExperimentRunner.run_many` call;
    the physics is deterministic, so every backend must produce the
    same :meth:`SweepResult.signatures` -- the CI sweep gate asserts
    exactly that.  Baseline normalization runs are scheduled
    automatically for every workload the points touch.
    """
    if points is None:
        points = definition.points()
    points = list(points)
    if not points:
        raise ValueError("nothing to sweep: no points")
    workloads: List[str] = []
    keys: List[RunKey] = []
    seen_keys = set()
    for point in points:
        if point.workload not in workloads:
            workloads.append(point.workload)
        for key in (point.baseline_key(), point.run_key()):
            if key not in seen_keys:
                seen_keys.add(key)
                keys.append(key)
    if runner is None:
        runner = ExperimentRunner(workloads, cache_dir=cache_dir)
    runs = runner.run_many(
        keys,
        jobs=jobs,
        retry_policy=retry_policy,
        task_timeout=task_timeout,
        backend=backend,
    )
    report = runner.fanout_report()
    records: List[SweepRecord] = []
    missing: List[SweepPoint] = []
    for point in points:
        run = runs.get(point.run_key())
        baseline = runs.get(point.baseline_key())
        if run is None or baseline is None:
            missing.append(point)
            continue
        base_texture = baseline.frame.traffic.external_texture
        records.append(
            SweepRecord(
                point=point,
                render_speedup=run.frame.speedup_over(baseline.frame),
                texture_traffic_ratio=(
                    run.frame.traffic.external_texture / base_texture
                    if base_texture > 0 else float("nan")
                ),
                signature=_signature(run),
            )
        )
    fanout = report.as_dict()
    fanout.pop("tasks", None)
    return SweepResult(
        definition=definition,
        records=records,
        executor_backend=report.backend,
        unique_runs=len(keys),
        missing=missing,
        fanout=fanout,
    )


SURFACE_HEADING = "## A-TFIM crossover surface"


def surface_markdown(result: SweepResult) -> str:
    """Render the crossover surface as an EXPERIMENTS.md section."""
    definition = result.definition
    lines = [
        SURFACE_HEADING,
        "",
        f"Sweep `{definition.name}`: {result.num_points} sampled points "
        f"({definition.size} in the full product) collapsing onto "
        f"{result.unique_runs} unique simulations, executed on the "
        f"`{result.executor_backend or 'in-process'}` executor backend.",
        "",
        "Axes: angle threshold x workload/resolution x external-link "
        "scale x memory backend (`hmc` = paper Table I; `hbm` = "
        "HBM2-class interposer stack with base-die PIM; `nearbank` = "
        "UPMEM-like near-bank module behind a DDR4-class channel).",
        "",
        "The crossover threshold is the smallest sampled angle "
        "threshold at which A-TFIM's mean frame speedup (over the "
        "GDDR5 baseline, averaged across sampled workloads) reaches "
        "S-TFIM's mean speedup in the same cell; `--` means A-TFIM "
        "never catches S-TFIM inside the sampled range.",
        "",
        "| memory backend | link scale | S-TFIM mean x | A-TFIM best x "
        "| crossover threshold (rad) |",
        "|---|---|---|---|---|",
    ]
    for cell in result.surface():
        speedups = cell["atfim_speedup_by_threshold"]
        stfim = cell["stfim_mean_speedup"]
        crossover = cell["crossover_threshold"]
        lines.append(
            "| {backend} | {link:g} | {stfim} | {best} | {cross} |".format(
                backend=cell["memory_backend"],
                link=cell["link_bandwidth_scale"],
                stfim="--" if stfim is None else f"{stfim:.2f}",
                best="--" if not speedups else f"{max(speedups.values()):.2f}",
                cross="--" if crossover is None else f"{crossover:g}",
            )
        )
    lines.append("")
    return "\n".join(lines)


def update_experiments_md(
    section: str, path: Union[str, Path] = "EXPERIMENTS.md"
) -> Path:
    """Replace (or append) the crossover-surface section in-place.

    The section spans from :data:`SURFACE_HEADING` to the next ``## ``
    heading (or EOF); everything else in the file is preserved byte
    for byte.
    """
    path = Path(path)
    section = section.rstrip("\n") + "\n"
    if not path.exists():
        path.write_text(section)
        return path
    text = path.read_text()
    start = text.find(SURFACE_HEADING)
    if start < 0:
        joiner = "" if text.endswith("\n\n") else ("\n" if text.endswith("\n") else "\n\n")
        path.write_text(text + joiner + section)
        return path
    end = text.find("\n## ", start + len(SURFACE_HEADING))
    tail = "" if end < 0 else text[end + 1:]
    path.write_text(text[:start] + section + tail)
    return path
