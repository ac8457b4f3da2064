"""Shared machinery for the designs' texture paths.

A *texture path* answers one question for the pipeline model: given a
texture request issued by cluster ``c`` at cycle ``t``, when does the
filtered texture result arrive back at the shader, and what traffic and
unit activity did serving it cost?  The four designs differ exactly and
only in their texture paths.

A path serves a replay through the :class:`ReplayLoop` its
:meth:`TexturePath.begin_replay` opens.  The cached designs replay in
two passes: :meth:`CacheHierarchy.classify_l1` settles every per-cluster
L1 outcome before timing (timeless, since each L1 sees only its own
cluster's requests in trace order), then :func:`texture_unit_loop`
times the requests and touches the shared L2, its port and memory only
for L1 non-hits.  The scalar per-request paths these are parity-tested
against live in :mod:`repro.perf.oracles`.
"""

from __future__ import annotations

import abc
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Callable, List, NamedTuple, Optional, Sequence, Set, Union,
)

import numpy as np

from repro.core.designs import DesignConfig
from repro.core.expansion import ExpansionColumns
from repro.gpu.texunit import TextureUnit, TextureUnitActivity
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import HybridMemoryCube
from repro.memory.multicube import MultiCubeMemory
from repro.memory.packets import PacketSpec
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.sim.resources import BandwidthServer
from repro.texture.cache import TextureCache
from repro.units import Bytes, Cycles, Ops, Radians


def make_hmc(config: DesignConfig) -> Union[HybridMemoryCube, MultiCubeMemory]:
    """Instantiate the HMC side of a design: one cube or several.

    Returns an object with the single-cube interface (``send_request``,
    ``send_response``, ``external_read``, ``internal_read``, aggregate
    byte/read counters, ``reset``).
    """
    if config.num_cubes == 1:
        return HybridMemoryCube(config.hmc)
    return MultiCubeMemory(config.hmc, num_cubes=config.num_cubes)


class ReadMergeWindow:
    """LRU window of recently issued line fetches, for merge coalescing.

    Memory controllers merge a read that matches a request already in
    their queue into one DRAM burst; the logic-layer texture pipelines
    additionally hold recently fetched texel lines in staging registers
    (the paper's Child Texel Consolidation buffer performs exactly this
    merge for child texels, section V-D).  The window maps a line address
    to the ready-time of its in-flight/just-completed fetch; a hit reuses
    that fetch instead of re-occupying a DRAM bank.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lines: "OrderedDict[int, float]" = OrderedDict()
        self.merged = 0

    def lookup(self, line: int) -> Optional[float]:
        """Ready time of a mergeable fetch of ``line``, or None."""
        if line in self._lines:
            self._lines.move_to_end(line)
            self.merged += 1
            return self._lines[line]
        return None

    def insert(self, line: int, ready: float) -> None:
        self._lines[line] = ready
        self._lines.move_to_end(line)
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)

    def reset(self) -> None:
        self._lines.clear()
        self.merged = 0


class MemoryInterface(abc.ABC):
    """Uniform cache-line read interface over GDDR5 or HMC-external."""

    @abc.abstractmethod
    def read_line(self, arrival: Cycles, address: int) -> float:
        """Fetch one cache line; return the data-delivery cycle."""

    @abc.abstractmethod
    def line_traffic_bytes(self) -> Bytes:
        """External bytes one line fill costs (request + response)."""


def _line_payload_bytes(packets: PacketSpec, compressed: bool) -> int:
    """Payload bytes one texel-line fill moves (section VIII option)."""
    if not compressed:
        return packets.cache_line_bytes
    from repro.texture.compression import compressed_line_bytes

    return int(compressed_line_bytes(packets.cache_line_bytes))


class Gddr5Interface(MemoryInterface):
    """Baseline: cache-line reads over the GDDR5 bus."""

    def __init__(self, memory: Gddr5Memory, packets: PacketSpec,
                 traffic: TrafficMeter, compressed: bool = False) -> None:
        self.memory = memory
        self.packets = packets
        self.traffic = traffic
        self.payload_bytes = _line_payload_bytes(packets, compressed)

    def read_line(self, arrival: Cycles, address: int) -> float:
        ready = self.memory.read(arrival, address, self.payload_bytes)
        self.traffic.add_external(TrafficClass.TEXTURE, self.line_traffic_bytes())
        return ready

    def line_traffic_bytes(self) -> Bytes:
        return float(
            self.packets.read_request_bytes
            + self.payload_bytes
            + self.packets.header_bytes
        )


class HmcExternalInterface(MemoryInterface):
    """B-PIM (and A-TFIM's isotropic reads): line reads over the links."""

    def __init__(self, hmc: HybridMemoryCube, packets: PacketSpec,
                 traffic: TrafficMeter, compressed: bool = False) -> None:
        self.hmc = hmc
        self.packets = packets
        self.traffic = traffic
        self.payload_bytes = _line_payload_bytes(packets, compressed)

    def read_line(self, arrival: Cycles, address: int) -> float:
        ready = self.hmc.external_read(
            arrival,
            address,
            self.packets.read_request_bytes,
            self.payload_bytes + self.packets.header_bytes,
        )
        self.traffic.add_external(TrafficClass.TEXTURE, self.line_traffic_bytes())
        return ready

    def line_traffic_bytes(self) -> Bytes:
        return float(
            self.packets.read_request_bytes
            + self.payload_bytes
            + self.packets.header_bytes
        )


@dataclass
class CacheHierarchyStats:
    """Aggregated L1/L2 outcomes for one frame."""

    l1_hits: int = 0
    l1_misses: int = 0
    l1_angle_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0

    @property
    def l1_accesses(self) -> int:
        return self.l1_hits + self.l1_misses + self.l1_angle_misses

    @property
    def l1_hit_rate(self) -> float:
        if self.l1_accesses == 0:
            return 0.0
        return self.l1_hits / self.l1_accesses


class L1Outcomes(NamedTuple):
    """Pass 1 of a cached path's replay: every L1 access, classified.

    ``nonhits[i]`` lists request ``i``'s L1 non-hits in access order
    (indices into the flat column the pass walked), or is ``None`` when
    every access hit; ``angle_missed`` holds the non-hits that were
    angle misses, and ``hits`` counts the hits.
    """

    nonhits: List[Optional[List[int]]]
    angle_missed: Set[int]
    hits: int


class CacheHierarchy:
    """Per-cluster L1s over a shared L2, with an L2 port resource.

    Timing: an L1 hit is free (folded into the texture unit's pipeline
    depth); an L1 miss filled from L2 pays the L2 latency and occupies the
    L2 port for one line; an L2 miss goes to memory.
    """

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        gpu = config.gpu
        self.config = config
        self.l1 = [
            TextureCache(gpu.l1_cache, name=f"l1.{cluster}")
            for cluster in range(gpu.num_clusters)
        ]
        self.l2 = TextureCache(gpu.l2_cache, name="l2")
        self.l2_port = BandwidthServer(
            name="l2.port",
            # The L2 is banked: it can deliver several lines per cycle in
            # aggregate (4 here), matching the fill bandwidth a 16-cluster
            # GPU needs so the shared L2 is not an artificial bottleneck.
            bytes_per_cycle=4.0 * gpu.l2_cache.line_bytes,
            latency=gpu.l2_latency_cycles,
        )
        self.line_bytes = gpu.l1_cache.line_bytes

    def classify_l1(
        self,
        per_cluster: Sequence[Sequence[int]],
        offsets: np.ndarray,
        addresses: np.ndarray,
        angles: Optional[List[float]] = None,
        angle_threshold: Optional[Radians] = None,
    ) -> L1Outcomes:
        """Pass 1: run every L1 access of one replay, before any timing.

        Request ``i`` accesses ``addresses[offsets[i]:offsets[i + 1]]``,
        angle-tagged with the matching quantised ``angles`` (NaN, or no
        ``angles`` at all, for untagged accesses).  Each cluster's
        requests are walked in ``per_cluster`` order against that
        cluster's live L1, whose contents and counters change exactly
        as under :meth:`TextureCache.access`, inlined here: this is the
        replay's hottest loop.
        """
        # ``TextureCache._locate`` over the whole column: int64 floor
        # division and modulus agree with python ints on the
        # non-negative addresses an expansion produces.
        if bool(np.any(addresses < 0)):
            raise ValueError("negative address")
        config = self.config.gpu.l1_cache
        lines = addresses // config.line_bytes
        set_col = (lines % config.num_sets).tolist()
        tag_col = (lines // config.num_sets).tolist()
        angle_col = [math.nan] * len(set_col) if angles is None else angles
        offsets = offsets.tolist()
        nonhits: List[Optional[List[int]]] = [None] * (len(offsets) - 1)
        angle_missed: Set[int] = set()
        checked = angle_threshold is not None
        absent = object()
        total_hits = 0
        for cluster, requests in enumerate(per_cluster):
            cache = self.l1[cluster]
            sets = cache.sets
            associativity = cache.config.associativity
            hits = misses = angle_misses = 0
            for index in requests:
                missed = None
                for access in range(offsets[index], offsets[index + 1]):
                    cache_set = sets[set_col[access]]
                    tag = tag_col[access]
                    stored = cache_set.get(tag, absent)
                    angle = angle_col[access]
                    if stored is absent:
                        if len(cache_set) >= associativity:
                            cache_set.popitem(last=False)  # evict LRU
                        cache_set[tag] = None if angle != angle else angle
                        misses += 1
                    elif angle != angle or not checked or (
                        stored is not None
                        and not abs(stored - angle) > angle_threshold
                    ):
                        cache_set.move_to_end(tag)
                        hits += 1
                        continue
                    else:
                        cache_set[tag] = angle
                        cache_set.move_to_end(tag)
                        angle_misses += 1
                        angle_missed.add(access)
                    if missed is None:
                        missed = nonhits[index] = []
                    missed.append(access)
            cache.hits += hits
            cache.misses += misses
            cache.angle_misses += angle_misses
            total_hits += hits
        return L1Outcomes(nonhits, angle_missed, total_hits)

    def stats(self) -> CacheHierarchyStats:
        aggregated = CacheHierarchyStats()
        for cache in self.l1:
            aggregated.l1_hits += cache.hits
            aggregated.l1_misses += cache.misses
            aggregated.l1_angle_misses += cache.angle_misses
        aggregated.l2_hits = self.l2.hits
        aggregated.l2_misses = self.l2.misses + self.l2.angle_misses
        return aggregated

    def reset_for_measurement(self) -> None:
        """Zero counters and the L2 port clock; keep cache contents."""
        for cache in self.l1:
            cache.reset_counters()
        self.l2.reset_counters()
        self.l2_port.reset()


@dataclass
class PathActivity:
    """Energy-relevant activity of one texture path for one frame."""

    gpu_texture: TextureUnitActivity = field(default_factory=TextureUnitActivity)
    memory_texture: TextureUnitActivity = field(default_factory=TextureUnitActivity)
    l1_accesses: int = 0
    l2_accesses: int = 0
    parent_recalculations: int = 0
    parent_reuses: int = 0
    child_texels_generated: int = 0
    child_lines_fetched: int = 0


class ReplayLoop(NamedTuple):
    """One replay's serving closures, from :meth:`TexturePath.begin_replay`.

    The replay scheduler calls ``serve_one(cluster, issue, index)`` once
    per request, in the scalar heap's pop order (time ascending, ties by
    cluster ascending), and ``finish()`` once at drain time, before any
    counter is read.  Mutable state lives in closure cells between the
    two, so nothing of the replay's columns stays on the path.
    """

    serve_one: Callable[[int, float, int], float]
    finish: Callable[[], None]


Fetch = Callable[[int, float, Sequence[int]], float]
"""Serve one request's L1 non-hits: ``(unit, arrival, nonhits)`` to the
cycle its last line or parent is ready."""


def texture_unit_loop(
    units: Sequence[TextureUnit],
    texels: np.ndarray,
    nonhits: Sequence[Optional[Sequence[int]]],
    fetch: Fetch,
    flush: Callable[[], None],
) -> ReplayLoop:
    """The timed per-request loop every design's replay runs.

    Per request on unit ``u``: ``texels[i]`` ops through the unit's
    address stage, then -- only when the request has accesses left to
    serve (L1 non-hits; every line for S-TFIM) -- ``fetch`` for those,
    then the same ops through the filter stage.  A request whose
    accesses all hit goes straight to filtering (an L1 hit is ready at
    arrival).  The stage arithmetic is :meth:`ThroughputUnit.issue`'s,
    operation for operation, on closure cells: occupancies are the same
    IEEE-754 ``texels / ops_per_cycle`` divisions, and the float
    accumulators fold in service order, so ``finish`` writes back
    exactly what the per-request calls would have left, then runs
    ``flush`` for the fetch's state.
    """
    config = units[0].config
    texels_float = texels.astype(np.float64)
    texel_col = texels.tolist()
    addr_occ = (texels_float / float(config.address_alus)).tolist()
    filt_occ = (texels_float / float(config.filter_alus)).tolist()
    pipe_depth = config.pipeline_depth
    addr_next = [unit.address_stage._next_issue for unit in units]
    addr_busy = [unit.address_stage.busy_cycles for unit in units]
    filt_next = [unit.filter_stage._next_issue for unit in units]
    filt_busy = [unit.filter_stage.busy_cycles for unit in units]
    requests_delta = [0] * len(units)
    ops_delta = [0] * len(units)

    def serve_one(unit: int, issue: float, index: int) -> float:
        requests_delta[unit] += 1
        num_texels = texel_col[index]
        ops_delta[unit] += num_texels
        if num_texels:
            previous = addr_next[unit]
            start = issue if issue > previous else previous
            occupancy = addr_occ[index]
            done = start + occupancy
            addr_next[unit] = done
            addr_busy[unit] += occupancy
            data_ready = done + pipe_depth
        else:
            data_ready = issue
        missed = nonhits[index]
        if missed is not None:
            data_ready = fetch(unit, data_ready, missed)
        if num_texels:
            previous = filt_next[unit]
            start = data_ready if data_ready > previous else previous
            occupancy = filt_occ[index]
            done = start + occupancy
            filt_next[unit] = done
            filt_busy[unit] += occupancy
            return done + pipe_depth
        return data_ready

    def finish() -> None:
        for index, unit in enumerate(units):
            ops = ops_delta[index]
            activity = unit.activity
            activity.requests += requests_delta[index]
            activity.address_ops = Ops(activity.address_ops + ops)
            activity.filter_ops = Ops(activity.filter_ops + ops)
            for stage, next_issue, busy in (
                (unit.address_stage, addr_next, addr_busy),
                (unit.filter_stage, filt_next, filt_busy),
            ):
                stage._next_issue = Cycles(next_issue[index])
                stage.busy_cycles = Cycles(busy[index])
                stage.total_ops = Ops(stage.total_ops + ops)
        flush()

    return ReplayLoop(serve_one, finish)


class TexturePath(abc.ABC):
    """Interface every design's texture path implements."""

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        self.config = config
        self.traffic = traffic

    @abc.abstractmethod
    def begin_replay(
        self,
        columns: ExpansionColumns,
        per_cluster: Sequence[Sequence[int]],
    ) -> ReplayLoop:
        """Open the serving closures for one replay of ``columns``.

        ``per_cluster`` is the replay's cluster partition (request
        indices per cluster, in trace order), so a cached path can
        classify every L1 access up front (:meth:`CacheHierarchy.classify_l1`).
        Per-request columns (stage occupancies, cache set/tag address
        math) are whole-trace numpy expressions, and hot counters stay
        in closure cells until :attr:`ReplayLoop.finish`.  The scalar
        per-request ``serve`` each path is parity-tested against lives
        in :mod:`repro.perf.oracles`.
        """

    @abc.abstractmethod
    def activity(self) -> PathActivity:
        """Energy-relevant activity accumulated so far."""

    @abc.abstractmethod
    def reset_for_measurement(self) -> None:
        """Reset all timing state and counters, keeping cache contents.

        Called between the warm-up replay and the measured replay: the
        measured pass then sees steady-state caches (as a long-running
        game would) with fresh resource clocks and statistics.
        """

    def cache_stats(self) -> CacheHierarchyStats:
        """Cache outcomes (zeroed for cache-less paths like S-TFIM)."""
        return CacheHierarchyStats()

    def stat_group(self, name: str = "path") -> "StatGroup":
        """Snapshot of this path's filter-stage and cache counters.

        The base implementation covers what every design reports
        (texture-unit activity and the cache hierarchy); subclasses
        adopt their memory model's group (GDDR5 bus counters, HMC link
        and vault-service counters) and design-specific stages on top.
        Read at frame drain time by :mod:`repro.obs.snapshot` -- nothing
        here runs during request service.
        """
        from repro.sim.stats import StatGroup

        group = StatGroup(name)
        activity = self.activity()
        gpu = group.child("gpu_texture_units")
        gpu.counter("requests").add(activity.gpu_texture.requests)
        gpu.counter("address_ops").add(activity.gpu_texture.address_ops)
        gpu.counter("filter_ops").add(activity.gpu_texture.filter_ops)
        mtu = group.child("memory_texture_units")
        mtu.counter("requests").add(activity.memory_texture.requests)
        mtu.counter("address_ops").add(activity.memory_texture.address_ops)
        mtu.counter("filter_ops").add(activity.memory_texture.filter_ops)
        stats = self.cache_stats()
        caches = group.child("caches")
        caches.counter("l1_hits").add(stats.l1_hits)
        caches.counter("l1_misses").add(stats.l1_misses)
        caches.counter("l1_angle_misses").add(stats.l1_angle_misses)
        caches.counter("l2_hits").add(stats.l2_hits)
        caches.counter("l2_misses").add(stats.l2_misses)
        return group
