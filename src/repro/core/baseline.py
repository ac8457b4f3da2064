"""Baseline and B-PIM texture paths: full filtering on the host GPU.

The two designs share one path implementation; they differ only in the
memory system behind the texture caches (GDDR5 for the baseline, HMC
external links for B-PIM -- section III's drop-in replacement).  A
replay classifies every L1 line access up front and then times the
requests, fetching only L1 misses through the L2 and memory
(:meth:`GpuFilteringPath.begin_replay`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpansionColumns
from repro.core.paths import (
    CacheHierarchy,
    CacheHierarchyStats,
    Gddr5Interface,
    HmcExternalInterface,
    MemoryInterface,
    PathActivity,
    ReplayLoop,
    TexturePath,
    make_hmc,
    texture_unit_loop,
)
from repro.gpu.texunit import TextureUnit
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.traffic import TrafficMeter
from repro.texture.cache import CacheAccessResult
from repro.units import Bytes, Cycles


class GpuFilteringPath(TexturePath):
    """Texture filtering entirely on the GPU (baseline / B-PIM).

    Per request: the texture unit generates all conventional-order texel
    addresses, fetches each unique cache line through L1 -> L2 -> memory,
    and filters all texels once the last line arrives.
    """

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        super().__init__(config, traffic)
        if config.design not in (Design.BASELINE, Design.B_PIM):
            raise ValueError(f"wrong path for design {config.design}")
        gpu = config.gpu
        self.units: List[TextureUnit] = [
            TextureUnit(f"tu.{cluster}", gpu.texture_unit)
            for cluster in range(gpu.num_clusters)
        ]
        self.caches = CacheHierarchy(config, traffic)
        if config.design is Design.BASELINE:
            self.gddr5 = Gddr5Memory(config.gddr5)
            self.memory: MemoryInterface = Gddr5Interface(
                self.gddr5, config.packets, traffic,
                compressed=config.texture_compression,
            )
            self.hmc = None
        else:
            self.hmc = make_hmc(config)
            self.memory = HmcExternalInterface(
                self.hmc, config.packets, traffic,
                compressed=config.texture_compression,
            )
            self.gddr5 = None

    def begin_replay(
        self,
        columns: ExpansionColumns,
        per_cluster: Sequence[Sequence[int]],
    ) -> ReplayLoop:
        """Two passes: classify every L1 line access up front, then time
        the requests, fetching only L1 misses through L2 and memory.

        An L2 hit occupies the L2 port as :meth:`BandwidthServer.access`
        does, operation for operation, with the port's clock and
        counters in closure cells (float accumulators in service order)
        until the replay finishes; an L2 miss reads the line through
        the live memory interface.
        """
        caches = self.caches
        lines = columns.lines
        outcomes = caches.classify_l1(per_cluster, columns.line_offsets, lines)
        l2_access = caches.l2.access
        l2_line_bytes = caches.l2.config.line_bytes
        l2_sets = caches.l2.config.num_sets
        line_col = lines.tolist()
        read_line = self.memory.read_line
        hit = CacheAccessResult.HIT
        port = caches.l2_port
        port_next = port._next_free
        port_bytes = port.total_bytes
        port_requests = port.total_requests
        port_busy = port.busy_cycles
        line_bytes = caches.line_bytes
        port_occ = line_bytes / port.bytes_per_cycle
        port_latency = port.latency

        def fetch(cluster: int, arrival: Cycles, missed: List[int]) -> Cycles:
            nonlocal port_next, port_bytes, port_requests, port_busy
            data_ready = arrival
            for access in missed:
                address = line_col[access]
                line = address // l2_line_bytes
                if l2_access(line % l2_sets, line // l2_sets) is hit:
                    start = arrival if arrival > port_next else port_next
                    port_next = start + port_occ
                    port_bytes += line_bytes
                    port_requests += 1
                    port_busy += port_occ
                    ready = port_next + port_latency
                else:
                    ready = read_line(arrival, address)
                if ready > data_ready:
                    data_ready = ready
            return data_ready

        def flush() -> None:
            port._next_free = Cycles(port_next)
            port.total_bytes = Bytes(port_bytes)
            port.total_requests = port_requests
            port.busy_cycles = Cycles(port_busy)

        return texture_unit_loop(
            self.units, columns.texels, outcomes.nonhits, fetch, flush
        )

    def activity(self) -> PathActivity:
        activity = PathActivity()
        for unit in self.units:
            activity.gpu_texture.merge(unit.activity)
        stats = self.caches.stats()
        activity.l1_accesses = stats.l1_accesses
        activity.l2_accesses = stats.l1_misses + stats.l1_angle_misses
        return activity

    def cache_stats(self) -> CacheHierarchyStats:
        return self.caches.stats()

    def stat_group(self, name: str = "path") -> "StatGroup":
        group = super().stat_group(name)
        if self.gddr5 is not None:
            group.adopt(self.gddr5.stat_group("memory"))
        if self.hmc is not None:
            group.adopt(self.hmc.stat_group("memory"))
        return group

    def reset_for_measurement(self) -> None:
        for unit in self.units:
            unit.reset()
        self.caches.reset_for_measurement()
        if self.gddr5 is not None:
            self.gddr5.reset()
        if self.hmc is not None:
            self.hmc.reset()
