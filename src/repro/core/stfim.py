"""S-TFIM: all texture units moved into the HMC logic layer (section IV).

Every texture request becomes a live-texture package (4x a read request)
over the transmit link; the Memory Texture Unit (MTU) in the logic layer
fetches texels directly from the vaults (no texture caches anywhere --
the MTU "can directly access the entire DRAM dies as its local memory"),
filters, and ships the filtered sample back over the receive link.

The design's fatal flaw, which this model reproduces organically: the GPU
no longer caches texels, so *every* request's full texel set is re-read
from DRAM, and every request pays two link crossings of oversized
packages.  Backpressure from the bounded texture request queue (capacity
256, with the stall/resume protocol) appears as admission delay.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpansionColumns
from repro.core.paths import (
    PathActivity,
    ReadMergeWindow,
    ReplayLoop,
    TexturePath,
    _line_payload_bytes,
    make_hmc,
    texture_unit_loop,
)
from repro.gpu.config import MTU_TEXTURE_UNIT
from repro.gpu.texunit import TextureUnit
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.sim.resources import RequestQueue
from repro.units import Cycles

MTU_REQUEST_QUEUE_DEPTH = 256
"""Texture request queue entries per MTU (matches the parent texel
buffer sizing rationale of section V-D)."""

READ_MERGE_WINDOW_LINES = 64
"""Per-MTU read-merge window size: repeated reads of a line already in
the vault controller's request queue / the MTU's staging registers are
coalesced into one DRAM burst (see
:class:`repro.core.paths.ReadMergeWindow`)."""


class StfimPath(TexturePath):
    """The S-TFIM texture path."""

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        super().__init__(config, traffic)
        if config.design is not Design.S_TFIM:
            raise ValueError(f"wrong path for design {config.design}")
        self.hmc = make_hmc(config)
        num_mtus = config.gpu.num_clusters // config.mtu_share
        if num_mtus == 0:
            raise ValueError("MTU sharing leaves no MTUs")
        self.mtus: List[TextureUnit] = [
            TextureUnit(f"mtu.{index}", MTU_TEXTURE_UNIT) for index in range(num_mtus)
        ]
        self.queues: List[RequestQueue] = [
            RequestQueue(
                name=f"mtu.{index}.queue",
                capacity=MTU_REQUEST_QUEUE_DEPTH,
                drain_rate=1.0,
            )
            for index in range(num_mtus)
        ]
        self.merge_windows: List[ReadMergeWindow] = [
            ReadMergeWindow(READ_MERGE_WINDOW_LINES) for _ in range(num_mtus)
        ]

    def begin_replay(
        self,
        columns: ExpansionColumns,
        per_cluster: Sequence[Sequence[int]],
    ) -> ReplayLoop:
        """The timed loop over columns; S-TFIM has no L1 to classify.

        Per request: the MTU's bounded request queue and the
        live-texture package over the transmit link, then the MTU's
        stages (:func:`texture_unit_loop`, on MTU ``cluster //
        mtu_share``) with a vault read for every line its read-merge
        window does not merge, then the filtered sample back over the
        receive link.  The windows stay in this timed loop because with
        ``mtu_share > 1`` one window serves several clusters.
        """
        packets = self.config.packets
        send_request = self.hmc.send_request
        send_response = self.hmc.send_response
        internal_read = self.hmc.internal_read
        add_external = self.traffic.add_external
        add_internal = self.traffic.add_internal
        texture = TrafficClass.TEXTURE
        queues = self.queues
        windows = self.merge_windows
        mtu_share = self.config.mtu_share
        request_bytes = packets.texture_request_bytes
        response_bytes = packets.texture_response_bytes(samples=1)
        line_bytes = _line_payload_bytes(packets, self.config.texture_compression)
        offsets = columns.line_offsets.tolist()
        lines = columns.lines.tolist()

        def fetch(mtu: int, arrival: Cycles, accesses: range) -> Cycles:
            data_ready = arrival
            window = windows[mtu]
            for access in accesses:
                line = lines[access]
                merged_ready = window.lookup(line)
                if merged_ready is not None:
                    ready = max(arrival, merged_ready)
                else:
                    ready = internal_read(arrival, line, line_bytes)
                    add_internal(texture, float(line_bytes))
                    window.insert(line, ready)
                if ready > data_ready:
                    data_ready = ready
            return data_ready

        mtu_loop = texture_unit_loop(
            self.mtus, columns.texels,
            [
                range(first, last) if last > first else None
                for first, last in zip(offsets, offsets[1:])
            ],
            fetch, lambda: None,
        )
        serve_mtu = mtu_loop.serve_one

        def serve_one(cluster: int, issue: float, index: int) -> float:
            mtu = cluster // mtu_share
            admitted = queues[mtu].enqueue(issue)
            first = offsets[index]
            home = lines[first] if offsets[index + 1] > first else 0
            add_external(texture, float(request_bytes))
            delivered = send_request(admitted, home, request_bytes)
            filtered = serve_mtu(mtu, delivered, index)
            add_external(texture, float(response_bytes))
            return send_response(filtered, home, response_bytes)

        return ReplayLoop(serve_one, mtu_loop.finish)

    def activity(self) -> PathActivity:
        activity = PathActivity()
        for mtu in self.mtus:
            activity.memory_texture.merge(mtu.activity)
        return activity

    @property
    def total_stall_cycles(self) -> Cycles:
        return sum(queue.total_stall_cycles for queue in self.queues)

    def stat_group(self, name: str = "path") -> "StatGroup":
        group = super().stat_group(name)
        group.adopt(self.hmc.stat_group("memory"))
        stages = group.child("mtu_stages")
        stages.counter("queue_stall_cycles").add(self.total_stall_cycles)
        stages.counter("merged_line_reads").add(
            sum(window.merged for window in self.merge_windows)
        )
        return group

    def reset_for_measurement(self) -> None:
        for mtu in self.mtus:
            mtu.reset()
        for queue in self.queues:
            queue.reset()
        for window in self.merge_windows:
            window.reset()
        self.hmc.reset()
