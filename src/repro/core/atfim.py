"""A-TFIM: anisotropic filtering in memory, reordered first (section V).

The advanced design splits texture filtering:

* the GPU texture units run only bilinear/trilinear, over *parent texels*
  (the 8 texels trilinear needs with anisotropic filtering disabled),
  which live in the ordinary L1/L2 texture caches tagged with the camera
  angle they were filtered under;
* on a parent-texel miss -- or a hit whose stored angle differs from the
  requesting pixel's by more than the threshold -- the Offloading Unit
  packs the missing parents into one offloading package (hash-table
  offset compression, section V-D) and ships it to the HMC;
* in the logic layer, the Texel Generator expands each parent into its
  probe-displaced *child texels*, the Child Texel Consolidation merges
  duplicate child fetches, the vaults serve them at internal bandwidth,
  and the Combination Unit averages children into approximated parent
  values, which return as one normal-format response package.

Structures and sizes follow Fig. 9 and section V-D: a 256-entry Parent
Texel Buffer gates in-flight parents; the Texel Generator and Combination
Unit are 16-wide ALU arrays.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpansionColumns
from repro.core.paths import (
    CacheHierarchy,
    CacheHierarchyStats,
    PathActivity,
    ReadMergeWindow,
    ReplayLoop,
    TexturePath,
    _line_payload_bytes,
    make_hmc,
    texture_unit_loop,
)
from repro.gpu.config import ATFIM_MEMORY_UNIT
from repro.gpu.texunit import TextureUnit
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.sim.resources import RequestQueue
from repro.texture.cache import CacheAccessResult
from repro.texture.lod import quantize_angle_batch
from repro.units import Cycles

PARENT_TEXEL_BUFFER_DEPTH = 256
"""Entries in the Parent Texel Buffer, equal to the memory request queue
size "to avoid data loss" (section V-D)."""


class AtfimPath(TexturePath):
    """The A-TFIM texture path."""

    def __init__(self, config: DesignConfig, traffic: TrafficMeter) -> None:
        super().__init__(config, traffic)
        if config.design is not Design.A_TFIM:
            raise ValueError(f"wrong path for design {config.design}")
        gpu = config.gpu
        self.hmc = make_hmc(config)
        self.units: List[TextureUnit] = [
            TextureUnit(f"tu.{cluster}", gpu.texture_unit)
            for cluster in range(gpu.num_clusters)
        ]
        self.caches = CacheHierarchy(config, traffic)
        # Logic-layer pipeline (one instance, 16-wide, shared by all
        # clusters -- Fig. 9 shows a single in-memory filtering pipeline).
        self.texel_generator = TextureUnit("hmc.texelgen", ATFIM_MEMORY_UNIT)
        self.combination_unit = TextureUnit("hmc.combine", ATFIM_MEMORY_UNIT)
        self.parent_buffer = RequestQueue(
            name="hmc.parentbuf",
            capacity=PARENT_TEXEL_BUFFER_DEPTH,
            drain_rate=float(ATFIM_MEMORY_UNIT.filter_alus),
        )
        # The Child Texel Consolidation buffer (256 entries, section V-D)
        # also merges identical child fetches *across* in-flight
        # offloading packages: recalculations of popular parent texels
        # re-request the same child lines within a short window.
        self.child_merge_window = ReadMergeWindow(capacity=PARENT_TEXEL_BUFFER_DEPTH)
        self.parent_reuses = 0
        self.parent_recalculations = 0
        self.parent_cold_misses = 0
        self.child_texels_generated = 0
        self.child_lines_fetched = 0
        self.offload_packages = 0

    def begin_replay(
        self,
        columns: ExpansionColumns,
        per_cluster: Sequence[Sequence[int]],
    ) -> ReplayLoop:
        """Two passes over the parents: classify every angle-tagged L1
        probe up front, then time the requests.

        Only anisotropic parents carry an angle tag; their requests'
        camera angles are quantised once (:func:`quantize_angle_batch`),
        isotropic ones probe untagged.  In the timed loop a parent that
        missed L1 (or hit it at a stale angle) probes the shared L2 --
        refreshing an L2 copy's angle tag as the scalar probe does --
        and the request's missing parents go to the HMC in one
        offloading package; a request whose parents all hit L1 goes
        straight to filtering.
        """
        caches = self.caches
        threshold = self.config.effective_angle_threshold
        parent_line = columns.parent_line
        parent_offsets = columns.parent_offsets
        num_children = columns.num_children
        tagged = num_children > 1
        owner = np.repeat(np.arange(len(columns)), np.diff(parent_offsets))
        angles = np.full(len(parent_line), np.nan)  # NaN: untagged
        angles[tagged] = quantize_angle_batch(columns.camera_angle[owner[tagged]])
        angle_col = angles.tolist()
        outcomes = caches.classify_l1(
            per_cluster, parent_offsets, parent_line, angle_col, threshold
        )
        l2_access = caches.l2.access
        l2_line_bytes = caches.l2.config.line_bytes
        l2_sets = caches.l2.config.num_sets
        home_col = parent_line.tolist()
        children_col = num_children.tolist()
        child_offsets = columns.child_offsets.tolist()
        child_lines = columns.child_lines
        hit = CacheAccessResult.HIT
        angle_miss = CacheAccessResult.ANGLE_MISS
        angle_missed = outcomes.angle_missed
        offload = self._offload
        reuses = recalculations = cold_misses = 0

        def fetch(cluster: int, arrival: Cycles, missed: List[int]) -> Cycles:
            nonlocal reuses, recalculations, cold_misses
            missing = []
            for parent in missed:
                angle = angle_col[parent]
                line = home_col[parent] // l2_line_bytes
                result = l2_access(
                    line % l2_sets, line // l2_sets,
                    None if angle != angle else angle, threshold,
                )
                # A stale angle at either level forces a recalculation.
                if result is angle_miss or parent in angle_missed:
                    recalculations += 1
                elif result is hit:
                    reuses += 1
                    continue
                else:
                    cold_misses += 1
                missing.append(parent)
            if not missing:
                return arrival
            return offload(
                arrival,
                home_col[missing[0]],
                [
                    child_lines[
                        child_offsets[parent]:child_offsets[parent + 1]
                    ].tolist()
                    for parent in missing
                ],
                sum(children_col[parent] for parent in missing),
            )

        def flush() -> None:
            # Every L1 hit is a reused parent.
            self.parent_reuses += outcomes.hits + reuses
            self.parent_recalculations += recalculations
            self.parent_cold_misses += cold_misses

        return texture_unit_loop(
            self.units, np.diff(parent_offsets), outcomes.nonhits,
            fetch, flush,
        )

    def _offload(
        self,
        arrival: float,
        home: int,
        children: Sequence[List[int]],
        total_children: int,
    ) -> float:
        """Round-trip one request's missing parents through the HMC
        pipeline.

        ``children`` holds each missing parent's child lines, ``home``
        the first missing parent's line (the package's base address),
        and ``total_children`` their child-texel count.
        """
        packets = self.config.packets
        self.offload_packages += 1

        # Offloading Unit: one compressed package for this fetch's
        # missing parents (they share the first parent's base address).
        request_bytes = packets.parent_texel_request_bytes
        self.traffic.add_external(TrafficClass.TEXTURE, float(request_bytes))
        delivered = self.hmc.send_request(arrival, home, request_bytes)

        # Parent Texel Buffer admission (backpressure when full).
        admitted = self.parent_buffer.enqueue(delivered)

        # Texel Generator: one address op per child texel.
        self.child_texels_generated += total_children
        generated = self.texel_generator.generate_addresses(admitted, total_children)

        # Child Texel Consolidation: dedup child lines across parents.
        if self.config.consolidation_enabled:
            lines: List[int] = []
            seen = set()
            for parent_children in children:
                for line in parent_children:
                    if line not in seen:
                        seen.add(line)
                        lines.append(line)
        else:
            lines = [line for parent_children in children for line in parent_children]
        # Vault fetches at internal bandwidth, merged against in-flight
        # identical child fetches.  The merge window IS the consolidation
        # buffer's cross-package face: disabling consolidation disables
        # both the intra-package dedup above and this merging.
        line_bytes = _line_payload_bytes(packets, self.config.texture_compression)
        data_ready = generated
        merging = self.config.consolidation_enabled
        for line in lines:
            merged_ready = (
                self.child_merge_window.lookup(line) if merging else None
            )
            if merged_ready is not None:
                ready = max(generated, merged_ready)
            else:
                ready = self.hmc.internal_read(generated, line, line_bytes)
                self.traffic.add_internal(TrafficClass.TEXTURE, float(line_bytes))
                if merging:
                    self.child_merge_window.insert(line, ready)
                self.child_lines_fetched += 1
            if ready > data_ready:
                data_ready = ready

        # Combination Unit: one filter op per child texel.
        combined = self.combination_unit.filter_texels(data_ready, total_children)

        # Response package back to the GPU, normal bilinear-fetch format.
        response_bytes = packets.parent_texel_response_bytes(len(children))
        self.traffic.add_external(TrafficClass.TEXTURE, float(response_bytes))
        return self.hmc.send_response(combined, home, response_bytes)

    def activity(self) -> PathActivity:
        activity = PathActivity()
        for unit in self.units:
            activity.gpu_texture.merge(unit.activity)
        activity.memory_texture.merge(self.texel_generator.activity)
        activity.memory_texture.merge(self.combination_unit.activity)
        stats = self.caches.stats()
        activity.l1_accesses = stats.l1_accesses
        activity.l2_accesses = stats.l1_misses + stats.l1_angle_misses
        activity.parent_recalculations = self.parent_recalculations
        activity.parent_reuses = self.parent_reuses
        activity.child_texels_generated = self.child_texels_generated
        activity.child_lines_fetched = self.child_lines_fetched
        return activity

    def cache_stats(self) -> CacheHierarchyStats:
        return self.caches.stats()

    def stat_group(self, name: str = "path") -> "StatGroup":
        group = super().stat_group(name)
        group.adopt(self.hmc.stat_group("memory"))
        stages = group.child("atfim_stages")
        stages.counter("parent_reuses").add(self.parent_reuses)
        stages.counter("parent_recalculations").add(self.parent_recalculations)
        stages.counter("parent_cold_misses").add(self.parent_cold_misses)
        stages.counter("child_texels_generated").add(self.child_texels_generated)
        stages.counter("child_lines_fetched").add(self.child_lines_fetched)
        stages.counter("offload_packages").add(self.offload_packages)
        stages.counter("recalculation_rate").add(self.recalculation_rate())
        return group

    def reset_for_measurement(self) -> None:
        for unit in self.units:
            unit.reset()
        self.caches.reset_for_measurement()
        self.texel_generator.reset()
        self.combination_unit.reset()
        self.parent_buffer.reset()
        self.child_merge_window.reset()
        self.hmc.reset()
        self.parent_reuses = 0
        self.parent_recalculations = 0
        self.parent_cold_misses = 0
        self.child_texels_generated = 0
        self.child_lines_fetched = 0
        self.offload_packages = 0

    def recalculation_rate(self) -> float:
        """Fraction of parent-texel accesses that were angle-forced
        recalculations (the quantity the threshold controls)."""
        total = self.parent_reuses + self.parent_recalculations + self.parent_cold_misses
        if total == 0:
            return 0.0
        return self.parent_recalculations / total
