"""Tests for shared path machinery: merge windows and cache hierarchy."""

import math

import numpy as np
import pytest

from repro.core.designs import Design, DesignConfig
from repro.core.paths import (
    CacheHierarchy,
    Gddr5Interface,
    HmcExternalInterface,
    ReadMergeWindow,
)
from repro.gpu.config import GPUConfig
from repro.memory.gddr5 import Gddr5Memory
from repro.memory.hmc import HybridMemoryCube
from repro.memory.packets import PacketSpec
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.perf.oracles import hierarchy_lookup, hierarchy_probe
from repro.texture.cache import CacheAccessResult, CacheConfig, TextureCache
from repro.texture.lod import quantize_angle_batch


class TestReadMergeWindow:
    def test_miss_then_merge(self):
        window = ReadMergeWindow(capacity=4)
        assert window.lookup(64) is None
        window.insert(64, ready=10.0)
        assert window.lookup(64) == 10.0
        assert window.merged == 1

    def test_lru_eviction(self):
        window = ReadMergeWindow(capacity=2)
        window.insert(0, 1.0)
        window.insert(64, 2.0)
        window.insert(128, 3.0)  # evicts 0
        assert window.lookup(0) is None
        assert window.lookup(64) == 2.0

    def test_lookup_refreshes_lru(self):
        window = ReadMergeWindow(capacity=2)
        window.insert(0, 1.0)
        window.insert(64, 2.0)
        window.lookup(0)
        window.insert(128, 3.0)  # evicts 64, not 0
        assert window.lookup(0) == 1.0
        assert window.lookup(64) is None

    def test_reset(self):
        window = ReadMergeWindow()
        window.insert(0, 1.0)
        window.lookup(0)
        window.reset()
        assert window.lookup(0) is None
        assert window.merged == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadMergeWindow(capacity=0)


class TestMemoryInterfaces:
    def test_gddr5_interface_accounts_traffic(self):
        traffic = TrafficMeter()
        interface = Gddr5Interface(Gddr5Memory(), PacketSpec(), traffic)
        interface.read_line(0.0, 0)
        assert traffic.external_texture == interface.line_traffic_bytes()
        assert interface.line_traffic_bytes() == 96.0

    def test_hmc_interface_accounts_traffic(self):
        traffic = TrafficMeter()
        interface = HmcExternalInterface(HybridMemoryCube(), PacketSpec(), traffic)
        interface.read_line(0.0, 0)
        assert traffic.external_texture == 96.0


class TestCacheHierarchy:
    def make(self):
        config = DesignConfig(design=Design.BASELINE)
        traffic = TrafficMeter()
        hierarchy = CacheHierarchy(config, traffic)
        memory = Gddr5Interface(Gddr5Memory(), PacketSpec(), traffic)
        return hierarchy, memory, traffic

    def test_miss_goes_to_memory_once(self):
        hierarchy, memory, traffic = self.make()
        hierarchy_lookup(hierarchy, 0, 0.0, 0, memory)
        first_bytes = traffic.external_texture
        hierarchy_lookup(hierarchy, 0, 0.0, 0, memory)
        assert traffic.external_texture == first_bytes  # L1 hit, no refetch

    def test_l2_serves_other_clusters(self):
        hierarchy, memory, traffic = self.make()
        hierarchy_lookup(hierarchy, 0, 0.0, 0, memory)     # cluster 0 fills L1+L2
        bytes_after_fill = traffic.external_texture
        hierarchy_lookup(hierarchy, 1, 0.0, 0, memory)     # cluster 1: L1 miss, L2 hit
        assert traffic.external_texture == bytes_after_fill
        stats = hierarchy.stats()
        assert stats.l2_hits >= 1

    def test_probe_classifies_without_timing(self):
        hierarchy, _, _ = self.make()
        assert hierarchy_probe(hierarchy, 0, 0) is CacheAccessResult.MISS
        assert hierarchy_probe(hierarchy, 0, 0) is CacheAccessResult.HIT

    def test_probe_angle_miss_forces_recalculation(self):
        hierarchy, _, _ = self.make()
        threshold = 0.01 * math.pi
        hierarchy_probe(hierarchy, 0, 0, angle=0.1, angle_threshold=threshold)
        result = hierarchy_probe(hierarchy, 0, 0, angle=1.0, angle_threshold=threshold)
        assert result is CacheAccessResult.ANGLE_MISS

    def test_reset_for_measurement_keeps_contents(self):
        hierarchy, memory, traffic = self.make()
        hierarchy_lookup(hierarchy, 0, 0.0, 0, memory)
        hierarchy.reset_for_measurement()
        stats_before = hierarchy.stats()
        assert stats_before.l1_accesses == 0
        # Contents survived: the next access hits.
        assert hierarchy_probe(hierarchy, 0, 0) is CacheAccessResult.HIT


class TestClassifyL1:
    """Pass 1 against one scalar ``TextureCache.lookup`` per access."""

    def run(self, seed, threshold):
        rng = np.random.default_rng(seed)
        config = DesignConfig(
            design=Design.A_TFIM,
            gpu=GPUConfig(
                l1_cache=CacheConfig(size_bytes=512, associativity=2),
                num_clusters=3,
            ),
        )
        hierarchy = CacheHierarchy(config, TrafficMeter())
        counts = rng.integers(0, 5, size=60)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        # A small line pool makes repeated tags and evictions.
        addresses = rng.integers(0, 12, size=int(offsets[-1])) * 64
        raw = rng.integers(0, 40, size=len(addresses)) * 0.01
        tagged = rng.random(len(addresses)) < 0.7
        angles = np.where(tagged, quantize_angle_batch(raw), np.nan).tolist()
        per_cluster = [
            [index for index in range(60) if index % 3 == cluster]
            for cluster in range(3)
        ]
        outcomes = hierarchy.classify_l1(
            per_cluster, offsets, addresses, angles, threshold
        )

        reference = [TextureCache(config.gpu.l1_cache) for _ in range(3)]
        nonhits = [None] * 60
        angle_missed = set()
        for cluster, requests in enumerate(per_cluster):
            for index in requests:
                for access in range(offsets[index], offsets[index + 1]):
                    angle = float(raw[access]) if tagged[access] else None
                    result = reference[cluster].lookup(
                        int(addresses[access]), angle,
                        threshold if tagged[access] else None,
                    )
                    if result is CacheAccessResult.HIT:
                        continue
                    nonhits[index] = (nonhits[index] or []) + [access]
                    if result is CacheAccessResult.ANGLE_MISS:
                        angle_missed.add(access)
        return hierarchy, reference, outcomes, nonhits, angle_missed

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("threshold", (0.0, 0.05, None))
    def test_matches_scalar_lookups(self, seed, threshold):
        hierarchy, reference, outcomes, nonhits, angle_missed = self.run(
            seed, threshold
        )
        assert outcomes.nonhits == nonhits
        assert outcomes.angle_missed == angle_missed
        for live, scalar in zip(hierarchy.l1, reference):
            assert (live.hits, live.misses, live.angle_misses) == (
                scalar.hits, scalar.misses, scalar.angle_misses
            )
            assert [list(entry.items()) for entry in live.sets] == [
                list(entry.items()) for entry in scalar.sets
            ]

    def test_strict_threshold_produces_angle_misses(self):
        # Without angle misses the parity case above would not exercise
        # the stale-angle branch at all.
        _, reference, _, _, angle_missed = self.run(0, 0.0)
        assert angle_missed
        assert sum(cache.angle_misses for cache in reference) > 0
