"""Bit-identity of the two-pass replay against the scalar oracle.

``GpuPipeline.replay_texture_stream`` serves one request per step
through the path's ``ReplayLoop.serve_one`` (after the cached designs
classify every L1 access up front), tracking each cluster's next-issue
time in a flat list instead of a heap; the heap loop
``repro.perf.oracles.replay_scalar``, serving each request through the
scalar per-lookup paths, is the oracle.  The contract is exact
equality -- not approximate -- across every observable the replay
produces: makespan, the latency histogram (total, count, max, buckets),
per-cluster fragment counts, external and internal memory traffic, unit
activity counters, L1/L2 cache statistics, and the path's whole
flattened ``StatGroup`` -- after a cold replay and after the warm-up ->
``reset_for_measurement`` -> measured protocol of ``simulate_frame``.
"""

import pytest

import repro.perf.oracles
import repro.texture.cache
import repro.texture.lod
from repro.core import Design, simulate_frame
from repro.core.angle import THRESHOLD_SWEEP
from repro.core.designs import DesignConfig
from repro.core.expansion import RequestExpander
from repro.core.frontend import make_texture_path
from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GpuPipeline
from repro.memory.traffic import TrafficMeter
from repro.perf.oracles import replay_scalar
from repro.render.renderer import Renderer
from repro.texture.cache import CacheConfig
from repro.texture.requests import FragmentTrace
from tests.conftest import make_tiny_scene

ALL_DESIGNS = (Design.BASELINE, Design.B_PIM, Design.S_TFIM, Design.A_TFIM)
DEPTHS = (1, 2, 64)


def small_gpu(depth):
    return GPUConfig(
        l1_cache=CacheConfig(size_bytes=1024, associativity=4),
        l2_cache=CacheConfig(size_bytes=4096, associativity=8),
        max_inflight_texture_requests=depth,
    )


@pytest.fixture(scope="module")
def frame():
    scene, camera = make_tiny_scene()
    renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
    trace = renderer.trace_only(scene, camera).trace
    expander = RequestExpander(scene)
    return {
        "scene": scene,
        "trace": trace,
        "aniso": expander.expand(trace.requests),
        "iso": expander.expand_isotropic(trace.requests),
    }


def observe(path, traffic, makespan, histogram, per_cluster):
    """Every replay observable, collapsed into one comparable dict."""
    activity = path.activity()
    caches = path.cache_stats()
    return {
        "makespan": makespan,
        "latency_total": float(histogram.total),
        "latency_count": histogram.count,
        "latency_max": float(histogram.max_latency),
        "buckets": tuple(histogram.buckets),
        "per_cluster": tuple(per_cluster),
        "external_bytes": float(traffic.external_total),
        "requests": (activity.gpu_texture.requests
                     + activity.memory_texture.requests),
        "address_ops": float(activity.gpu_texture.address_ops
                             + activity.memory_texture.address_ops),
        "filter_ops": float(activity.gpu_texture.filter_ops
                            + activity.memory_texture.filter_ops),
        "internal_bytes": float(traffic.internal_total),
        "l1_hits": caches.l1_hits,
        "l1_misses": caches.l1_misses,
        "l1_angle_misses": caches.l1_angle_misses,
        "l2_hits": caches.l2_hits,
        "l2_misses": caches.l2_misses,
        "stats": tuple(path.stat_group().flatten()),
    }


def make_path(design, depth, **overrides):
    gpu = small_gpu(depth)
    traffic = TrafficMeter()
    config = DesignConfig(design=design, gpu=gpu, **overrides)
    return make_texture_path(config, traffic), traffic, GpuPipeline(gpu)


def replay_once(pipeline, trace, expanded, path, batched):
    if batched:
        return pipeline.replay_texture_stream(trace, expanded, path)
    return replay_scalar(pipeline, trace, expanded, path)


def replay(design, depth, trace, expanded, batched):
    path, traffic, pipeline = make_path(design, depth)
    result = replay_once(pipeline, trace, expanded, path, batched)
    return observe(path, traffic, *result)


def warm_then_measure(design, depth, trace, expanded, batched, **overrides):
    """``simulate_frame``'s protocol: a warm-up replay, then counters and
    clocks reset with cache contents kept, then the measured replay."""
    path, traffic, pipeline = make_path(design, depth, **overrides)
    warm = observe(path, traffic, *replay_once(
        pipeline, trace, expanded, path, batched
    ))
    path.reset_for_measurement()
    traffic.reset()
    measured = observe(path, traffic, *replay_once(
        pipeline, trace, expanded, path, batched
    ))
    return warm, measured


def pick_expansions(design, frame):
    config = DesignConfig(design=design, gpu=small_gpu(4))
    return frame["aniso"] if config.aniso_enabled else frame["iso"]


class TestBitIdentity:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_batched_matches_scalar_oracle(self, frame, design, depth):
        expanded = pick_expansions(design, frame)
        scalar = replay(design, depth, frame["trace"], expanded, False)
        batched = replay(design, depth, frame["trace"], expanded, True)
        assert batched == scalar

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_isotropic_batched_matches_scalar_oracle(
        self, frame, design, depth
    ):
        expanded = frame["iso"]
        scalar = replay(design, depth, frame["trace"], expanded, False)
        batched = replay(design, depth, frame["trace"], expanded, True)
        assert batched == scalar


class TestDegenerateStreams:
    def empty_trace(self):
        return FragmentTrace(width=48, height=36, requests=[], tile_size=4)

    def empty_expansion(self, frame):
        return RequestExpander(frame["scene"]).expand([])

    @pytest.mark.parametrize("batched", (False, True))
    def test_empty_trace(self, frame, batched):
        result = replay(
            Design.BASELINE, 4, self.empty_trace(),
            self.empty_expansion(frame), batched,
        )
        assert result["latency_count"] == 0
        assert result["makespan"] == 0.0

    def test_empty_trace_modes_agree(self, frame):
        empty = self.empty_expansion(frame)
        scalar = replay(Design.BASELINE, 4, self.empty_trace(), empty, False)
        batched = replay(Design.BASELINE, 4, self.empty_trace(), empty, True)
        assert batched == scalar

    @pytest.mark.parametrize("count", (1, 3))
    def test_tiny_prefixes_agree(self, frame, count):
        trace = frame["trace"]
        prefix = FragmentTrace(
            width=trace.width, height=trace.height,
            requests=trace.requests[:count], tile_size=trace.tile_size,
        )
        expanded = RequestExpander(frame["scene"]).expand(prefix.requests)
        scalar = replay(Design.BASELINE, 1, prefix, expanded, False)
        batched = replay(Design.BASELINE, 1, prefix, expanded, True)
        assert batched == scalar
        assert batched["latency_count"] == count

    def test_depth_one_serialises_each_cluster(self, frame):
        """depth=1 gates every cluster on its previous completion."""
        expanded = pick_expansions(Design.BASELINE, frame)
        scalar = replay(Design.BASELINE, 1, frame["trace"], expanded, False)
        batched = replay(Design.BASELINE, 1, frame["trace"], expanded, True)
        assert batched == scalar


class TestWarmupProtocol:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_warm_then_measured_matches_scalar_oracle(
        self, frame, design, depth
    ):
        expanded = pick_expansions(design, frame)
        scalar = warm_then_measure(design, depth, frame["trace"], expanded, False)
        batched = warm_then_measure(design, depth, frame["trace"], expanded, True)
        assert batched == scalar

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.value)
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_isotropic_warm_then_measured_matches_scalar_oracle(
        self, frame, design, depth
    ):
        expanded = frame["iso"]
        scalar = warm_then_measure(design, depth, frame["trace"], expanded, False)
        batched = warm_then_measure(design, depth, frame["trace"], expanded, True)
        assert batched == scalar

    def test_shared_mtu_merge_windows_match_scalar_oracle(self, frame):
        """With ``mtu_share > 1`` one read-merge window serves several
        clusters, in timed order."""
        runs = [
            warm_then_measure(
                Design.S_TFIM, 4, frame["trace"], frame["aniso"], batched,
                mtu_share=4,
            )
            for batched in (False, True)
        ]
        assert runs[1] == runs[0]

    def test_strictest_threshold_recalculates_identically(self, frame):
        """Stale angle tags (L1 angle misses, refreshed L2 tags) replay
        identically at the strictest threshold of the sweep."""
        strictest = min(
            threshold.radians for threshold in THRESHOLD_SWEEP
            if threshold.radians is not None
        )
        runs = [
            warm_then_measure(
                Design.A_TFIM, 4, frame["trace"], frame["aniso"], batched,
                angle_threshold=strictest,
            )
            for batched in (False, True)
        ]
        assert runs[1] == runs[0]
        warm, measured = runs[1]
        assert warm["l1_angle_misses"] > 0
        assert measured["l1_angle_misses"] > 0


class TestSessionContract:
    def test_finish_flushes_counters(self, frame):
        """Counters observed before finish() must not include the session."""
        expanded = pick_expansions(Design.BASELINE, frame)
        gpu = small_gpu(4)
        traffic = TrafficMeter()
        path = make_texture_path(
            DesignConfig(design=Design.BASELINE, gpu=gpu), traffic
        )
        per_cluster, _ = GpuPipeline(gpu)._partition(frame["trace"])
        session = path.begin_replay(expanded, per_cluster)
        session.serve_one(0, 0.0, per_cluster[0][0])
        session.serve_one(1, 0.0, per_cluster[1][0])
        before = path.activity()
        requests_before = (before.gpu_texture.requests
                           + before.memory_texture.requests)
        session.finish()
        after = path.activity()
        requests_after = (after.gpu_texture.requests
                          + after.memory_texture.requests)
        assert requests_after == requests_before + 2


class TestProductionPath:
    def count_calls(self, monkeypatch, module, name, calls):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_atfim_frame_stays_off_the_scalar_oracle_path(
        self, frame, monkeypatch
    ):
        """A production A-TFIM frame quantises its angles in one batch
        and serves from columns: no per-lookup ``quantize_angle`` and no
        python-list rows.  The same counters fire on the oracle, so the
        zero below is not vacuous."""
        calls = {"quantize_angle": 0, "expansion_rows": 0}
        for module in (repro.texture.lod, repro.texture.cache):
            self.count_calls(monkeypatch, module, "quantize_angle", calls)
        self.count_calls(
            monkeypatch, repro.perf.oracles, "expansion_rows", calls
        )
        config = DesignConfig(design=Design.A_TFIM, gpu=small_gpu(4))
        simulate_frame(
            frame["scene"], frame["trace"], config,
            expansion=frame["aniso"],
        )
        assert calls == {"quantize_angle": 0, "expansion_rows": 0}

        path, _, pipeline = make_path(Design.A_TFIM, 4)
        replay_scalar(pipeline, frame["trace"], frame["aniso"], path)
        assert calls["quantize_angle"] > 0
        assert calls["expansion_rows"] == 1
