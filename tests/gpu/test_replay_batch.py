"""Bit-identity of the batched replay scheduler against the scalar oracle.

``GpuPipeline.replay_texture_stream`` serves one request per step
through ``ReplaySession.serve_one``, tracking each cluster's next-issue
time in a flat list instead of a heap; the heap loop
``repro.perf.oracles.replay_scalar`` is the oracle.  The
contract is exact equality -- not approximate -- across every observable
the replay produces: makespan, the latency histogram (total, count, max,
buckets), per-cluster fragment counts, external memory traffic, unit
activity counters, and L1/L2 cache statistics.
"""

import pytest

from repro.core import Design
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
        "l1_hits": caches.l1_hits,
        "l1_misses": caches.l1_misses,
        "l2_hits": caches.l2_hits,
        "l2_misses": caches.l2_misses,
    }


def replay(design, depth, trace, expanded, batched):
    gpu = small_gpu(depth)
    traffic = TrafficMeter()
    path = make_texture_path(DesignConfig(design=design, gpu=gpu), traffic)
    pipeline = GpuPipeline(gpu)
    if batched:
        result = pipeline.replay_texture_stream(trace, expanded, path)
    else:
        result = replay_scalar(pipeline, trace, expanded, path)
    return observe(path, traffic, *result)


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


class TestSessionContract:
    def test_finish_flushes_counters(self, frame):
        """Counters observed before finish() must not include the session."""
        expanded = pick_expansions(Design.BASELINE, frame)
        gpu = small_gpu(4)
        traffic = TrafficMeter()
        path = make_texture_path(
            DesignConfig(design=Design.BASELINE, gpu=gpu), traffic
        )
        session = path.begin_replay(expanded)
        session.serve_one(0, 0.0, 0)
        session.serve_one(1, 0.0, 1)
        before = path.activity()
        requests_before = (before.gpu_texture.requests
                           + before.memory_texture.requests)
        session.finish()
        after = path.activity()
        requests_after = (after.gpu_texture.requests
                          + after.memory_texture.requests)
        assert requests_after == requests_before + 2
