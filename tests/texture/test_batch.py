"""Bit-identity tests: batched kernels vs the scalar oracle.

Every comparison here is ``np.array_equal`` -- exact, every bit -- not
``allclose``: the batch kernels promise the same IEEE-754 operations in
the same order as the scalar reference, and these tests are that
promise's enforcement, over edge UVs, wrap-around coordinates, clamped
LODs, single-level mip chains, A-TFIM's reuse decisions, and whole
rendered frames in every sampling mode.
"""

import math

import numpy as np
import pytest

from repro.analysis.invariants import (
    InvariantError,
    check_atfim_parent_reuse,
    check_batch_scalar_parity,
)
from repro.core.angle import THRESHOLD_SWEEP
from repro.perf.oracles import (
    _AngleTaggedParentStore,
    _shade_atfim,
    render_scalar,
    trace_only_scalar,
)
from repro.render.camera import Camera
from repro.render.renderer import Renderer, SamplingMode
from repro.texture import batch as batch_module
from repro.texture.batch import (
    BatchFetchRecorder,
    BatchSampler,
    RequestBatch,
    anisotropic_batch,
    anisotropic_first_batch,
    atfim_batch,
    bilinear_batch,
    isotropic_batch,
    level_blend_arrays,
    parent_slot_arrays,
    probe_offset_arrays,
)
from repro.texture.lod import compute_footprint
from repro.texture.mipmap import build_mipmaps
from repro.texture.requests import TextureRequest
from repro.texture.sampling import (
    _FetchRecorder,
    anisotropic_first_sample,
    anisotropic_sample,
    bilinear_sample,
    level_blend_for,
    parent_texel_coords,
    probe_offsets,
    trilinear_sample,
)
from repro.texture.texture import Texture
from tests.conftest import make_tiny_scene


def make_chain(size=16, seed=5, texture_id=0):
    rng = np.random.default_rng(seed)
    data = rng.random((size, size, 4))
    return build_mipmaps(Texture(texture_id=texture_id, data=data))


def footprint(probes=4, lod=0.5, direction=(1.0, 0.0)):
    minor = 2.0 ** lod
    major = minor * probes
    du, dv = direction
    return compute_footprint(major * du, major * dv, -minor * dv, minor * du)


# Awkward sample positions for a 16x16 level-0 texture: corners, texel
# centres, exact wrap seams, beyond-width (wraps), and negative (wraps).
EDGE_UVS = [
    (0.0, 0.0),
    (0.5, 0.5),
    (15.5, 15.5),
    (16.0, 16.0),
    (17.3, 31.9),
    (-2.7, 5.1),
    (7.999999, 1e-06),
    (8.0, 8.0),
]

LODS = [0.0, 0.25, 1.0, 1.5, 2.0, 3.75, -1.0, 99.0]


class TestLevelBlendArrays:
    def test_matches_scalar_blend(self):
        chain = make_chain()
        low, high, weight = level_blend_arrays(chain, np.array(LODS))
        for i, lod in enumerate(LODS):
            blend = level_blend_for(chain, lod)
            assert low[i] == blend.level_low
            assert high[i] == blend.level_high
            assert weight[i] == blend.weight


class TestProbeOffsetArrays:
    @pytest.mark.parametrize("probes", [1, 2, 4, 8])
    def test_matches_scalar_offsets(self, probes):
        fp = footprint(probes=probes, lod=1.0, direction=(0.6, 0.8))
        for level in (0, 1, 2):
            scalar = probe_offsets(fp, level)
            levels = np.full(3, level, dtype=np.int64)
            for index in range(probes):
                dx, dy = probe_offset_arrays(
                    levels,
                    np.full(3, fp.major_du),
                    np.full(3, fp.major_dv),
                    np.full(3, fp.major_length),
                    probes,
                    index,
                )
                assert (dx == scalar[index][0]).all()
                assert (dy == scalar[index][1]).all()


class TestBilinearBatch:
    @pytest.mark.parametrize("level", [0, 1, 2, 4, 9])
    def test_bit_identical_over_edge_uvs(self, level):
        chain = make_chain()
        us = np.array([u for u, _ in EDGE_UVS])
        vs = np.array([v for _, v in EDGE_UVS])
        batch_colors = bilinear_batch(
            chain, np.full(len(us), level, dtype=np.int64), us, vs
        )
        scalar_colors = np.array(
            [bilinear_sample(chain, level, u, v) for u, v in EDGE_UVS]
        )
        assert np.array_equal(batch_colors, scalar_colors)

    def test_mixed_levels_one_call(self):
        chain = make_chain()
        levels = np.array([0, 1, 2, 3, 4, 0, 2, 1], dtype=np.int64)
        us = np.array([u for u, _ in EDGE_UVS])
        vs = np.array([v for _, v in EDGE_UVS])
        batch_colors = bilinear_batch(chain, levels, us, vs)
        scalar_colors = np.array(
            [
                bilinear_sample(chain, int(level), u, v)
                for level, (u, v) in zip(levels, EDGE_UVS)
            ]
        )
        assert np.array_equal(batch_colors, scalar_colors)


def _batch_of(footprints, uvs):
    return RequestBatch.from_footprints(
        footprints, [u for u, _ in uvs], [v for _, v in uvs]
    )


class TestTrilinearBatch:
    def test_bit_identical_over_lods_and_edge_uvs(self):
        chain = make_chain()
        cases = [(lod, uv) for lod in LODS for uv in EDGE_UVS]
        fps = [footprint(probes=1, lod=max(lod, 0.0)) for lod, _ in cases]
        # Force the exact LOD values (including negative/overflow).
        batch = _batch_of(fps, [uv for _, uv in cases])
        batch.lod[:] = [lod for lod, _ in cases]
        batch_colors = isotropic_batch(chain, batch)
        scalar_colors = np.array(
            [trilinear_sample(chain, lod, u, v) for lod, (u, v) in cases]
        )
        assert np.array_equal(batch_colors, scalar_colors)

    def test_single_level_chain(self):
        # A 1x1 texture has exactly one mip level: every LOD collapses
        # to a single-level blend and the high level must not exist.
        data = np.full((1, 1, 4), 0.625)
        chain = build_mipmaps(Texture(texture_id=0, data=data))
        assert chain.max_level == 0
        batch = _batch_of(
            [footprint(probes=1, lod=0.0)] * 3, [(0.0, 0.0), (0.5, 0.5), (3.2, -1.1)]
        )
        batch.lod[:] = [0.0, 0.75, 5.0]
        batch_colors = isotropic_batch(chain, batch)
        scalar_colors = np.array(
            [
                trilinear_sample(chain, lod, u, v)
                for lod, (u, v) in zip(
                    [0.0, 0.75, 5.0], [(0.0, 0.0), (0.5, 0.5), (3.2, -1.1)]
                )
            ]
        )
        assert np.array_equal(batch_colors, scalar_colors)


class TestAnisotropicBatch:
    def test_bit_identical_mixed_probe_counts(self):
        chain = make_chain(64)
        directions = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6)]
        fps, uvs = [], []
        for probes in (1, 2, 4, 8):
            for lod in (0.0, 0.5, 1.5, 2.0):
                for direction in directions:
                    fps.append(
                        footprint(probes=probes, lod=lod, direction=direction)
                    )
                    uvs.append(EDGE_UVS[len(fps) % len(EDGE_UVS)])
        batch = _batch_of(fps, uvs)
        batch_colors = anisotropic_batch(chain, batch)
        scalar_colors = np.array(
            [anisotropic_sample(chain, fp, u, v) for fp, (u, v) in zip(fps, uvs)]
        )
        assert np.array_equal(batch_colors, scalar_colors)

    def test_recorder_fetch_sets_match_scalar(self):
        chain = make_chain(64)
        fps = [
            footprint(probes=probes, lod=lod)
            for probes in (1, 2, 4)
            for lod in (0.25, 1.5)
        ]
        uvs = EDGE_UVS[: len(fps)]
        batch = _batch_of(fps, uvs)
        recorder = BatchFetchRecorder()
        anisotropic_batch(chain, batch, recorder=recorder)
        texels = recorder.request_texels()
        counts = recorder.request_counts()
        for index, (fp, (u, v)) in enumerate(zip(fps, uvs)):
            scalar_recorder = _FetchRecorder()
            anisotropic_sample(chain, fp, u, v, recorder=scalar_recorder)
            assert set(texels[index]) == set(scalar_recorder.texels)
            assert counts[index] == len(scalar_recorder.texels)


class TestBatchSampler:
    def test_verify_against_scalar_passes(self):
        chain = make_chain(64)
        fps = [footprint(probes=p, lod=l) for p in (1, 4) for l in (0.0, 1.25)]
        batch = _batch_of(fps, EDGE_UVS[: len(fps)])
        sampler = BatchSampler(chain)
        sampler.verify_against_scalar(batch)
        sampler.verify_against_scalar(batch, kind="isotropic")
        sampler.verify_against_scalar(batch, kind="reordered")

    def test_parity_check_rejects_divergence(self):
        color = np.array([0.1, 0.2, 0.3, 1.0])
        wrong = np.array([0.1, 0.2, 0.30000000000000004, 1.0])
        texels = frozenset({(0, 1, 1)})
        with pytest.raises(InvariantError):
            check_batch_scalar_parity([(0, color, wrong, texels, texels)])
        with pytest.raises(InvariantError):
            check_batch_scalar_parity(
                [(0, color, color, texels, frozenset({(0, 2, 2)}))]
            )
        check_batch_scalar_parity([(0, color, color, texels, texels)])


class TestVectorizedRaster:
    def test_fragments_identical_to_scalar_path(self):
        scene, camera = make_tiny_scene()
        scalar = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        vector = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        scalar_out = trace_only_scalar(scalar, scene, camera)
        vector_out = vector.trace_only(scene, camera)
        assert scalar_out.trace.requests == vector_out.trace.requests
        assert np.array_equal(
            scalar_out.framebuffer.depth, vector_out.framebuffer.depth
        )
        assert scalar_out.raster_stats == vector_out.raster_stats


def _mixed_batch(size=64):
    """Footprints over every probe count, several LODs and directions,
    at the awkward EDGE_UVS."""
    directions = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6)]
    fps, uvs = [], []
    for probes in (1, 2, 4, 8):
        for lod in (0.0, 0.5, 1.5, 2.0):
            for direction in directions:
                fps.append(footprint(probes=probes, lod=lod, direction=direction))
                uvs.append(EDGE_UVS[len(fps) % len(EDGE_UVS)])
    return fps, uvs


class TestParentSlotArrays:
    def test_matches_scalar_parent_coords(self):
        chain = make_chain(64)
        fps, uvs = _mixed_batch()
        batch = _batch_of(fps, uvs)
        batch.lod[:4] = [-1.0, 99.0, 3.0, 5.999]
        slots = parent_slot_arrays(chain, batch)
        rows = slots.rows()
        for index, (u, v) in enumerate(uvs):
            scalar = parent_texel_coords(chain, float(batch.lod[index]), u, v)
            mine = np.flatnonzero(rows == index)
            assert len(mine) == len(scalar)
            for entry, (level, x, y, weight) in zip(mine, scalar):
                assert slots.column("level")[entry] == level
                assert slots.column("x")[entry] == x
                assert slots.column("y")[entry] == y
                assert slots.column("weight")[entry] == weight


class TestAnisotropicFirstBatch:
    def test_bit_identical_to_scalar_reordered(self):
        chain = make_chain(64)
        fps, uvs = _mixed_batch()
        batch = _batch_of(fps, uvs)
        batch_colors = anisotropic_first_batch(chain, batch)
        scalar_colors = np.array(
            [
                anisotropic_first_sample(chain, fp, u, v)
                for fp, (u, v) in zip(fps, uvs)
            ]
        )
        assert np.array_equal(batch_colors, scalar_colors)

    def test_recorder_fetch_sets_match_scalar(self):
        chain = make_chain(64)
        fps, uvs = _mixed_batch()
        batch = _batch_of(fps, uvs)
        recorder = BatchFetchRecorder()
        anisotropic_first_batch(chain, batch, recorder=recorder)
        texels = recorder.request_texels()
        for index, (fp, (u, v)) in enumerate(zip(fps, uvs)):
            scalar_recorder = _FetchRecorder()
            anisotropic_first_sample(chain, fp, u, v, recorder=scalar_recorder)
            assert set(texels[index]) == set(scalar_recorder.texels)

    def test_empty_batch(self):
        chain = make_chain(16)
        batch = _batch_of([], [])
        assert anisotropic_first_batch(chain, batch).shape == (0, 4)


def _scalar_atfim(chain, fps, uvs, angles, threshold):
    """The oracle: every fragment through one angle-tagged store."""
    store = _AngleTaggedParentStore(threshold=threshold)
    colors = np.array(
        [
            _shade_atfim(
                chain,
                TextureRequest(
                    pixel_x=0, pixel_y=0, texture_id=0, u=u, v=v,
                    footprint=fp, camera_angle=angle,
                ),
                store,
            )
            for fp, (u, v), angle in zip(fps, uvs, angles)
        ]
    ).reshape(-1, 4)
    return colors, store.reuses, store.recalculations


def _assert_atfim_matches(chain, fps, uvs, angles, threshold):
    batch = _batch_of(fps, uvs)
    shade = atfim_batch(chain, batch, np.array(angles, dtype=np.float64), threshold)
    colors, reuses, recalculations = _scalar_atfim(
        chain, fps, uvs, angles, threshold
    )
    assert np.array_equal(shade.colors, colors)
    assert (shade.reuses, shade.recalculations) == (reuses, recalculations)
    BatchSampler(chain).verify_atfim(batch, shade)
    return shade


class TestAtfimBatch:
    @pytest.mark.parametrize("threshold", [0.0, 0.01, 0.05, 10.0])
    def test_bit_identical_to_scalar_store(self, threshold):
        chain = make_chain(64)
        fps, uvs = _mixed_batch()
        # Revisit every sample point under a spread of angles, so keys
        # repeat both within and across the threshold.
        fps, uvs = fps * 3, uvs * 3
        angles = np.random.default_rng(11).uniform(0.0, 1.6, len(fps))
        _assert_atfim_matches(chain, fps, uvs, list(angles), threshold)

    def test_one_fragment_two_taps_one_key(self):
        # A 1-wide texture: the x0 and x0+1 taps wrap to the same texel,
        # so one fragment's second slot reuses its own first slot.
        data = np.random.default_rng(2).random((8, 1, 4))
        chain = build_mipmaps(Texture(texture_id=0, data=data))
        fp = footprint(probes=2, lod=0.0, direction=(0.0, 1.0))
        shade = _assert_atfim_matches(chain, [fp], [(0.3, 2.7)], [0.4], 0.0)
        assert (shade.reuses, shade.recalculations) == (2, 2)

    def test_anchor_moves_when_angles_alternate(self):
        # One sample point visited with angles alternating across the
        # threshold: every crossing recalculates and moves the anchor,
        # so the later visits are compared against the new anchor.
        chain = make_chain(16)
        fp = footprint(probes=4, lod=0.0)
        angles = [0.10, 0.12, 0.50, 0.52, 0.10, 0.11, 0.50]
        shade = _assert_atfim_matches(
            chain, [fp] * len(angles), [(5.3, 6.1)] * len(angles), angles, 0.05
        )
        # Anchors at visits 0, 2, 4 and 6; visits 1, 3 and 5 reuse.
        assert shade.recalculations == 4 * 4
        assert shade.reuses == 3 * 4

    def test_empty_batch(self):
        chain = make_chain(16)
        shade = atfim_batch(chain, _batch_of([], []), np.empty(0), 0.05)
        assert shade.colors.shape == (0, 4)
        assert (shade.reuses, shade.recalculations) == (0, 0)

    def test_invalid_inputs_raise(self):
        chain = make_chain(16)
        batch = _batch_of([footprint()], [(1.0, 1.0)])
        with pytest.raises(ValueError):
            atfim_batch(chain, batch, np.array([0.1]), -0.01)
        with pytest.raises(ValueError):
            _AngleTaggedParentStore(threshold=-0.01)
        with pytest.raises(ValueError):
            atfim_batch(chain, batch, np.array([-0.1]), 0.05)
        with pytest.raises(ValueError):
            atfim_batch(chain, batch, np.array([math.nan]), 0.05)


class TestDrainTimeChecks:
    def test_reordered_divergence_is_caught(self, monkeypatch):
        chain = make_chain(64)
        fps, uvs = _mixed_batch()
        batch = _batch_of(fps, uvs)
        original = batch_module.anisotropic_first_batch

        def planted(*args, **kwargs):
            colors = original(*args, **kwargs)
            colors[len(colors) // 2, 1] += 1e-16
            return colors

        monkeypatch.setattr(batch_module, "anisotropic_first_batch", planted)
        with pytest.raises(InvariantError, match="batch-fetch-parity"):
            BatchSampler(chain).verify_against_scalar(
                batch, kind="reordered", sample_limit=len(batch)
            )

    def test_atfim_conservation_violation_is_caught(self):
        chain = make_chain(64)
        fps, uvs = _mixed_batch()
        batch = _batch_of(fps, uvs)
        angles = np.full(len(fps), 0.3)
        shade = atfim_batch(chain, batch, angles, 0.05)
        sampler = BatchSampler(chain)
        sampler.verify_atfim(batch, shade)
        shade.reuses += 1
        with pytest.raises(InvariantError, match="atfim-parent-reuse"):
            sampler.verify_atfim(batch, shade)

    def test_atfim_parent_value_divergence_is_caught(self):
        chain = make_chain(64)
        fps, uvs = _mixed_batch()
        batch = _batch_of(fps, uvs)
        shade = atfim_batch(chain, batch, np.full(len(fps), 0.3), 0.05)
        shade.values[0, 2] = np.nextafter(shade.values[0, 2], 2.0)
        with pytest.raises(InvariantError, match="recalculated parent 0"):
            BatchSampler(chain).verify_atfim(batch, shade)

    def test_check_atfim_parent_reuse_direct(self):
        value = np.array([0.1, 0.2, 0.3, 1.0])
        check_atfim_parent_reuse(3, 5, 8, [(0, value, value.copy())])
        with pytest.raises(InvariantError):
            check_atfim_parent_reuse(3, 4, 8, [])
        violations = check_atfim_parent_reuse(
            3, 5, 8, [(0, value, np.nextafter(value, 2.0))],
            raise_on_violation=False,
        )
        assert len(violations) == 1

    def test_planted_divergence_fails_an_atfim_render(self, monkeypatch):
        original = batch_module.parent_average_batch

        def planted(*args, **kwargs):
            values = original(*args, **kwargs)
            values[::7] *= 1.0 + 1e-15
            return values

        monkeypatch.setattr(batch_module, "parent_average_batch", planted)
        scene, camera = make_tiny_scene()
        renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        with pytest.raises(InvariantError, match="atfim-parent-reuse"):
            renderer.render(
                scene, camera, SamplingMode.ATFIM, angle_threshold=0.05
            )


ATFIM_THRESHOLDS = [0.0, 0.05, 10.0] + [
    threshold.effective_radians for threshold in THRESHOLD_SWEEP
]


def _assert_frames_equal(batched, scalar):
    assert np.array_equal(batched.image, scalar.image)
    assert (batched.parent_reuses, batched.parent_recalculations) == (
        scalar.parent_reuses, scalar.parent_recalculations
    )
    assert np.array_equal(batched.framebuffer.depth, scalar.framebuffer.depth)


class TestBatchedRenderer:
    @pytest.mark.parametrize(
        "mode",
        [SamplingMode.EXACT, SamplingMode.ISOTROPIC, SamplingMode.REORDERED],
    )
    def test_frame_identical_to_scalar_shading(self, mode):
        scene, camera = make_tiny_scene()
        batched = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        scalar = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        _assert_frames_equal(
            batched.render(scene, camera, mode),
            render_scalar(scalar, scene, camera, mode),
        )

    @pytest.mark.parametrize("threshold", ATFIM_THRESHOLDS)
    def test_atfim_frame_identical_to_scalar_store(self, threshold):
        scene, camera = make_tiny_scene()
        renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        batched = renderer.render(
            scene, camera, SamplingMode.ATFIM, angle_threshold=threshold
        )
        scalar = render_scalar(
            renderer, scene, camera, SamplingMode.ATFIM,
            angle_threshold=threshold,
        )
        _assert_frames_equal(batched, scalar)
        assert batched.parent_reuses + batched.parent_recalculations > 0

    @pytest.mark.parametrize("mode", list(SamplingMode))
    def test_frame_without_fragments(self, mode):
        scene, _ = make_tiny_scene()
        away = Camera(
            position=np.array([0.0, 1.5, 4.0]),
            target=np.array([0.0, 1.5, 40.0]),
            fov_y=math.radians(65.0),
        )
        renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        batched = renderer.render(scene, away, mode, angle_threshold=0.05)
        scalar = render_scalar(renderer, scene, away, mode, angle_threshold=0.05)
        _assert_frames_equal(batched, scalar)
        assert batched.trace.num_fragments == 0
        assert not batched.image.any()

    def test_negative_threshold_raises(self):
        scene, camera = make_tiny_scene()
        renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        with pytest.raises(ValueError):
            renderer.render(
                scene, camera, SamplingMode.ATFIM, angle_threshold=-0.01
            )
        with pytest.raises(ValueError):
            render_scalar(
                renderer, scene, camera, SamplingMode.ATFIM,
                angle_threshold=-0.01,
            )

    def test_trace_built_on_read_equals_trace_only(self):
        scene, camera = make_tiny_scene()
        renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        rendered = renderer.render(scene, camera, SamplingMode.ATFIM, 0.05)
        assert "trace" not in vars(rendered)
        traced = renderer.trace_only(scene, camera)
        assert rendered.trace.requests == traced.trace.requests
        assert rendered.trace.tile_size == traced.trace.tile_size
        assert rendered.trace is rendered.trace
