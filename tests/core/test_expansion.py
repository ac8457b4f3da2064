"""Tests for request expansion -- its agreement with the functional
sampler, which ties the cycle model's texel counts to the renderer's, and
its bit-identity with the per-request scalar reference."""

import math

import numpy as np
import pytest

from repro.core.expansion import RequestExpander, expand_trace
from repro.experiments.runner import FAST_WORKLOADS
from repro.perf.oracles import expand_scalar
from repro.render.scene import Scene
from repro.texture.address import TexelAddressMap, TextureLayout
from repro.texture.lod import SampleFootprint, compute_footprint
from repro.texture.requests import TextureRequest
from repro.texture.sampling import TextureSampler
from repro.texture.texture import Texture
from repro.workloads import workload_by_name
from repro.workloads.textures import ProceduralTextureLibrary


@pytest.fixture(scope="module")
def scene():
    scene = Scene()
    library = ProceduralTextureLibrary()
    scene.add_texture(library.create("checker", 64, seed=1))
    # Narrower than a 4x4 tile at level 0: the tiled layout degenerates
    # to row-major for every level.
    scene.add_texture(Texture(texture_id=1, data=np.full((64, 2, 4), 0.5)))
    return scene


def make_request(u=20.0, v=20.0, probes=4, lod=1.5):
    minor = 2.0 ** lod
    footprint = compute_footprint(minor * probes, 0.0, 0.0, minor)
    return TextureRequest(
        pixel_x=0, pixel_y=0, texture_id=0, u=u, v=v,
        footprint=footprint, camera_angle=0.4,
    )


def expand_one(scene, request, aniso=True):
    expander = RequestExpander(scene)
    if aniso:
        return expander.expand([request])
    return expander.expand_isotropic([request])


def child_rows(columns):
    """Per-parent child line lists (parents of every request, in order)."""
    offsets = columns.child_offsets
    return [
        columns.child_lines[offsets[p]:offsets[p + 1]].tolist()
        for p in range(len(offsets) - 1)
    ]


class TestExpansion:
    def test_conventional_texel_count(self, scene):
        expanded = expand_one(scene, make_request(probes=4, lod=1.5))
        # 4 probes x (4 + 4) trilinear taps.
        assert expanded.texels.tolist() == [32]

    def test_parent_count_two_levels(self, scene):
        expanded = expand_one(scene, make_request(lod=1.5))
        assert np.diff(expanded.parent_offsets).tolist() == [8]

    def test_parent_count_single_level(self, scene):
        expanded = expand_one(scene, make_request(probes=1, lod=0.0))
        assert np.diff(expanded.parent_offsets).tolist() == [4]

    def test_children_per_parent_equal_probes(self, scene):
        expanded = expand_one(scene, make_request(probes=4))
        assert expanded.num_children.tolist() == [4] * 8
        assert int(expanded.num_children.sum()) == 32

    def test_unique_child_lines_deduplicated(self, scene):
        expanded = expand_one(scene, make_request(probes=8))
        rows = child_rows(expanded)
        for row, count in zip(rows, expanded.num_children.tolist()):
            assert len(row) == len(set(row)) <= count
        unique = {line for row in rows for line in row}
        assert len(unique) <= len(expanded.child_lines)

    def test_lines_are_aligned(self, scene):
        expanded = expand_one(scene, make_request())
        assert np.all(expanded.lines % 64 == 0)
        assert np.all(expanded.parent_line % 64 == 0)
        assert np.all(expanded.child_lines % 64 == 0)

    def test_matches_functional_sampler_lines(self, scene):
        """Cross-validation: the architectural expansion touches exactly
        the texels the functional sampler reads."""
        expander = RequestExpander(scene)
        chain = scene.mipmap_chain(0)
        sampler = TextureSampler(chain)
        for probes, lod, u, v in [(1, 0.0, 5.0, 5.0), (4, 1.5, 20.0, 11.0),
                                  (8, 2.3, 40.0, 33.0)]:
            request = make_request(u=u, v=v, probes=probes, lod=lod)
            expanded = expander.expand([request])
            result = sampler.sample(request.footprint, u, v, record=True)
            functional_lines = {
                expander.address_map.texel_line(chain, level, x, y)
                for level, x, y in result.texels
            }
            assert functional_lines == set(expanded.lines.tolist())

    def test_isotropic_expansion_collapses(self, scene):
        request = make_request(probes=8, lod=1.5)
        expanded = expand_one(scene, request, aniso=False)
        # Anisotropy disabled: only the 8 trilinear taps remain.
        assert expanded.texels.tolist() == [8]
        assert expanded.num_children.tolist() == [1] * 8
        assert expanded.child_lines.tolist() == expanded.parent_line.tolist()

    def test_isotropic_fewer_texels_than_full(self, scene):
        request = make_request(probes=8)
        full = expand_one(scene, request)
        isotropic = expand_one(scene, request, aniso=False)
        assert isotropic.texels[0] < full.texels[0]


def footprint(lod, probes, du=1.0, dv=0.0, length=None):
    if length is None:
        length = probes * 2.0 ** max(lod, 0.0)
    return SampleFootprint(
        lod=lod, anisotropy=float(probes), probes=probes,
        major_du=du, major_dv=dv, major_length=length,
    )


EDGE_CASES = {
    "lod-below-zero": (0, 5.0, 7.0, footprint(-0.7, 4)),
    "lod-zero": (0, 5.0, 7.0, footprint(0.0, 2)),
    "lod-integral": (0, 21.0, 13.0, footprint(2.0, 4, 0.6, 0.8)),
    "lod-at-max-level": (0, 21.0, 13.0, footprint(6.0, 4)),
    "lod-past-max-level": (0, 21.0, 13.0, footprint(9.5, 8)),
    "probes-1": (0, 30.5, 2.25, footprint(1.25, 1)),
    "probes-16": (0, 30.5, 2.25, footprint(1.25, 16, 0.28, 0.96)),
    "major-length-0": (0, 11.0, 40.0, footprint(1.5, 8, length=0.0)),
    "negative-coords": (0, -13.7, -0.2, footprint(0.5, 8, -0.6, 0.8)),
    "narrow-texture": (1, 1.3, 40.0, footprint(1.5, 4, 0.0, 1.0)),
    "narrow-texture-wide-probe": (1, -3.0, 9.0, footprint(0.4, 16)),
}


def edge_requests(cases):
    return [
        TextureRequest(
            pixel_x=0, pixel_y=0, texture_id=texture_id, u=u, v=v,
            footprint=fp, camera_angle=0.1 * index,
        )
        for index, (texture_id, u, v, fp) in enumerate(cases)
    ]


class TestScalarParity:
    """Columns == :func:`expand_scalar`, element for element."""

    @pytest.mark.parametrize("aniso", (True, False), ids=("aniso", "iso"))
    @pytest.mark.parametrize("name", FAST_WORKLOADS)
    def test_workload_parity(self, name, aniso):
        scene, trace = workload_by_name(name).trace()
        columns = expand_trace(scene, trace.requests, aniso)
        reference = expand_scalar(scene, trace.requests, TexelAddressMap(), aniso)
        assert columns.equals(reference)

    @pytest.mark.parametrize("layout", list(TextureLayout), ids=lambda l: l.value)
    @pytest.mark.parametrize("aniso", (True, False), ids=("aniso", "iso"))
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_case_parity(self, scene, case, aniso, layout):
        requests = edge_requests([EDGE_CASES[case]])
        address_map = TexelAddressMap(layout=layout)
        columns = expand_trace(scene, requests, aniso, address_map)
        reference = expand_scalar(scene, requests, address_map, aniso)
        assert columns.equals(reference)

    @pytest.mark.parametrize("aniso", (True, False), ids=("aniso", "iso"))
    def test_mixed_batch_parity(self, scene, aniso):
        """Every edge case in one trace: grouping by texture and probe
        count must restore request order."""
        requests = edge_requests(EDGE_CASES.values()) * 2
        address_map = TexelAddressMap(layout=TextureLayout.ROW_MAJOR)
        columns = expand_trace(scene, requests, aniso, address_map)
        assert columns.equals(
            expand_scalar(scene, requests, address_map, aniso)
        )

    def test_empty_trace(self, scene):
        columns = expand_trace(scene, [], True)
        assert len(columns) == 0
        assert columns.line_offsets.tolist() == [0]
        assert columns.child_offsets.tolist() == [0]
        assert columns.equals(expand_scalar(scene, [], TexelAddressMap(), True))

    def test_edge_cases_take_their_branches(self, scene):
        """The synthetic cases really hit the clamps they are named for."""
        chain = scene.mipmap_chain(0)
        cases = EDGE_CASES
        single = [cases[name] for name in (
            "lod-below-zero", "lod-zero", "lod-integral",
            "lod-at-max-level", "lod-past-max-level",
        )]
        columns = expand_trace(scene, edge_requests(single), True)
        assert np.diff(columns.parent_offsets).tolist() == [4] * len(single)
        assert chain.max_level == 6
        assert scene.textures[1].width < TexelAddressMap().tile_size
        _, u, v, _ = cases["negative-coords"]
        assert math.floor(u - 0.5) < 0 and math.floor(v - 0.5) < 0
