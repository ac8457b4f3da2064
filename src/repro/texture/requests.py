"""Trace record types exchanged between the renderer and cycle model.

The functional renderer walks the scene once and emits, per fragment, a
:class:`TextureRequest` describing everything the texture subsystem needs
to replay the lookup architecturally: the footprint (LOD, anisotropy,
probe axis), the camera angle, and which texture is addressed.  The
cycle model expands a frame's requests into cache-line columns
(:mod:`repro.core.expansion`) using the same sampling math as the
functional path, so functional and architectural texel counts agree by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.texture.lod import SampleFootprint


@dataclass(frozen=True)
class TextureRequest:
    """One fragment's texture lookup, as issued by a unified shader."""

    pixel_x: int
    pixel_y: int
    texture_id: int
    u: float
    v: float
    """Sample position in level-0 texel units."""
    footprint: SampleFootprint
    camera_angle: float
    """Angle between surface normal and view vector, radians."""
    tile_x: int = 0
    tile_y: int = 0
    """Rasterizer tile the fragment belongs to (drives cluster binding)."""

    def __post_init__(self) -> None:
        if self.texture_id < 0:
            raise ValueError("negative texture id")
        if self.camera_angle < 0:
            raise ValueError("negative camera angle")


@dataclass(frozen=True)
class TexelFetch:
    """One texel read issued while serving a request."""

    texture_id: int
    level: int
    x: int
    y: int
    address: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("negative mip level")
        if self.address < 0:
            raise ValueError("negative address")


@dataclass
class FragmentTrace:
    """The complete per-frame texture request stream plus frame stats."""

    width: int
    height: int
    requests: List[TextureRequest]
    tile_size: int = 16
    """The rasterizer tile size the requests' tile coordinates use."""

    @property
    def num_fragments(self) -> int:
        return len(self.requests)

    def requests_by_tile(self, tiles_x: int) -> List[Tuple[int, TextureRequest]]:
        """Pair each request with a flattened tile index.

        The GPU pipeline assigns fragment tiles round-robin to shader
        clusters; this helper produces the (tile, request) pairs that
        the assignment consumes.
        """
        paired = []
        for request in self.requests:
            tile_index = request.tile_y * tiles_x + request.tile_x
            paired.append((tile_index, request))
        return paired
