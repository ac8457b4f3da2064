"""Expanding a frame's texture requests into texel / parent / child lines.

The cycle model never touches texture *data*; it needs the cache lines
each request would fetch under each design:

* conventional order (baseline / B-PIM / S-TFIM): the probe-displaced
  bilinear taps of both mip levels -- ``probes x 8`` texels, minus
  hardware coalescing of duplicate lines;
* A-TFIM: the 8 *parent* texels (aniso disabled), and per parent its
  ``probes`` *child* texels -- the fixed-shape map the paper's Texel
  Generator performs in the logic layer (section V-A).

The whole trace is expanded at once into :class:`ExpansionColumns`:
flat numpy columns with CSR-style offset arrays, computed with the
parity-proven kernels of :mod:`repro.texture.batch`
(``level_blend_arrays``, ``probe_offset_arrays``) and integer address
math identical to
:meth:`~repro.texture.address.TexelAddressMap.texel_address`.  The
columns depend only on (scene, trace, address map, aniso flag), so one
expansion serves every design; the frontend and the experiment runner
compute it once and share it.  The per-request scalar expander it
replaced lives on as the bit-identity reference
:func:`repro.perf.oracles.expand_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.render.scene import Scene
from repro.texture.address import TexelAddressMap, TextureLayout
from repro.texture.mipmap import MipmapChain
from repro.texture.requests import TextureRequest

_TAP_DX = np.array([0, 1, 0, 1], dtype=np.int64)
_TAP_DY = np.array([0, 0, 1, 1], dtype=np.int64)
"""Bilinear tap order of :func:`~repro.texture.sampling.bilinear_taps`."""

BLOCK_REQUESTS = 2048
"""Requests expanded per block.  A block's texel grid is padded to its
widest probe count, so the block size bounds the transient memory
(about 2 MB per int64 grid array at 16 probes)."""

_COLUMN_NAMES = (
    "texels", "camera_angle", "line_offsets", "lines", "parent_offsets",
    "parent_line", "num_children", "child_offsets", "child_lines",
)


@dataclass(frozen=True, eq=False)
class ExpansionColumns:
    """Every line set of a frame's requests, as flat CSR columns.

    Request ``i`` owns ``lines[line_offsets[i]:line_offsets[i + 1]]``
    and parents ``parent_offsets[i]`` up to ``parent_offsets[i + 1]``;
    parent ``p`` owns ``child_lines[child_offsets[p]:child_offsets[p + 1]]``.
    Line lists are unique cache-line addresses in first-touch order (the
    coalescing a texture unit's address stage performs), per request for
    conventional lines and per parent for child lines.
    """

    texels: np.ndarray
    """Per request: conventional texel fetches before line coalescing."""
    camera_angle: np.ndarray
    """Per request: the fragment's camera angle (radians)."""
    line_offsets: np.ndarray
    lines: np.ndarray
    """Conventional-order cache lines, flat."""
    parent_offsets: np.ndarray
    parent_line: np.ndarray
    """Per parent: the cache line holding the parent texel."""
    num_children: np.ndarray
    """Per parent: child texels generated (``probes``; 1 when isotropic)."""
    child_offsets: np.ndarray
    child_lines: np.ndarray
    """Child cache lines, flat, deduplicated within each parent."""

    def __len__(self) -> int:
        return len(self.texels)

    def equals(self, other: "ExpansionColumns") -> bool:
        """Element-for-element equality of every column."""
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMN_NAMES
        )


def _first_touch(owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask keeping each value's first occurrence within its owner.

    lexsort is stable, so within one (owner, value) run of the sorted
    order the lowest index -- the first touch -- comes first.
    """
    order = np.lexsort((values, owner))
    sorted_owner = owner[order]
    sorted_values = values[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (sorted_owner[1:] != sorted_owner[:-1]) | (
        sorted_values[1:] != sorted_values[:-1]
    )
    keep = np.empty(len(order), dtype=bool)
    # order is a permutation: every index is written exactly once.
    keep[order] = first
    return keep


class RequestExpander:
    """Expands a frame's requests for one scene's texture set."""

    def __init__(
        self,
        scene: Scene,
        address_map: TexelAddressMap | None = None,
        line_bytes: int = 64,
    ) -> None:
        self.scene = scene
        self.address_map = address_map or TexelAddressMap()
        self.line_bytes = line_bytes
        self._chains: Dict[int, MipmapChain] = {}

    def _chain(self, texture_id: int) -> MipmapChain:
        if texture_id not in self._chains:
            self._chains[texture_id] = self.scene.mipmap_chain(texture_id)
        return self._chains[texture_id]

    def expand(self, requests: Sequence[TextureRequest]) -> ExpansionColumns:
        """Expand every request with anisotropic filtering enabled."""
        return self._expand(requests, aniso=True)

    def expand_isotropic(
        self, requests: Sequence[TextureRequest]
    ) -> ExpansionColumns:
        """Expansion with anisotropic filtering disabled (Fig. 4 study).

        The conventional texel set collapses to the parent texels (the
        trilinear taps); parents carry themselves as their only child.
        """
        return self._expand(requests, aniso=False)

    def _line_columns(
        self, texture_ids: np.ndarray, level: np.ndarray, x: np.ndarray,
        y: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`TexelAddressMap.texel_line`: the same integer
        math, with int64 floor division and modulus, over broadcastable
        (texture, level, x, y) columns."""
        amap = self.address_map
        textures = np.unique(texture_ids)
        chains = [self._chain(texture_id) for texture_id in textures.tolist()]
        depth = max((chain.num_levels for chain in chains), default=1)
        widths = np.ones((len(chains), depth), dtype=np.int64)
        heights = np.ones((len(chains), depth), dtype=np.int64)
        byte_offsets = np.zeros((len(chains), depth), dtype=np.int64)
        for row, chain in enumerate(chains):
            for mip in chain.levels:
                widths[row, mip.level] = mip.width
                heights[row, mip.level] = mip.height
                byte_offsets[row, mip.level] = mip.byte_offset
        regions = np.array(
            [amap.texture_region(chain.texture.texture_id) for chain in chains],
            dtype=np.int64,
        )
        row = np.searchsorted(textures, texture_ids)
        width = widths[row, level]
        x = np.mod(x, width)
        y = np.mod(y, heights[row, level])
        row_major = y * width + x
        if amap.layout is TextureLayout.ROW_MAJOR:
            linear = row_major
        else:
            tile = amap.tile_size
            tile_index = (y // tile) * (width // tile) + x // tile
            tiled = tile_index * (tile * tile) + (y % tile) * tile + x % tile
            linear = np.where(width < tile, row_major, tiled)
        address = (
            regions[row] + byte_offsets[row, level]
            + linear * amap.bytes_per_texel
        )
        return (address // self.line_bytes) * self.line_bytes

    def _expand(
        self, requests: Sequence[TextureRequest], aniso: bool
    ) -> ExpansionColumns:
        return _concatenate([
            self._expand_block(requests[start:start + BLOCK_REQUESTS], aniso)
            for start in range(0, max(len(requests), 1), BLOCK_REQUESTS)
        ])

    def _expand_block(
        self, requests: Sequence[TextureRequest], aniso: bool
    ) -> ExpansionColumns:
        # Imported here, as the renderer's batched sampler does, so that
        # importing the simulator does not pay for the batch sampler.
        from repro.texture.batch import (
            RequestBatch,
            level_blend_arrays,
            probe_offset_arrays,
        )

        count = len(requests)
        batch = RequestBatch.from_requests(requests)
        texture_ids = np.array(
            [request.texture_id for request in requests], dtype=np.int64
        )
        probes = batch.probes if aniso else np.ones(count, dtype=np.int64)

        # Per request and level slot (low, high): the mip level and the
        # bilinear base tap (x0, y0) of ``parent_texel_coords``; slot 1
        # is unused on single-level lookups.
        levels = np.zeros((count, 2), dtype=np.int64)
        base_x = np.zeros((count, 2), dtype=np.int64)
        base_y = np.zeros((count, 2), dtype=np.int64)
        two_level = np.zeros(count, dtype=bool)
        for texture_id in np.unique(texture_ids).tolist():
            sel = np.nonzero(texture_ids == texture_id)[0]
            low, high, weight = level_blend_arrays(
                self._chain(texture_id), batch.lod[sel]
            )
            two_level[sel] = ~((weight == 0.0) | (low == high))
            for slot, level in enumerate((low, high)):
                scale = np.ldexp(1.0, level)
                levels[sel, slot] = level
                base_x[sel, slot] = np.floor(batch.u[sel] / scale - 0.5)
                base_y[sel, slot] = np.floor(batch.v[sel] / scale - 0.5)

        # Probe displacements per (request, slot, probe), padded to the
        # widest probe count of the block.
        width = int(probes.max()) if count else 1
        dx = np.zeros((count, 2, width), dtype=np.int64)
        dy = np.zeros((count, 2, width), dtype=np.int64)
        for probe_count in np.unique(probes).tolist():
            sel = np.nonzero(probes == probe_count)[0]
            for slot in range(2):
                for index in range(probe_count):
                    dx[sel, slot, index], dy[sel, slot, index] = (
                        probe_offset_arrays(
                            levels[sel, slot], batch.major_du[sel],
                            batch.major_dv[sel], batch.major_length[sel],
                            probe_count, index,
                        )
                    )

        # Every texel as a (request, slot, probe, tap) grid: read in C
        # order it is the conventional fetch order; with probe and tap
        # swapped it lists each parent (slot, tap) with its children.
        tap_x = base_x[:, :, None] + _TAP_DX
        tap_y = base_y[:, :, None] + _TAP_DY
        parent_line = self._line_columns(
            texture_ids[:, None, None], levels[:, :, None], tap_x, tap_y
        )
        grid = self._line_columns(
            texture_ids[:, None, None, None], levels[:, :, None, None],
            tap_x[:, :, None, :] + dx[:, :, :, None],
            tap_y[:, :, None, :] + dy[:, :, :, None],
        )
        used = two_level[:, None] | (np.arange(2) == 0)
        valid = np.broadcast_to(
            used[:, :, None, None]
            & (np.arange(width) < probes[:, None])[:, None, :, None],
            grid.shape,
        )
        raw_lines = grid[valid]
        raw_children = grid.transpose(0, 1, 3, 2)[valid.transpose(0, 1, 3, 2)]

        # Coalesce duplicate lines, first touch first: per request for
        # conventional lines, per parent for children.
        slots = np.where(two_level, 2, 1)
        texels = slots * probes * 4
        parents_per_request = slots * 4
        child_counts = np.repeat(probes, parents_per_request)
        line_owner = np.repeat(np.arange(count), texels)
        keep_lines = _first_touch(line_owner, raw_lines)
        child_owner = np.repeat(np.arange(len(child_counts)), child_counts)
        keep_children = _first_touch(child_owner, raw_children)
        return ExpansionColumns(
            texels=texels,
            camera_angle=np.array(
                [request.camera_angle for request in requests],
                dtype=np.float64,
            ),
            line_offsets=_offsets(
                np.bincount(line_owner[keep_lines], minlength=count)
            ),
            lines=raw_lines[keep_lines],
            parent_offsets=_offsets(parents_per_request),
            parent_line=parent_line[
                np.broadcast_to(used[:, :, None], parent_line.shape)
            ],
            num_children=child_counts,
            child_offsets=_offsets(np.bincount(
                child_owner[keep_children], minlength=len(child_counts)
            )),
            child_lines=raw_children[keep_children],
        )


def _concatenate(blocks: Sequence[ExpansionColumns]) -> ExpansionColumns:
    """Join the columns of consecutive request blocks, in order."""
    if len(blocks) == 1:
        return blocks[0]

    def join(name: str) -> np.ndarray:
        parts = [getattr(block, name) for block in blocks]
        if name.endswith("_offsets"):
            return _offsets(np.concatenate([np.diff(part) for part in parts]))
        return np.concatenate(parts)

    return ExpansionColumns(**{name: join(name) for name in _COLUMN_NAMES})


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (length ``len(counts) + 1``) of per-owner counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    # Integer counts: exact in any summation order.
    np.cumsum(counts, out=offsets[1:])
    return offsets


def expand_trace(
    scene: Scene,
    requests: Sequence[TextureRequest],
    aniso_enabled: bool,
    address_map: Optional[TexelAddressMap] = None,
) -> ExpansionColumns:
    """One frame's expansion under a design's aniso setting."""
    expander = RequestExpander(scene, address_map)
    with obs.span("core.expand", requests=len(requests)):
        if aniso_enabled:
            return expander.expand(requests)
        return expander.expand_isotropic(requests)
