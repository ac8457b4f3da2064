"""Scalar reference implementations of the batched hot stages.

Every production stage has exactly one path; the per-element loops here
are what those paths are parity-tested against (``tests/gpu``,
``tests/texture``) and timed against (:mod:`repro.perf.bench`).  Nothing
in the simulator imports this module, and no constructor option selects
it.

* :func:`expand_scalar` -- per-request, per-texel address resolution,
  the reference for the columnar
  :class:`~repro.core.expansion.ExpansionColumns`;
* :func:`replay_scalar` -- the one-event-at-a-time heap scheduler that
  :meth:`GpuPipeline.replay_texture_stream` replays without a heap;
* :func:`rasterize_scalar` -- per-pixel fragment emission and
  per-fragment footprints, the reference for the SoA
  :class:`~repro.render.raster.FragmentBatch` stream;
* :func:`trace_only_scalar` / :func:`render_scalar` -- whole frames
  through the scalar rasterizer, with every fragment shaded one at a
  time by the scalar samplers of :mod:`repro.texture.sampling` and, for
  A-TFIM, a dict-backed angle-tagged parent store
  (:class:`_AngleTaggedParentStore`), the reference for
  :func:`~repro.texture.batch.atfim_batch`.

Each oracle borrows the production object's configuration and shared
setup (cluster partition, clipping and triangle scan, shading
functions), so the only code that differs is the code under test.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.expansion import ExpansionColumns
from repro.core.paths import TexturePath
from repro.gpu.pipeline import GpuPipeline
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import RasterFragment, Rasterizer, _TriangleScan
from repro.render.renderer import RenderOutput, Renderer, SamplingMode
from repro.render.scene import Scene
from repro.sim.latency import LatencyHistogram
from repro.texture.address import TexelAddressMap
from repro.texture.lod import (
    camera_angle_from_normal,
    compute_footprint,
    quantize_angle,
)
from repro.texture.mipmap import MipmapChain
from repro.texture.requests import FragmentTrace, TextureRequest
from repro.texture.sampling import (
    anisotropic_first_sample,
    anisotropic_sample,
    child_texel_coords,
    filter_parent_texel,
    level_blend_for,
    parent_texel_coords,
    probe_offsets,
    trilinear_sample,
)


def expand_scalar(
    scene: Scene,
    requests: Sequence[TextureRequest],
    address_map: TexelAddressMap,
    aniso: bool,
) -> ExpansionColumns:
    """Per-request reference for :class:`~repro.core.expansion.RequestExpander`.

    Resolves every texel through the scalar sampling helpers and
    :meth:`TexelAddressMap.texel_line`, one request at a time, and
    deduplicates lines with insertion-ordered dicts.
    """
    texels: List[int] = []
    lines: List[List[int]] = []
    parent_lines: List[List[int]] = []
    num_children: List[List[int]] = []
    child_lines: List[List[List[int]]] = []
    for request in requests:
        chain = scene.mipmap_chain(request.texture_id)
        footprint = request.footprint
        parents = parent_texel_coords(chain, footprint.lod, request.u, request.v)
        conventional: Dict[int, None] = {}
        request_parents: List[int] = []
        request_counts: List[int] = []
        request_children: List[List[int]] = []
        if aniso:
            blend = level_blend_for(chain, footprint.lod)
            levels = [blend.level_low]
            if not blend.is_single_level:
                levels.append(blend.level_high)
            taps_by_level: Dict[int, List[Tuple[int, int]]] = {}
            for level, x, y, _weight in parents:
                taps_by_level.setdefault(level, []).append((x, y))
            count = 0
            for level in levels:
                for dx, dy in probe_offsets(footprint, level):
                    for x, y in taps_by_level.get(level, []):
                        count += 1
                        line = address_map.texel_line(
                            chain, level, x + dx, y + dy
                        )
                        conventional.setdefault(line, None)
            for level, x, y, _weight in parents:
                children = child_texel_coords(footprint, level, x, y)
                unique: Dict[int, None] = {}
                for cx, cy in children:
                    unique.setdefault(
                        address_map.texel_line(chain, level, cx, cy), None
                    )
                request_parents.append(address_map.texel_line(chain, level, x, y))
                request_counts.append(len(children))
                request_children.append(list(unique))
        else:
            count = len(parents)
            for level, x, y, _weight in parents:
                line = address_map.texel_line(chain, level, x, y)
                conventional.setdefault(line, None)
                request_parents.append(line)
                request_counts.append(1)
                request_children.append([line])
        texels.append(count)
        lines.append(list(conventional))
        parent_lines.append(request_parents)
        num_children.append(request_counts)
        child_lines.append(request_children)
    flat_children = [group for groups in child_lines for group in groups]
    return ExpansionColumns(
        texels=np.asarray(texels, dtype=np.int64),
        camera_angle=np.asarray(
            [request.camera_angle for request in requests], dtype=np.float64
        ),
        line_offsets=_offsets(lines),
        lines=_flat(lines),
        parent_offsets=_offsets(parent_lines),
        parent_line=_flat(parent_lines),
        num_children=_flat(num_children),
        child_offsets=_offsets(flat_children),
        child_lines=_flat(flat_children),
    )


def _offsets(groups: Sequence[Sequence[int]]) -> np.ndarray:
    return np.cumsum([0] + [len(group) for group in groups], dtype=np.int64)


def _flat(groups: Sequence[Sequence[int]]) -> np.ndarray:
    return np.array(
        [item for group in groups for item in group], dtype=np.int64
    )


def replay_scalar(
    pipeline: GpuPipeline,
    trace: FragmentTrace,
    expansion: ExpansionColumns,
    path: TexturePath,
) -> Tuple[float, LatencyHistogram, List[int]]:
    """One-event-at-a-time heap replay: the scheduling oracle.

    Same contract and result as
    :meth:`~repro.gpu.pipeline.GpuPipeline.replay_texture_stream`,
    serving each request through the path's scalar
    :meth:`~repro.core.paths.TexturePath.serve` with rows built once
    for this replay.
    """
    rows = expansion.rows()
    config = pipeline.config
    histogram = LatencyHistogram("texture_latency")
    depth = config.max_inflight_texture_requests
    makespan = 0.0
    per_cluster, fragments_per_cluster = pipeline._partition(trace)

    # Event-ordered replay: always serve the cluster whose next
    # request issues earliest, so shared resources (L2 port, links,
    # memory channels) observe arrivals in simulated-time order.
    cluster_clock = [0.0] * config.num_clusters
    cursor = [0] * config.num_clusters
    inflight: List[List[float]] = [[] for _ in range(config.num_clusters)]

    def next_issue(cluster: int) -> float:
        issue = cluster_clock[cluster]
        window = inflight[cluster]
        if len(window) >= depth and window[-depth] > issue:
            issue = window[-depth]
        return issue

    heap: List[Tuple[float, int]] = []
    for cluster in range(config.num_clusters):
        if per_cluster[cluster]:
            heapq.heappush(heap, (next_issue(cluster), cluster))

    while heap:
        issue, cluster = heapq.heappop(heap)
        current = next_issue(cluster)
        if current > issue:
            # Window state changed since this entry was pushed.
            heapq.heappush(heap, (current, cluster))
            continue
        index = per_cluster[cluster][cursor[cluster]]
        cursor[cluster] += 1
        completion = path.serve(cluster, issue, rows, index)
        if completion < issue:
            raise RuntimeError("texture path completed before issue")
        histogram.observe(completion - issue)
        window = inflight[cluster]
        window.append(completion)
        if len(window) > depth:
            del window[0]
        cluster_clock[cluster] = issue + 1.0
        if completion > makespan:
            makespan = completion
        if cursor[cluster] < len(per_cluster[cluster]):
            heapq.heappush(heap, (next_issue(cluster), cluster))

    return makespan, histogram, fragments_per_cluster


def rasterize_scalar(
    rasterizer: Rasterizer,
    scene: Scene,
    camera: Camera,
    framebuffer: Framebuffer,
) -> List[Tuple[RasterFragment, TextureRequest]]:
    """Per-pixel reference for :meth:`Rasterizer.rasterize_scene`.

    Shares the clipping and triangle scan; emits, depth-tests and
    builds each request one fragment at a time.  Updates
    ``rasterizer.stats`` exactly as the batched path does.
    """
    results: List[Tuple[RasterFragment, TextureRequest]] = []
    for scans in rasterizer._scan_scene(scene, camera, framebuffer):
        fragments = [
            fragment
            for scan in scans
            for fragment in _emit_fragments_scalar(
                rasterizer, scan, camera, framebuffer
            )
        ]
        if fragments:
            rasterizer.stats.triangles_rasterized += 1
        results.extend(
            (fragment, _fragment_to_request(rasterizer, fragment))
            for fragment in fragments
        )
    return results


def _emit_fragments_scalar(
    rasterizer: Rasterizer,
    scan: _TriangleScan,
    camera: Camera,
    framebuffer: Framebuffer,
) -> List[RasterFragment]:
    """Reference per-pixel emission loop for ``Rasterizer._emit_fragments``."""
    (rows, cols, bary0, bary1, bary2, denom, attrs_over_w, grad_b,
     grad_denom_x, grad_denom_y, min_x, min_y, normal, texture_id) = scan
    stats = rasterizer.stats
    fragments: List[RasterFragment] = []
    camera_position = camera.position
    for row, col in zip(rows, cols):
        b = (bary0[row, col], bary1[row, col], bary2[row, col])
        d = denom[row, col]
        if d <= 0:
            continue
        w_value = 1.0 / d
        numerators = (
            b[0] * attrs_over_w[0] + b[1] * attrs_over_w[1] + b[2] * attrs_over_w[2]
        )
        attrs = numerators * w_value
        u, v = attrs[0], attrs[1]
        world = attrs[2:5]

        pixel_x = min_x + col
        pixel_y = min_y + row
        depth = w_value  # camera-space depth; smaller is closer
        stats.fragments_generated += 1
        if not framebuffer.depth_test(pixel_x, pixel_y, depth):
            stats.fragments_early_z_killed += 1
            continue
        framebuffer.depth[pixel_y, pixel_x] = depth

        # Analytic derivatives via the quotient rule.
        grad_num_x = (
            grad_b[0][0] * attrs_over_w[0]
            + grad_b[1][0] * attrs_over_w[1]
            + grad_b[2][0] * attrs_over_w[2]
        )
        grad_num_y = (
            grad_b[0][1] * attrs_over_w[0]
            + grad_b[1][1] * attrs_over_w[1]
            + grad_b[2][1] * attrs_over_w[2]
        )
        dudx = (grad_num_x[0] - u * grad_denom_x) * w_value
        dvdx = (grad_num_x[1] - v * grad_denom_x) * w_value
        dudy = (grad_num_y[0] - u * grad_denom_y) * w_value
        dvdy = (grad_num_y[1] - v * grad_denom_y) * w_value

        view = camera_position - world
        angle = camera_angle_from_normal(
            normal[0], normal[1], normal[2], view[0], view[1], view[2]
        )
        fragments.append(
            RasterFragment(
                x=pixel_x,
                y=pixel_y,
                depth=depth,
                u=u,
                v=v,
                dudx=dudx,
                dvdx=dvdx,
                dudy=dudy,
                dvdy=dvdy,
                camera_angle=angle,
                texture_id=texture_id,
            )
        )
    return fragments


def _fragment_to_request(
    rasterizer: Rasterizer, fragment: RasterFragment
) -> TextureRequest:
    """Per-fragment reference for ``Rasterizer.requests_from_batch``."""
    footprint = compute_footprint(
        fragment.dudx, fragment.dvdx, fragment.dudy, fragment.dvdy,
        max_anisotropy=rasterizer.max_anisotropy,
        lod_bias=rasterizer.lod_bias,
    )
    return TextureRequest(
        pixel_x=fragment.x,
        pixel_y=fragment.y,
        texture_id=fragment.texture_id,
        u=fragment.u,
        v=fragment.v,
        footprint=footprint,
        camera_angle=fragment.camera_angle,
        tile_x=fragment.x // rasterizer.tile_size,
        tile_y=fragment.y // rasterizer.tile_size,
    )


def trace_only_scalar(
    renderer: Renderer, scene: Scene, camera: Camera
) -> RenderOutput:
    """Reference for :meth:`Renderer.trace_only` via the scalar rasterizer."""
    framebuffer = Framebuffer(renderer.width, renderer.height)
    shaded = rasterize_scalar(renderer.rasterizer, scene, camera, framebuffer)
    requests = [request for _, request in shaded]
    return renderer._output(framebuffer, lambda: requests)


def render_scalar(
    renderer: Renderer,
    scene: Scene,
    camera: Camera,
    mode: SamplingMode = SamplingMode.EXACT,
    angle_threshold: float = 0.0,
) -> RenderOutput:
    """Reference for :meth:`Renderer.render`: scalar rasterizer, and every
    fragment shaded one at a time by :mod:`repro.texture.sampling`."""
    framebuffer = Framebuffer(renderer.width, renderer.height)
    shaded = rasterize_scalar(renderer.rasterizer, scene, camera, framebuffer)
    parent_store = None
    if mode is SamplingMode.ATFIM:
        parent_store = _AngleTaggedParentStore(threshold=angle_threshold)
    _shade_each(scene, shaded, mode, parent_store, framebuffer)
    requests = [request for _, request in shaded]
    counts = (0, 0)
    if parent_store is not None:
        counts = (parent_store.reuses, parent_store.recalculations)
    return renderer._output(framebuffer, lambda: requests, *counts)


class _AngleTaggedParentStore:
    """Functional model of A-TFIM's angle-tagged parent-texel reuse.

    Keys are parent texel identities ``(texture, level, x, y)``; values
    are the filtered parent value and the (quantised) camera angle it was
    filtered under.  A lookup whose angle differs by more than the
    threshold recalculates, exactly mirroring the architectural cache
    policy in :mod:`repro.texture.cache` -- but holding *values*, because
    the functional path needs the possibly-stale colors to measure their
    quality impact.
    """

    def __init__(self, threshold: float) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self._store: Dict[Tuple[int, int, int, int], Tuple[np.ndarray, float]] = {}
        self.reuses = 0
        self.recalculations = 0

    def lookup(
        self, key: Tuple[int, int, int, int], angle: float
    ) -> Optional[np.ndarray]:
        quantised = quantize_angle(angle)
        entry = self._store.get(key)
        if entry is None:
            return None
        value, stored_angle = entry
        if abs(stored_angle - quantised) <= self.threshold:
            self.reuses += 1
            return value
        return None

    def store(self, key: Tuple[int, int, int, int], angle: float,
              value: np.ndarray) -> None:
        quantised = quantize_angle(angle)
        self._store[key] = (value, quantised)
        self.recalculations += 1


def _shade_each(
    scene: Scene,
    shaded: List[Tuple[RasterFragment, TextureRequest]],
    mode: SamplingMode,
    parent_store: Optional[_AngleTaggedParentStore],
    framebuffer: Framebuffer,
) -> None:
    """Shade and write fragments one at a time, in submission order
    (the order A-TFIM's parent reuse depends on)."""
    for fragment, request in shaded:
        chain = scene.mipmap_chain(request.texture_id)
        color = _shade(chain, request, mode, parent_store)
        framebuffer.write(fragment.x, fragment.y, fragment.depth, color)


def _shade(
    chain: MipmapChain,
    request: TextureRequest,
    mode: SamplingMode,
    parent_store: Optional[_AngleTaggedParentStore],
) -> np.ndarray:
    """One fragment's color under ``mode``."""
    footprint = request.footprint
    if mode is SamplingMode.EXACT:
        return anisotropic_sample(chain, footprint, request.u, request.v)
    if mode is SamplingMode.REORDERED:
        return anisotropic_first_sample(chain, footprint, request.u, request.v)
    if mode is SamplingMode.ISOTROPIC:
        return trilinear_sample(chain, footprint.lod, request.u, request.v)
    if mode is SamplingMode.ATFIM:
        return _shade_atfim(chain, request, parent_store)
    raise ValueError(f"unknown sampling mode {mode}")


def _shade_atfim(
    chain: MipmapChain,
    request: TextureRequest,
    parent_store: _AngleTaggedParentStore,
) -> np.ndarray:
    """A-TFIM shading with angle-threshold parent reuse.

    For each parent texel: reuse the stored value when the angle
    matches within the threshold; otherwise recalculate it from its
    child texels under *this* request's footprint and store it.
    """
    footprint = request.footprint
    parents = parent_texel_coords(chain, footprint.lod, request.u, request.v)
    color = np.zeros(4, dtype=np.float64)
    for level, x, y, weight in parents:
        mip = chain.level(level)
        key = (request.texture_id, level, x % mip.width, y % mip.height)
        value = parent_store.lookup(key, request.camera_angle)
        if value is None:
            value = filter_parent_texel(chain, footprint, level, x, y)
            parent_store.store(key, request.camera_angle, value)
        color += weight * value
    return color
