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
  :meth:`GpuPipeline.replay_texture_stream` replays without a heap,
  serving every request through :func:`serve_scalar`: each design's
  per-request path (L1 -> L2 -> memory probes with per-lookup angle
  quantisation, the reference for the two-pass replay loops of
  :meth:`TexturePath.begin_replay`) over :class:`ExpansionRows`;
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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.atfim import AtfimPath
from repro.core.baseline import GpuFilteringPath
from repro.core.expansion import _COLUMN_NAMES, ExpansionColumns
from repro.core.paths import (
    CacheHierarchy,
    MemoryInterface,
    TexturePath,
    _line_payload_bytes,
)
from repro.core.stfim import StfimPath
from repro.gpu.pipeline import GpuPipeline
from repro.memory.traffic import TrafficClass
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import RasterFragment, Rasterizer, _TriangleScan
from repro.render.renderer import RenderOutput, Renderer, SamplingMode
from repro.render.scene import Scene
from repro.sim.latency import LatencyHistogram
from repro.texture.address import TexelAddressMap
from repro.texture.cache import CacheAccessResult
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


class ExpansionRows(NamedTuple):
    """:class:`ExpansionColumns` materialised as python lists, the
    per-request view the scalar serves index one scalar at a time;
    field meanings are the columns'."""

    texels: List[int]
    camera_angle: List[float]
    line_offsets: List[int]
    lines: List[int]
    parent_offsets: List[int]
    parent_line: List[int]
    num_children: List[int]
    child_offsets: List[int]
    child_lines: List[int]


def expansion_rows(columns: ExpansionColumns) -> ExpansionRows:
    """All columns as python lists (one ``tolist`` each)."""
    return ExpansionRows(
        *(getattr(columns, name).tolist() for name in _COLUMN_NAMES)
    )


def hierarchy_lookup(
    caches: CacheHierarchy,
    cluster: int,
    arrival: float,
    address: int,
    memory: MemoryInterface,
) -> float:
    """Serve one line through L1 -> L2 -> memory; return ready time."""
    result = caches.l1[cluster].lookup(address)
    if result is CacheAccessResult.HIT:
        return arrival
    if caches.l2.lookup(address) is CacheAccessResult.HIT:
        return caches.l2_port.access(arrival, caches.line_bytes)
    return memory.read_line(arrival, address)


def hierarchy_probe(
    caches: CacheHierarchy,
    cluster: int,
    address: int,
    angle: Optional[float] = None,
    angle_threshold: Optional[float] = None,
) -> CacheAccessResult:
    """Classify an A-TFIM parent access (updating cache state) without
    timing: an L1 hit, else the L2's verdict; a stale angle anywhere
    forces a recalculation, refreshing the L2 copy's tag as well."""
    result = caches.l1[cluster].lookup(address, angle, angle_threshold)
    if result is CacheAccessResult.HIT:
        return result
    l2_result = caches.l2.lookup(address, angle, angle_threshold)
    if result is CacheAccessResult.ANGLE_MISS:
        return result
    return l2_result


def serve_scalar(
    path: TexturePath, cluster: int, issue: float, rows: ExpansionRows,
    index: int,
) -> float:
    """Serve request ``index`` of ``rows`` through ``path`` one call at a
    time; return its completion cycle at the shader."""
    if isinstance(path, GpuFilteringPath):
        return _serve_gpu_filtering(path, cluster, issue, rows, index)
    if isinstance(path, StfimPath):
        return _serve_stfim(path, cluster, issue, rows, index)
    if isinstance(path, AtfimPath):
        return _serve_atfim(path, cluster, issue, rows, index)
    raise TypeError(f"no scalar serve for {type(path).__name__}")


def _serve_gpu_filtering(
    path: GpuFilteringPath, cluster: int, issue: float,
    rows: ExpansionRows, index: int,
) -> float:
    """Baseline / B-PIM: fetch every unique line, then filter."""
    unit = path.units[cluster]
    unit.note_request()
    num_texels = rows.texels[index]
    address_done = unit.generate_addresses(issue, num_texels)
    data_ready = address_done
    offsets = rows.line_offsets
    for line in rows.lines[offsets[index]:offsets[index + 1]]:
        ready = hierarchy_lookup(
            path.caches, cluster, address_done, line, path.memory
        )
        if ready > data_ready:
            data_ready = ready
    return unit.filter_texels(data_ready, num_texels)


def _serve_stfim(
    path: StfimPath, cluster: int, issue: float, rows: ExpansionRows,
    index: int,
) -> float:
    """S-TFIM: queue, link, MTU fetch-and-filter, link back."""
    lines = rows.lines[rows.line_offsets[index]:rows.line_offsets[index + 1]]
    packets = path.config.packets
    mtu_index = cluster // path.config.mtu_share
    mtu = path.mtus[mtu_index]
    mtu.note_request()
    admitted = path.queues[mtu_index].enqueue(issue)
    request_bytes = packets.texture_request_bytes
    home = lines[0] if lines else 0
    path.traffic.add_external(TrafficClass.TEXTURE, float(request_bytes))
    delivered = path.hmc.send_request(admitted, home, request_bytes)
    num_texels = rows.texels[index]
    address_done = mtu.generate_addresses(delivered, num_texels)
    data_ready = address_done
    line_bytes = _line_payload_bytes(packets, path.config.texture_compression)
    window = path.merge_windows[mtu_index]
    for line in lines:
        merged_ready = window.lookup(line)
        if merged_ready is not None:
            ready = max(address_done, merged_ready)
        else:
            ready = path.hmc.internal_read(address_done, line, line_bytes)
            path.traffic.add_internal(TrafficClass.TEXTURE, float(line_bytes))
            window.insert(line, ready)
        if ready > data_ready:
            data_ready = ready
    filtered = mtu.filter_texels(data_ready, num_texels)
    response_bytes = packets.texture_response_bytes(samples=1)
    path.traffic.add_external(TrafficClass.TEXTURE, float(response_bytes))
    return path.hmc.send_response(filtered, home, response_bytes)


def _serve_atfim(
    path: AtfimPath, cluster: int, issue: float, rows: ExpansionRows,
    index: int,
) -> float:
    """A-TFIM: probe each parent against the angle-tagged caches, offload
    the missing ones to the HMC, filter the parents on the GPU."""
    unit = path.units[cluster]
    unit.note_request()
    threshold = path.config.effective_angle_threshold
    angle = rows.camera_angle[index]
    first = rows.parent_offsets[index]
    last = rows.parent_offsets[index + 1]
    num_parents = last - first
    address_done = unit.generate_addresses(issue, num_parents)
    missing: List[int] = []
    for parent in range(first, last):
        # Only anisotropic parents carry an angle tag.
        needs_angle = rows.num_children[parent] > 1
        result = hierarchy_probe(
            path.caches, cluster, rows.parent_line[parent],
            angle if needs_angle else None,
            threshold if needs_angle else None,
        )
        if result is CacheAccessResult.HIT:
            path.parent_reuses += 1
        elif result is CacheAccessResult.ANGLE_MISS:
            path.parent_recalculations += 1
            missing.append(parent)
        else:
            path.parent_cold_misses += 1
            missing.append(parent)
    parents_ready = address_done
    if missing:
        offsets = rows.child_offsets
        parents_ready = path._offload(
            address_done,
            rows.parent_line[missing[0]],
            [
                rows.child_lines[offsets[parent]:offsets[parent + 1]]
                for parent in missing
            ],
            sum(rows.num_children[parent] for parent in missing),
        )
    return unit.filter_texels(parents_ready, num_parents)


def replay_scalar(
    pipeline: GpuPipeline,
    trace: FragmentTrace,
    expansion: ExpansionColumns,
    path: TexturePath,
) -> Tuple[float, LatencyHistogram, List[int]]:
    """One-event-at-a-time heap replay: the scheduling oracle.

    Same contract and result as
    :meth:`~repro.gpu.pipeline.GpuPipeline.replay_texture_stream`,
    serving each request through :func:`serve_scalar` over rows built
    once for this replay.
    """
    rows = expansion_rows(expansion)
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
        completion = serve_scalar(path, cluster, issue, rows, index)
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
