"""Whole-frame rendering under each design's sampling policy.

The renderer produces two artefacts from one rasterization pass:

* an actual RGBA image, filtered under a chosen :class:`SamplingMode` --
  this is what the quality study (Fig. 15/16) compares via PSNR;
* a :class:`~repro.texture.requests.FragmentTrace` of per-fragment
  texture requests, which the cycle-approximate performance model
  replays (after :meth:`Renderer.render`, built on first read).

Sampling modes:

``EXACT``
    Conventional bilinear -> trilinear -> anisotropic order (the baseline,
    B-PIM and S-TFIM all produce this image; they differ only in *where*
    the arithmetic runs, not in the result).
``REORDERED``
    A-TFIM's anisotropic-first order with per-request recalculation
    (equivalent to an angle threshold of zero before quantisation).  The
    paper's section V-B shows it equals ``EXACT`` in exact arithmetic; in
    float64 the two orders round differently, by up to a few 1e-16 per
    channel, and the tests hold them within ``atol=1e-12``.
``ATFIM``
    A-TFIM with the camera-angle reuse policy: parent texels cached in an
    angle-tagged store are reused whenever the requesting pixel's angle is
    within the threshold, otherwise recalculated.  This is the
    approximation whose quality the threshold controls.
``ISOTROPIC``
    Anisotropic filtering disabled (trilinear only) -- the Fig. 4 study
    and the paper's lowest-quality reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import FragmentBatch, Rasterizer, RasterStats
from repro.render.scene import Scene
from repro.texture.lod import compute_footprint_batch
from repro.texture.requests import FragmentTrace, TextureRequest


class SamplingMode(Enum):
    """Which filtering policy produces the frame's colors."""

    EXACT = "exact"
    REORDERED = "reordered"
    ATFIM = "atfim"
    ISOTROPIC = "isotropic"


@dataclass
class RenderOutput:
    """Everything one rendered frame yields.

    :attr:`trace` is built from ``build_trace`` the first time it is
    read: the quality study reads only :attr:`image`, and the request
    records are costly to materialise.
    """

    image: np.ndarray
    raster_stats: RasterStats
    framebuffer: Framebuffer
    build_trace: Callable[[], FragmentTrace] = field(repr=False, compare=False)
    parent_recalculations: int = 0
    parent_reuses: int = 0

    @cached_property
    def trace(self) -> FragmentTrace:
        """The frame's per-fragment texture requests."""
        return self.build_trace()


class Renderer:
    """Renders a scene under one sampling mode."""

    def __init__(
        self,
        width: int,
        height: int,
        tile_size: int = 16,
        max_anisotropy: int = 16,
        lod_bias: float = 0.0,
    ) -> None:
        self.width = width
        self.height = height
        self.rasterizer = Rasterizer(
            tile_size=tile_size, max_anisotropy=max_anisotropy, lod_bias=lod_bias
        )

    def trace_only(self, scene: Scene, camera: Camera) -> RenderOutput:
        """Rasterize without shading: fast path for the cycle model.

        The returned image is the cleared framebuffer; only the trace and
        raster statistics are meaningful.
        """
        framebuffer = Framebuffer(self.width, self.height)
        with obs.span(
            "render.trace_only", width=self.width, height=self.height
        ):
            requests = self.rasterizer.trace_requests(
                scene, camera, framebuffer
            )
        return self._output(framebuffer, lambda: requests)

    def render(
        self,
        scene: Scene,
        camera: Camera,
        mode: SamplingMode = SamplingMode.EXACT,
        angle_threshold: float = 0.0,
    ) -> RenderOutput:
        """Rasterize and shade every visible fragment.

        Every mode shades the rasterizer's fragment columns per texture
        through the batched kernels of :mod:`repro.texture.batch`, and
        fragments are written in submission order (the last write to a
        pixel wins).  ``angle_threshold`` (radians) only applies to
        :attr:`SamplingMode.ATFIM`.  With ``REPRO_CHECK_INVARIANTS=1``
        each texture's batch is also checked against the scalar
        samplers at drain time.
        """
        if mode is SamplingMode.ATFIM and angle_threshold < 0:
            raise ValueError("threshold must be non-negative")
        with obs.span(
            "render.render",
            mode=mode.value,
            width=self.width,
            height=self.height,
        ):
            framebuffer = Framebuffer(self.width, self.height)
            with obs.span("render.rasterize"):
                batches = self.rasterizer.rasterize_batches(
                    scene, camera, framebuffer
                )
            texture_ids, columns = _frame_columns(batches)
            with obs.span("render.shade", fragments=len(texture_ids)):
                colors, reuses, recalculations = self._shade_frame(
                    scene, texture_ids, columns, mode, angle_threshold
                )
                framebuffer.write_batch(
                    columns["x"], columns["y"], columns["depth"], colors
                )
        rasterizer = self.rasterizer
        return self._output(
            framebuffer,
            lambda: [
                request
                for batch in batches
                for request in rasterizer.requests_from_batch(batch)
            ],
            reuses,
            recalculations,
        )

    def _shade_frame(
        self,
        scene: Scene,
        texture_ids: np.ndarray,
        columns: Dict[str, np.ndarray],
        mode: SamplingMode,
        angle_threshold: float,
    ) -> Tuple[np.ndarray, int, int]:
        """Colors of every fragment, plus A-TFIM's reuse and
        recalculation counts, shading one texture's fragments at a time
        (each texture has its own mip chain and its own parent keys)."""
        from repro.analysis.invariants import checks_enabled
        from repro.texture.batch import BatchSampler, RequestBatch

        footprints = compute_footprint_batch(
            columns["dudx"], columns["dvdx"], columns["dudy"], columns["dvdy"],
            max_anisotropy=self.rasterizer.max_anisotropy,
            lod_bias=self.rasterizer.lod_bias,
        )
        requests = RequestBatch(
            u=columns["u"],
            v=columns["v"],
            lod=footprints.lod,
            probes=footprints.probes,
            major_du=footprints.major_du,
            major_dv=footprints.major_dv,
            major_length=footprints.major_length,
        )
        checking = checks_enabled()
        colors = np.zeros((len(texture_ids), 4), dtype=np.float64)
        reuses = recalculations = 0
        for texture_id in np.unique(texture_ids).tolist():
            rows = np.flatnonzero(texture_ids == texture_id)
            sampler = BatchSampler(scene.mipmap_chain(texture_id))
            batch = requests.take(rows)
            if mode is SamplingMode.ATFIM:
                shade = sampler.sample_atfim(
                    batch, columns["camera_angle"][rows], angle_threshold
                )
                colors[rows] = shade.colors
                reuses += shade.reuses
                recalculations += shade.recalculations
                if checking:
                    sampler.verify_atfim(batch, shade)
                continue
            if mode is SamplingMode.EXACT:
                colors[rows] = sampler.sample_exact(batch)
            elif mode is SamplingMode.ISOTROPIC:
                colors[rows] = sampler.sample_isotropic(batch)
            elif mode is SamplingMode.REORDERED:
                colors[rows] = sampler.sample_reordered(batch)
            else:
                raise ValueError(f"unknown sampling mode {mode}")
            if checking:
                sampler.verify_against_scalar(batch, kind=mode.value)
        return colors, reuses, recalculations

    def _output(
        self,
        framebuffer: Framebuffer,
        requests: Callable[[], List[TextureRequest]],
        parent_reuses: int = 0,
        parent_recalculations: int = 0,
    ) -> RenderOutput:
        """Package a finished frame: image, statistics, and the request
        trace, built from ``requests()`` on first read."""
        width, height = self.width, self.height
        tile_size = self.rasterizer.tile_size

        def build_trace() -> FragmentTrace:
            return FragmentTrace(
                width=width,
                height=height,
                requests=requests(),
                tile_size=tile_size,
            )

        return RenderOutput(
            image=framebuffer.rgb_image(),
            raster_stats=self.rasterizer.stats,
            framebuffer=framebuffer,
            build_trace=build_trace,
            parent_recalculations=parent_recalculations,
            parent_reuses=parent_reuses,
        )


_COLUMNS = (
    ("x", np.int64), ("y", np.int64), ("depth", np.float64),
    ("u", np.float64), ("v", np.float64),
    ("dudx", np.float64), ("dvdx", np.float64),
    ("dudy", np.float64), ("dvdy", np.float64),
    ("camera_angle", np.float64),
)


def _frame_columns(
    batches: Sequence[FragmentBatch],
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """The frame's fragments as one set of columns, in submission order,
    with the texture of each fragment.

    Makes the checks :class:`TextureRequest` records make on
    construction: a negative texture id or camera angle raises
    ``ValueError``.
    """
    if any(batch.texture_id < 0 for batch in batches):
        raise ValueError("negative texture id")
    columns = {
        name: (
            np.concatenate([getattr(batch, name) for batch in batches])
            if batches else np.empty(0, dtype=dtype)
        )
        for name, dtype in _COLUMNS
    }
    if bool(np.any(columns["camera_angle"] < 0)):
        raise ValueError("negative camera angle")
    texture_ids = np.repeat(
        np.array([batch.texture_id for batch in batches], dtype=np.int64),
        [len(batch) for batch in batches],
    )
    return texture_ids, columns
