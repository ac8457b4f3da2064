"""Batched (numpy-vectorised) texture filtering kernels.

The scalar kernels in :mod:`repro.texture.sampling` walk one fragment at
a time, one texel tap at a time — fine as a readable hardware reference,
hopeless as the inner loop of a figure suite that filters hundreds of
thousands of fragments.  This module re-expresses the same math over
*arrays of fragments*: taps are gathered with fancy indexing and blended
with broadcast multiplies, so one numpy call replaces thousands of
Python-level tap loops.

Bit-identity contract
---------------------
Every kernel here is **bit-identical** to its scalar counterpart, not
merely close: per fragment, the batch path performs the *same IEEE-754
operations in the same order* as the scalar path —

* bilinear taps accumulate into a zero vector in the fixed tap order
  (x0y0, x1y0, x0y1, x1y1), each as ``acc += weight * texel``;
* the trilinear blend is ``low * (1 - w) + high * w`` and single-level
  blends return the low color *without* the degenerate multiply;
* anisotropic probes accumulate in probe-index order and divide once at
  the end;
* probe offsets use the same ``round()`` (half-to-even, matching
  ``np.rint``) of the same products;
* in A-TFIM's reordered order, parents come in slot order (low-level
  taps x0y0, x1y0, x0y1, x1y1, then the high-level taps), each parent
  value is ``acc += child`` over its probes in index order, then
  ``/ probes``, and each color is ``color += weight * value``.

The scalar functions stay the oracle: ``tests/texture/test_batch.py``
asserts ``np.array_equal`` (exact, every bit) between the two paths, and
the drain-time ``batch-fetch-parity`` invariant
(:func:`repro.analysis.invariants.check_batch_scalar_parity`) re-checks
a deterministic sample of every batched render when
``REPRO_CHECK_INVARIANTS=1``.

A-TFIM's camera-angle parent reuse (:func:`atfim_batch`) is decided for
the whole batch at once rather than per lookup.  Parent slots are
stably sorted by parent key, so each key keeps submission order.  A key
whose quantised angles lie within the threshold reuses its first entry;
the other keys walk their entries (:func:`reuse_sources`).  Child
averages are computed only for recalculating slots.  Colors and
reuse/recalculation counts equal shading each fragment in turn through
the angle-tagged store of :mod:`repro.perf.oracles`; the drain-time
``atfim-parent-reuse`` invariant
(:func:`repro.analysis.invariants.check_atfim_parent_reuse`) checks the
slot count and a sample of recalculated parents.

Grouping strategy: fragments are partitioned by probe count, and within
each trilinear stage (or parent group) by mip level.  Partitioning
never changes results — all arithmetic is per-fragment elementwise — it
only keeps gathers rectangular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.texture.lod import SampleFootprint, quantize_angle_batch
from repro.texture.mipmap import MipmapChain
from repro.texture.requests import TextureRequest
from repro.texture.sampling import TexelCoord


@dataclass
class RequestBatch:
    """Structure-of-arrays view of a set of texture lookups.

    All arrays share one length (one entry per fragment); ``u``/``v``
    are sample positions in level-0 texel units, the remaining fields
    are the flattened :class:`~repro.texture.lod.SampleFootprint`.
    """

    u: np.ndarray
    v: np.ndarray
    lod: np.ndarray
    probes: np.ndarray
    major_du: np.ndarray
    major_dv: np.ndarray
    major_length: np.ndarray

    def __len__(self) -> int:
        return int(self.u.shape[0])

    @classmethod
    def from_footprints(
        cls,
        footprints: Sequence[SampleFootprint],
        us: Sequence[float],
        vs: Sequence[float],
    ) -> "RequestBatch":
        return cls(
            u=np.asarray(us, dtype=np.float64),
            v=np.asarray(vs, dtype=np.float64),
            lod=np.array([f.lod for f in footprints], dtype=np.float64),
            probes=np.array([f.probes for f in footprints], dtype=np.int64),
            major_du=np.array([f.major_du for f in footprints], dtype=np.float64),
            major_dv=np.array([f.major_dv for f in footprints], dtype=np.float64),
            major_length=np.array(
                [f.major_length for f in footprints], dtype=np.float64
            ),
        )

    @classmethod
    def from_requests(cls, requests: Sequence[TextureRequest]) -> "RequestBatch":
        return cls.from_footprints(
            [request.footprint for request in requests],
            [request.u for request in requests],
            [request.v for request in requests],
        )

    def take(self, rows: np.ndarray) -> "RequestBatch":
        """The sub-batch at positions ``rows``, in that order."""
        return RequestBatch(
            u=self.u[rows],
            v=self.v[rows],
            lod=self.lod[rows],
            probes=self.probes[rows],
            major_du=self.major_du[rows],
            major_dv=self.major_dv[rows],
            major_length=self.major_length[rows],
        )

    def footprint(self, index: int) -> SampleFootprint:
        """Row ``index`` as the scalar samplers' footprint (the
        anisotropy ratio, which no sampler reads, is not carried)."""
        return SampleFootprint(
            lod=float(self.lod[index]),
            anisotropy=1.0,
            probes=int(self.probes[index]),
            major_du=float(self.major_du[index]),
            major_dv=float(self.major_dv[index]),
            major_length=float(self.major_length[index]),
        )


class BatchFetchRecorder:
    """Records the texel fetches of batched kernels per source fragment.

    The scalar :class:`~repro.texture.sampling._FetchRecorder` merges
    duplicates in first-touch order; a batched kernel touches texels in
    stage order (all fragments' low-level taps, then all high-level
    taps), so *order* differs between the paths while the per-fragment
    fetch *sets* — what hardware coalescing and the cycle model care
    about — are identical.  This recorder therefore exposes per-fragment
    deduplicated sets and counts.
    """

    def __init__(self) -> None:
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def add(
        self,
        request_indices: np.ndarray,
        level: int,
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> None:
        """Record one tap gather: wrapped coordinates at one mip level."""
        self._chunks.append(
            (
                np.asarray(request_indices, dtype=np.int64),
                np.full(len(xs), level, dtype=np.int64),
                np.asarray(xs, dtype=np.int64),
                np.asarray(ys, dtype=np.int64),
            )
        )

    def request_texels(self) -> Dict[int, List[TexelCoord]]:
        """Deduplicated ``(level, x, y)`` fetches keyed by fragment index."""
        sets: Dict[int, set] = {}
        ordered: Dict[int, List[TexelCoord]] = {}
        for req, levels, xs, ys in self._chunks:
            for index in range(len(req)):
                key = int(req[index])
                coord = (int(levels[index]), int(xs[index]), int(ys[index]))
                bucket = sets.setdefault(key, set())
                if coord not in bucket:
                    bucket.add(coord)
                    ordered.setdefault(key, []).append(coord)
        return ordered

    def request_counts(self) -> Dict[int, int]:
        """Unique-texel fetch count per fragment index."""
        return {
            key: len(coords) for key, coords in self.request_texels().items()
        }


def level_blend_arrays(
    chain: MipmapChain, lod: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`~repro.texture.sampling.level_blend_for`.

    Returns ``(level_low, level_high, weight)`` arrays with the scalar
    function's exact clamping: non-positive LOD pins to level 0, LOD at
    or past the last level pins there, and an exactly-integral LOD
    collapses to a single level with zero weight.
    """
    lod = np.asarray(lod, dtype=np.float64)
    max_level = chain.max_level
    low = np.floor(lod)
    weight = lod - low
    low_i = low.astype(np.int64)
    high_i = low_i + 1
    single = weight == 0.0
    high_i = np.where(single, low_i, high_i)
    below = lod <= 0.0
    above = lod >= max_level
    low_i = np.where(below, 0, np.where(above, max_level, low_i))
    high_i = np.where(below, 0, np.where(above, max_level, high_i))
    weight = np.where(below | above | single, 0.0, weight)
    return low_i, high_i, weight


def probe_offset_arrays(
    levels: np.ndarray,
    major_du: np.ndarray,
    major_dv: np.ndarray,
    major_length: np.ndarray,
    probes: int,
    probe_index: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`~repro.texture.sampling.probe_offsets` at one
    probe index, for fragments sharing one probe count.

    ``np.rint`` rounds half to even exactly as Python's ``round`` does,
    so the integer displacements match the scalar path bit for bit.
    """
    if probes == 1:
        zero = np.zeros(len(levels), dtype=np.int64)
        return zero, zero
    length_at_level = major_length / np.ldexp(1.0, levels.astype(np.int64))
    spacing = length_at_level / probes
    distance = (probe_index - (probes - 1) / 2.0) * spacing
    dx = np.rint(distance * major_du).astype(np.int64)
    dy = np.rint(distance * major_dv).astype(np.int64)
    return dx, dy


def bilinear_batch(
    chain: MipmapChain,
    levels: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    offset_x: Optional[np.ndarray] = None,
    offset_y: Optional[np.ndarray] = None,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Bilinear filter a fragment array, each at its own mip level.

    Mirrors :func:`~repro.texture.sampling.bilinear_sample`: levels are
    clamped to the chain, coordinates scale by the clamped level, the
    2x2 taps accumulate in fixed order with wrap addressing applied at
    fetch time.  ``offset_x``/``offset_y`` are per-fragment integer
    probe displacements.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    count = len(u)
    clamped = np.clip(np.asarray(levels, dtype=np.int64), 0, chain.max_level)
    if offset_x is None:
        offset_x = np.zeros(count, dtype=np.int64)
    if offset_y is None:
        offset_y = np.zeros(count, dtype=np.int64)
    out = np.zeros((count, 4), dtype=np.float64)
    for level in np.unique(clamped):
        sel = np.nonzero(clamped == level)[0]
        mip = chain.level(int(level))
        scale = np.ldexp(1.0, mip.level)
        lu = u[sel] / scale
        lv = v[sel] / scale
        su = lu - 0.5
        sv = lv - 0.5
        x0f = np.floor(su)
        y0f = np.floor(sv)
        fx = su - x0f
        fy = sv - y0f
        x0 = x0f.astype(np.int64) + offset_x[sel]
        y0 = y0f.astype(np.int64) + offset_y[sel]
        taps = (
            (x0, y0, (1.0 - fx) * (1.0 - fy)),
            (x0 + 1, y0, fx * (1.0 - fy)),
            (x0, y0 + 1, (1.0 - fx) * fy),
            (x0 + 1, y0 + 1, fx * fy),
        )
        acc = np.zeros((len(sel), 4), dtype=np.float64)
        for tap_x, tap_y, tap_weight in taps:
            xs = tap_x % mip.width
            ys = tap_y % mip.height
            if recorder is not None and request_indices is not None:
                recorder.add(request_indices[sel], mip.level, xs, ys)
            acc += tap_weight[:, None] * mip.data[ys, xs]
        out[sel] = acc
    return out


def trilinear_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    probe_index: Optional[int] = None,
    subset: Optional[np.ndarray] = None,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
    blend: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Trilinear filter a fragment batch (optionally one aniso probe).

    Mirrors :func:`~repro.texture.sampling.trilinear_sample`: each
    fragment blends the bilinear results of its two mip levels with its
    fractional LOD weight; with ``probe_index`` given, each level's taps
    are displaced by that probe's integer offset at that level.
    Single-level fragments take the low bilinear result directly (no
    zero-weight blend arithmetic), and their high level is neither
    fetched nor recorded — exactly as the scalar path behaves.

    ``subset`` restricts work to those batch positions (default: all).
    ``blend`` optionally supplies precomputed
    :func:`level_blend_arrays` output for the subset, so callers that
    filter the same fragments once per probe (the anisotropic loop)
    don't re-derive an identical blend every probe.
    """
    if subset is None:
        subset = np.arange(len(batch), dtype=np.int64)
    if request_indices is None:
        request_indices = subset
    u = batch.u[subset]
    v = batch.v[subset]
    if blend is None:
        blend = level_blend_arrays(chain, batch.lod[subset])
    low, high, weight = blend

    def offsets_for(levels: np.ndarray, sel: np.ndarray) -> Tuple[
        Optional[np.ndarray], Optional[np.ndarray]
    ]:
        if probe_index is None:
            return None, None
        dx = np.zeros(len(sel), dtype=np.int64)
        dy = np.zeros(len(sel), dtype=np.int64)
        probe_counts = batch.probes[subset][sel]
        for count in np.unique(probe_counts):
            if probe_index >= count:
                raise IndexError(
                    f"probe index {probe_index} out of range for "
                    f"{int(count)}-probe footprint"
                )
            group = np.nonzero(probe_counts == count)[0]
            rows = subset[sel[group]]
            dx[group], dy[group] = probe_offset_arrays(
                levels[group],
                batch.major_du[rows],
                batch.major_dv[rows],
                batch.major_length[rows],
                int(count),
                probe_index,
            )
        return dx, dy

    everyone = np.arange(len(subset), dtype=np.int64)
    low_dx, low_dy = offsets_for(low, everyone)
    low_color = bilinear_batch(
        chain, low, u, v, low_dx, low_dy, request_indices, recorder
    )
    single = (weight == 0.0) | (low == high)
    if bool(np.all(single)):
        return low_color
    dual = np.nonzero(~single)[0]
    high_dx, high_dy = offsets_for(high[dual], dual)
    high_color = bilinear_batch(
        chain,
        high[dual],
        u[dual],
        v[dual],
        high_dx,
        high_dy,
        request_indices[dual],
        recorder,
    )
    dual_weight = weight[dual]
    out = low_color
    out[dual] = (
        low_color[dual] * (1.0 - dual_weight)[:, None]
        + high_color * dual_weight[:, None]
    )
    return out


def anisotropic_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Conventional-order anisotropic filter over a fragment batch.

    Mirrors :func:`~repro.texture.sampling.anisotropic_sample`:
    fragments are grouped by probe count; each group accumulates its
    trilinear probes in index order and divides by the count once.
    """
    if request_indices is None:
        request_indices = np.arange(len(batch), dtype=np.int64)
    out = np.zeros((len(batch), 4), dtype=np.float64)
    for count in np.unique(batch.probes):
        sel = np.nonzero(batch.probes == count)[0]
        blend = level_blend_arrays(chain, batch.lod[sel])
        acc = np.zeros((len(sel), 4), dtype=np.float64)
        for index in range(int(count)):
            acc += trilinear_batch(
                chain,
                batch,
                probe_index=index,
                subset=sel,
                request_indices=request_indices[sel],
                recorder=recorder,
                blend=blend,
            )
        out[sel] = acc / int(count)
    return out


def isotropic_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    request_indices: Optional[np.ndarray] = None,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Trilinear-only batch filter (anisotropic disabled), the batched
    counterpart of ``TextureSampler.sample_isotropic``."""
    if request_indices is None:
        request_indices = np.arange(len(batch), dtype=np.int64)
    return trilinear_batch(
        chain, batch, probe_index=None,
        request_indices=request_indices, recorder=recorder,
    )


SLOTS = 8
"""Parent slots per fragment: the 4 bilinear taps of the low mip level,
then the 4 of the high level (present only for a two-level blend)."""


@dataclass
class ParentSlots:
    """Every fragment's parent texels as ``(fragment, slot)`` columns.

    The batched :func:`~repro.texture.sampling.parent_texel_coords`:
    ``level``/``x``/``y``/``weight`` have shape ``(n, SLOTS)``, with
    unwrapped tap coordinates and the combined bilinear x trilinear
    weight of each parent.  ``dual`` marks fragments with a high level;
    for the others slots 4-7 do not exist.  ``entries`` lists the
    existing slots as flat ``fragment * SLOTS + slot`` positions, which
    is submission order: fragments in order, each in slot order.
    """

    level: np.ndarray
    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    dual: np.ndarray
    entries: np.ndarray

    def rows(self) -> np.ndarray:
        """The fragment of every entry."""
        return self.entries // SLOTS

    def column(self, name: str) -> np.ndarray:
        """One of ``level``/``x``/``y``/``weight``, per entry."""
        return getattr(self, name).reshape(-1)[self.entries]


def parent_slot_arrays(chain: MipmapChain, batch: RequestBatch) -> ParentSlots:
    """Vectorised :func:`~repro.texture.sampling.parent_texel_coords`.

    Per level the taps are derived exactly as the scalar function does:
    the sample point scaled to the level, shifted by half a texel,
    floored, and the tap weights ``(1 - fx) * (1 - fy)`` etc. multiplied
    by the level's trilinear weight (``1 - w`` low, ``w`` high).
    """
    count = len(batch)
    low, high, blend = level_blend_arrays(chain, batch.lod)
    dual = ~((blend == 0.0) | (low == high))
    level = np.empty((count, SLOTS), dtype=np.int64)
    xs = np.empty((count, SLOTS), dtype=np.int64)
    ys = np.empty((count, SLOTS), dtype=np.int64)
    weight = np.empty((count, SLOTS), dtype=np.float64)
    for first, levels, level_weight in ((0, low, 1.0 - blend), (4, high, blend)):
        scale = np.ldexp(1.0, levels)
        su = batch.u / scale - 0.5
        sv = batch.v / scale - 0.5
        x0f = np.floor(su)
        y0f = np.floor(sv)
        fx = su - x0f
        fy = sv - y0f
        x0 = x0f.astype(np.int64)
        y0 = y0f.astype(np.int64)
        taps = (
            (x0, y0, (1.0 - fx) * (1.0 - fy)),
            (x0 + 1, y0, fx * (1.0 - fy)),
            (x0, y0 + 1, (1.0 - fx) * fy),
            (x0 + 1, y0 + 1, fx * fy),
        )
        for offset, (tap_x, tap_y, tap_weight) in enumerate(taps):
            level[:, first + offset] = levels
            xs[:, first + offset] = tap_x
            ys[:, first + offset] = tap_y
            weight[:, first + offset] = tap_weight * level_weight
    exists = np.ones((count, SLOTS), dtype=bool)
    exists[:, 4:] = dual[:, None]
    return ParentSlots(
        level=level, x=xs, y=ys, weight=weight, dual=dual,
        entries=np.flatnonzero(exists),
    )


def parent_average_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    rows: np.ndarray,
    levels: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """Vectorised :func:`~repro.texture.sampling.filter_parent_texel`.

    Entry ``e`` averages the children of parent ``(levels[e], xs[e],
    ys[e])`` (unwrapped) under the footprint of fragment ``rows[e]``:
    entries are grouped by probe count and level, and each group adds
    its probe-displaced, wrapped children into a zero vector one probe
    at a time in index order, then divides once by the count.  Fetches
    are recorded under the fragment's row in ``batch``.
    """
    out = np.empty((len(rows), 4), dtype=np.float64)
    probes = batch.probes[rows]
    for count in np.unique(probes).tolist():
        with_count = probes == count
        for level in np.unique(levels[with_count]).tolist():
            sel = np.flatnonzero(with_count & (levels == level))
            group = rows[sel]
            mip = chain.level(level)
            acc = np.zeros((len(sel), 4), dtype=np.float64)
            for probe in range(count):
                dx, dy = probe_offset_arrays(
                    levels[sel],
                    batch.major_du[group],
                    batch.major_dv[group],
                    batch.major_length[group],
                    count,
                    probe,
                )
                child_x = (xs[sel] + dx) % mip.width
                child_y = (ys[sel] + dy) % mip.height
                if recorder is not None:
                    recorder.add(group, mip.level, child_x, child_y)
                acc += mip.data[child_y, child_x]
            out[sel] = acc / count
    return out


def _blend_parents(slots: ParentSlots, values: np.ndarray) -> np.ndarray:
    """Colors from per-entry parent values: ``color += weight * value``
    over each fragment's slots in slot order, from a zero vector."""
    count = len(slots.dual)
    per_slot = np.zeros((count, SLOTS, 4), dtype=np.float64)
    per_slot.reshape(-1, 4)[slots.entries] = values
    colors = np.zeros((count, 4), dtype=np.float64)
    for slot in range(4):
        colors += slots.weight[:, slot, None] * per_slot[:, slot]
    dual = np.flatnonzero(slots.dual)
    if len(dual):
        high = colors[dual]
        for slot in range(4, SLOTS):
            high += slots.weight[dual, slot, None] * per_slot[dual, slot]
        colors[dual] = high
    return colors


def anisotropic_first_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    recorder: Optional[BatchFetchRecorder] = None,
) -> np.ndarray:
    """A-TFIM reordered filter over a fragment batch.

    Mirrors :func:`~repro.texture.sampling.anisotropic_first_sample`:
    every parent texel is replaced by the probe average of its
    children, then the bilinear/trilinear weights combine the averaged
    parents in slot order.
    """
    slots = parent_slot_arrays(chain, batch)
    values = parent_average_batch(
        chain, batch, slots.rows(), slots.column("level"),
        slots.column("x"), slots.column("y"), recorder,
    )
    return _blend_parents(slots, values)


@dataclass
class AtfimShade:
    """One batch shaded under A-TFIM's camera-angle parent reuse."""

    colors: np.ndarray
    reuses: int
    recalculations: int
    recalculated: np.ndarray
    """Fragment, level and unwrapped x, y of every recalculated parent,
    shape ``(recalculations, 4)``."""
    values: np.ndarray
    """The filtered value of every recalculated parent, in the same order."""


def reuse_sources(
    keys: np.ndarray, quantised: np.ndarray, threshold: float
) -> np.ndarray:
    """Which entry's parent value each entry uses, for the whole batch.

    Entries arrive in submission order with their parent key and
    quantised camera angle.  Per key, in submission order, the first
    entry recalculates and becomes the *anchor*; a later entry reuses
    the anchor's value when ``abs(anchor_angle - angle) <= threshold``
    and otherwise recalculates and becomes the new anchor -- the
    angle-tagged store's policy, decided for every key at once.  A
    stable sort groups the keys; a group whose angle range is within the
    threshold reuses its first entry throughout (rounding is monotone,
    so every pairwise difference is within the range), and only the
    other groups walk their entries.  Returns, per entry, the index of
    the entry it takes its value from (itself when it recalculates).
    """
    total = len(keys)
    if total == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_angles = quantised[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    lengths = np.diff(np.append(starts, total))
    anchors = np.repeat(starts, lengths)
    spread = (
        np.maximum.reduceat(sorted_angles, starts)
        - np.minimum.reduceat(sorted_angles, starts)
    )
    mixed = np.flatnonzero(~(spread <= threshold))
    if len(mixed):
        angles = sorted_angles.tolist()
        for start, length in zip(starts[mixed].tolist(), lengths[mixed].tolist()):
            anchor = start
            stored = angles[start]
            walked = []
            for entry in range(start, start + length):
                if not abs(stored - angles[entry]) <= threshold:
                    anchor = entry
                    stored = angles[entry]
                walked.append(anchor)
            anchors[start:start + length] = walked
    sources = np.empty(total, dtype=np.int64)
    sources[order] = order[anchors]
    return sources


def atfim_batch(
    chain: MipmapChain,
    batch: RequestBatch,
    camera_angle: np.ndarray,
    threshold: float,
) -> AtfimShade:
    """A-TFIM filtering with angle-threshold parent reuse over a batch.

    The batched counterpart of shading each fragment in submission
    order through an angle-tagged parent store that starts empty: parent
    keys are ``(level, x mod width, y mod height)`` within this chain,
    the reuse decision is :func:`reuse_sources` over all parent slots at
    once, child averages are computed only for the recalculating entries
    (each under its own fragment's footprint) and gathered for the
    reusing ones, and colors combine them as
    :func:`anisotropic_first_batch` does.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    quantised = quantize_angle_batch(camera_angle)
    slots = parent_slot_arrays(chain, batch)
    rows = slots.rows()
    levels = slots.column("level")
    xs = slots.column("x")
    ys = slots.column("y")
    widths = np.array([mip.width for mip in chain.levels], dtype=np.int64)
    heights = np.array([mip.height for mip in chain.levels], dtype=np.int64)
    bases = np.concatenate(([0], np.cumsum(widths * heights)[:-1]))
    keys = (
        bases[levels]
        + (ys % heights[levels]) * widths[levels]
        + xs % widths[levels]
    )
    sources = reuse_sources(keys, quantised[rows], threshold)
    recalculating = np.flatnonzero(sources == np.arange(len(sources)))
    values = parent_average_batch(
        chain, batch, rows[recalculating], levels[recalculating],
        xs[recalculating], ys[recalculating],
    )
    position = np.empty(len(sources), dtype=np.int64)
    position[recalculating] = np.arange(len(recalculating))
    return AtfimShade(
        colors=_blend_parents(slots, values[position[sources]]),
        reuses=len(sources) - len(recalculating),
        recalculations=len(recalculating),
        recalculated=np.stack(
            [rows[recalculating], levels[recalculating],
             xs[recalculating], ys[recalculating]],
            axis=1,
        ),
        values=values,
    )


_VERIFY_SAMPLES = 256
"""Fragments (or recalculated parents) re-filtered by each drain-time check."""


class BatchSampler:
    """Batched facade over one mip chain, mirroring ``TextureSampler``.

    The functional renderer routes whole fragment arrays through this
    class; the scalar samplers of :mod:`repro.texture.sampling` remain
    the oracle the batch path is validated against.
    """

    def __init__(self, chain: MipmapChain) -> None:
        self.chain = chain

    def sample_exact(
        self,
        batch: RequestBatch,
        recorder: Optional[BatchFetchRecorder] = None,
    ) -> np.ndarray:
        """Conventional-order (bilinear->trilinear->anisotropic) colors."""
        return anisotropic_batch(self.chain, batch, recorder=recorder)

    def sample_isotropic(
        self,
        batch: RequestBatch,
        recorder: Optional[BatchFetchRecorder] = None,
    ) -> np.ndarray:
        """Trilinear-only colors (anisotropic filtering disabled)."""
        return isotropic_batch(self.chain, batch, recorder=recorder)

    def sample_reordered(
        self,
        batch: RequestBatch,
        recorder: Optional[BatchFetchRecorder] = None,
    ) -> np.ndarray:
        """A-TFIM-order (anisotropic first) colors, every parent recalculated."""
        return anisotropic_first_batch(self.chain, batch, recorder=recorder)

    def sample_atfim(
        self,
        batch: RequestBatch,
        camera_angle: np.ndarray,
        threshold: float,
    ) -> AtfimShade:
        """A-TFIM colors under camera-angle parent reuse, with the
        reuse/recalculation counts (see :func:`atfim_batch`)."""
        return atfim_batch(self.chain, batch, camera_angle, threshold)

    def verify_against_scalar(
        self,
        batch: RequestBatch,
        kind: str = "exact",
        sample_limit: int = _VERIFY_SAMPLES,
    ) -> None:
        """Drain-time parity check of the batch path against the oracle.

        ``kind`` is ``"exact"``, ``"isotropic"`` or ``"reordered"``.
        Re-filters a deterministic, evenly-strided sample of the batch
        through both paths with fetch recording on, then asserts (via
        :func:`repro.analysis.invariants.check_batch_scalar_parity`)
        that colors are bit-identical and per-fragment texel fetch sets
        (and therefore counts) agree.  Raises
        :class:`repro.analysis.invariants.InvariantError` on any
        divergence.
        """
        from repro.analysis.invariants import check_batch_scalar_parity
        from repro.texture.sampling import (
            _FetchRecorder,
            anisotropic_first_sample,
            anisotropic_sample,
            trilinear_sample,
        )

        kernels = {
            "exact": (anisotropic_batch, anisotropic_sample),
            "isotropic": (
                isotropic_batch,
                lambda chain, footprint, u, v, recorder: trilinear_sample(
                    chain, footprint.lod, u, v, recorder=recorder
                ),
            ),
            "reordered": (anisotropic_first_batch, anisotropic_first_sample),
        }
        batch_kernel, scalar_kernel = kernels[kind]
        picked = _strided(len(batch), sample_limit)
        if len(picked) == 0:
            return
        sub = batch.take(picked)
        batch_recorder = BatchFetchRecorder()
        batch_colors = batch_kernel(self.chain, sub, recorder=batch_recorder)
        batch_texels = batch_recorder.request_texels()

        entries = []
        for position in range(len(sub)):
            scalar_recorder = _FetchRecorder()
            scalar_color = scalar_kernel(
                self.chain,
                sub.footprint(position),
                float(sub.u[position]),
                float(sub.v[position]),
                recorder=scalar_recorder,
            )
            entries.append(
                (
                    int(picked[position]),
                    batch_colors[position],
                    scalar_color,
                    frozenset(batch_texels.get(position, [])),
                    frozenset(scalar_recorder.texels),
                )
            )
        check_batch_scalar_parity(entries)

    def verify_atfim(
        self,
        batch: RequestBatch,
        shade: AtfimShade,
    ) -> None:
        """Drain-time check of one A-TFIM shaded batch.

        Asserts (via
        :func:`repro.analysis.invariants.check_atfim_parent_reuse`) that
        reuses plus recalculations equal the parent slots the batch
        holds -- 4 per fragment, 8 for a two-level blend, counted from
        the batch's own LODs -- and that an evenly-strided sample of the
        recalculated parent values is bit-identical to
        :func:`~repro.texture.sampling.filter_parent_texel` under the
        recalculating fragment's footprint.
        """
        from repro.analysis.invariants import check_atfim_parent_reuse
        from repro.texture.sampling import filter_parent_texel

        low, high, blend = level_blend_arrays(self.chain, batch.lod)
        dual = ~((blend == 0.0) | (low == high))
        slots = 4 * len(batch) + 4 * int(np.count_nonzero(dual))
        samples = []
        for entry in _strided(len(shade.values), _VERIFY_SAMPLES).tolist():
            row, level, x, y = (int(item) for item in shade.recalculated[entry])
            samples.append(
                (
                    entry,
                    shade.values[entry],
                    filter_parent_texel(
                        self.chain, batch.footprint(row), level, x, y
                    ),
                )
            )
        check_atfim_parent_reuse(
            shade.reuses, shade.recalculations, slots, samples
        )


def _strided(total: int, limit: int) -> np.ndarray:
    """A deterministic, evenly-strided sample of ``range(total)``."""
    stride = max(1, total // max(1, limit))
    return np.arange(0, total, stride, dtype=np.int64)[:limit]
