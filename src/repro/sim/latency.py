"""Latency records and histogram utilities.

All quantities here are GPU cycles (:data:`repro.units.Cycles`); the
histogram buckets are powers of two of a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.units import Cycles


@dataclass(frozen=True)
class LatencyRecord:
    """One request's timeline through the system.

    The paper measures texture-filtering latency "from the time when a
    shader sends out the texel fetching request to when it receives the
    final texture output" (section VII-A); a :class:`LatencyRecord`
    captures exactly that interval plus the issue time for ordering.
    """

    issue_cycle: Cycles
    complete_cycle: Cycles

    @property
    def latency(self) -> Cycles:
        return Cycles(self.complete_cycle - self.issue_cycle)

    def __post_init__(self) -> None:
        if self.complete_cycle < self.issue_cycle:
            raise ValueError("completion precedes issue")


def bucket_index(latency: Cycles, num_buckets: int) -> int:
    """The power-of-two bucket holding ``latency``, in O(1).

    Bucket 0 holds ``[0, 1)``, bucket ``k`` holds ``[2**(k-1), 2**k)``,
    and the last bucket absorbs everything beyond the range.  For a
    non-negative float, ``int(latency).bit_length()`` is exactly the
    index the old linear threshold scan produced: truncation maps
    ``[2**k, 2**(k+1))`` onto integers with bit length ``k + 1``, and
    sub-cycle latencies truncate to 0 with bit length 0.
    """
    return min(int(latency).bit_length(), num_buckets - 1)


class LatencyHistogram:
    """Power-of-two bucketed latency histogram with exact aggregates."""

    total: Cycles
    max_latency: Cycles

    def __init__(self, name: str, num_buckets: int = 24) -> None:
        self.name = name
        self.buckets: List[int] = [0] * num_buckets
        self.count = 0
        self.total = Cycles(0.0)
        self.max_latency = Cycles(0.0)

    def observe(self, latency: Cycles) -> None:
        if latency < 0:
            raise ValueError("negative latency")
        self.count += 1
        self.total += latency
        if latency > self.max_latency:
            self.max_latency = latency
        self.buckets[bucket_index(latency, len(self.buckets))] += 1

    def observe_batch(self, latencies: np.ndarray) -> None:
        """Record a batch of latencies, bit-identical to observing each.

        The aggregates replicate :meth:`observe`'s sequential updates
        exactly:

        * ``total``: ``np.cumsum`` is a strict left fold (unlike
          ``np.add.reduce``, which sums pairwise), so the cumulative sum
          of ``[total, l0, l1, ...]`` ends on exactly the value the
          sequential ``total += l`` loop produces.
        * ``max``: float max is order-independent.
        * buckets: for an integer-valued non-negative float ``x``,
          ``np.frexp(x)[1]`` equals ``int(x).bit_length()`` exactly
          (both count the position of the leading bit), so the batched
          bucketing reproduces :func:`bucket_index` lane for lane.
        """
        latencies = np.asarray(latencies, dtype=np.float64)
        if latencies.size == 0:
            return
        if bool(np.any(latencies < 0)):
            raise ValueError("negative latency")
        self.count += int(latencies.size)
        # np.cumsum is a strict sequential accumulation (no pairwise tree,
        # unlike np.sum); prepending the running total makes this exactly
        # the oracle's ordered left fold, bit for bit.
        self.total = Cycles(
            float(np.cumsum(np.concatenate(([self.total], latencies)))[-1])
        )
        batch_max = float(np.max(latencies))
        if batch_max > self.max_latency:
            self.max_latency = Cycles(batch_max)
        truncated = latencies.astype(np.int64)
        exponents = np.where(
            truncated > 0, np.frexp(truncated.astype(np.float64))[1], 0
        )
        indices = np.minimum(exponents, len(self.buckets) - 1)
        counts = np.bincount(indices, minlength=len(self.buckets))
        for index, population in enumerate(counts):
            if population:
                self.buckets[index] += int(population)

    @property
    def mean(self) -> Cycles:
        if self.count == 0:
            return Cycles(0.0)
        return Cycles(self.total / self.count)

    def percentile_bucket_upper_bound(self, fraction: float) -> Cycles:
        """Upper bound (in cycles) of the bucket containing the percentile.

        Histograms are bucketed, so this is a bound rather than an exact
        percentile -- sufficient for tail-latency sanity checks in tests.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return Cycles(0.0)
        target = fraction * self.count
        seen = 0
        for index, population in enumerate(self.buckets):
            seen += population
            if seen >= target:
                return Cycles(float(2 ** index))
        return Cycles(float(2 ** (len(self.buckets) - 1)))


def makespan(records: Sequence[LatencyRecord]) -> Cycles:
    """Latest completion time across a batch of records (0 if empty)."""
    latest = 0.0
    for record in records:
        if record.complete_cycle > latest:
            latest = record.complete_cycle
    return Cycles(latest)
