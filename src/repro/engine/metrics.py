"""Exact (interval-accounting) utilization and throughput metrics.

The paper samples ``nvidia-smi`` and ``dstat``; this reproduction records
busy intervals and aggregates them, which yields the same averages and time
series without sampling noise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .device import BusyInterval

__all__ = [
    "IntervalRecorder",
    "utilization_series",
    "average_utilization",
    "ThroughputMeter",
]


class IntervalRecorder:
    """Thread-safe busy-interval collector (CPU workers, devices, disks)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._intervals: List[BusyInterval] = []

    def record(self, start: float, end: float, tag: str = "busy") -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        with self._lock:
            self._intervals.append(BusyInterval(start=start, end=end, tag=tag))

    @property
    def intervals(self) -> List[BusyInterval]:
        with self._lock:
            return list(self._intervals)

    def busy_seconds(self) -> float:
        return sum(i.duration for i in self.intervals)


def average_utilization(
    intervals: Iterable[BusyInterval],
    start: float,
    end: float,
    capacity: float = 1.0,
) -> float:
    """Mean busy fraction over [start, end] for a resource of ``capacity``
    parallel units (e.g. CPU cores)."""
    if end <= start or capacity <= 0:
        return 0.0
    busy = 0.0
    for interval in intervals:
        lo = max(start, interval.start)
        hi = min(end, interval.end)
        if hi > lo:
            busy += hi - lo
    return min(1.0, busy / ((end - start) * capacity))


def utilization_series(
    intervals: Iterable[BusyInterval],
    start: float,
    end: float,
    bucket: float = 1.0,
    capacity: float = 1.0,
) -> List[Tuple[float, float]]:
    """Per-bucket busy fraction: the data behind the paper's usage plots.

    Each interval is clipped to ``[start, end]`` and split at bucket edges.
    The clips are conditionals that pick exactly what ``max``/``min``
    would, the edges are computed once, and an interval inside one bucket
    builds no ``range``.  Sums are still taken interval by interval, so
    every bucket's float total is bit-identical to a plain ``max``/``min``
    loop's.
    """
    if bucket <= 0:
        raise ValueError(f"bucket must be positive, got {bucket!r}")
    if end <= start:
        return []
    n = int((end - start) / bucket) + 1
    busy = [0.0] * n
    edges = [start + i * bucket for i in range(n + 1)]
    top = n - 1
    for interval in intervals:
        lo = interval.start
        lo = lo if lo > start else start  # max(start, lo)
        hi = interval.end
        hi = hi if hi < end else end  # min(end, hi)
        if hi <= lo:
            continue
        first = int((lo - start) / bucket)
        last = int((hi - start) / bucket)
        if last > top:
            last = top
        for i in range(first, last + 1) if last != first else (first,):
            edge = edges[i]
            b_lo = edge if edge > lo else lo  # max(lo, edge)
            edge = edges[i + 1]
            b_hi = edge if edge < hi else hi  # min(hi, edge)
            if b_hi > b_lo:
                busy[i] += b_hi - b_lo
    return [
        (edges[i], min(1.0, b / (bucket * capacity))) for i, b in enumerate(busy)
    ]


@dataclass
class ThroughputMeter:
    """Cumulative trained-bytes meter (the paper's MB/s model throughput)."""

    events: List[Tuple[float, int]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, t: float, nbytes: int) -> None:
        with self._lock:
            self.events.append((t, nbytes))

    def total_bytes(self) -> int:
        with self._lock:
            return sum(n for _t, n in self.events)

    def series(self, bucket: float = 1.0) -> List[Tuple[float, float]]:
        """(t, bytes/s) aggregated in buckets."""
        if bucket <= 0:
            raise ValueError(f"bucket must be positive, got {bucket!r}")
        with self._lock:
            events = sorted(self.events)
        if not events:
            return []
        horizon = events[-1][0]
        n = int(horizon / bucket) + 1
        volume = [0.0] * n
        for t, nbytes in events:
            volume[min(n - 1, int(t / bucket))] += nbytes
        return [(i * bucket, v / bucket) for i, v in enumerate(volume)]

    def average_rate(self, start: float, end: float) -> float:
        """Mean bytes/s over [start, end]."""
        if end <= start:
            return 0.0
        with self._lock:
            total = sum(n for t, n in self.events if start <= t <= end)
        return total / (end - start)
