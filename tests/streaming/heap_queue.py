"""The binary-heap event queue: differential oracle for the calendar queue.

:class:`repro.streaming.events.EventQueue` must dispatch in exactly the
``(time, sequence)`` order this heapq implementation produces; the
differential tests drive both on randomized workloads and
``benchmarks/bench_events.py`` times it as the baseline.  The engine
itself never runs on it.

An attached stream's items enter the heap as ordinary entries whose
sequence numbers start at ``STREAM_SEQ``, above any event's, so each is
keyed ``(t, STREAM_SEQ + i)``: on equal times every queued event comes
first and items keep their stream order — the order the calendar
queue's merge must reproduce.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError

#: First sequence number of stream items (events never reach it).
STREAM_SEQ = 1 << 62


class HeapEventQueue:
    """The original heapq-based queue (reference implementation)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = 0
        self._now = 0.0
        self._peak = 0
        self._stream_kind = ""

    @property
    def now(self) -> float:
        return self._now

    @property
    def peak_depth(self) -> int:
        return self._peak

    def schedule(self, t: float, callback: Callable[..., None], *args: Any) -> None:
        if t < self._now:
            raise SimulationError(
                f"event scheduled in the past: {t:.6f} < now {self._now:.6f}"
            )
        heapq.heappush(self._heap, (t, self._seq, callback, args))
        self._seq += 1
        if len(self._heap) > self._peak:
            self._peak = len(self._heap)

    def run_until(self, t_end: float) -> int:
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            t, _seq, callback, args = pop(heap)
            self._now = t
            callback(*args)
            processed += 1
        self._now = max(self._now, t_end)
        return processed

    def attach_stream(
        self, times: list[float], serve: Callable[[int, int], None], kind: str
    ) -> None:
        """Replace the stream: drop unserved items, push the new ones."""
        heap = self._heap
        heap[:] = [e for e in heap if e[1] < STREAM_SEQ]
        heapq.heapify(heap)
        for i, t in enumerate(times):
            heapq.heappush(heap, (t, STREAM_SEQ + i, serve, (i, i + 1)))
        self._stream_kind = kind

    def pending_by_kind(self) -> dict[str, int]:
        """Entries still in the heap, keyed by callback name or stream kind."""
        out: dict[str, int] = {}
        for _t, seq, callback, _args in self._heap:
            name = self._stream_kind if seq >= STREAM_SEQ else callback.__name__
            out[name] = out.get(name, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self._heap)
