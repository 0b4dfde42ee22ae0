"""Discrete-event core: a deterministic calendar-queue scheduler.

Events are ``(time, sequence, callback, args)`` tuples; the monotonically
increasing sequence number makes simultaneous events fire in scheduling
order, which keeps runs bit-reproducible.

:class:`EventQueue` is a *calendar queue* (Brown's bucketed priority
queue, the structure ns-2-style simulators use for tick-dominated event
mixes): pending events hash into fixed-width time buckets, the drain
walks buckets in ascending index order, and each bucket is sorted by
``(time, sequence)`` when it becomes the active (draining) bucket.

Determinism argument — why dispatch order is provably identical to the
binary heap this replaced:

* the bucket index ``int(t / width)`` is a monotone function of ``t``,
  so ascending bucket order never inverts two events with different
  times in different buckets;
* within a bucket, the sorted run is keyed on the exact ``(t, seq)``
  tuples the heap compared, so same-bucket events (including exact-time
  ties) drain in the heap's order;
* callbacks that schedule into the active bucket insert into the sorted
  run (``bisect.insort``); a new event carries ``t >= now`` and a fresh
  (maximal) sequence number, so its slot is always at or after the drain
  pointer — consumed prefixes are never perturbed.

Together these give the same total order ``(t, seq)`` the heap produced,
with O(1) amortised scheduling instead of O(log n) sift operations.

An *attached stream* (:meth:`EventQueue.attach_stream`) is a time-sorted
run of items handed over in one piece — the engine's remote pulls of one
demand-rebalance window.  ``run_until`` merges it with the buckets: before
it dispatches a queued entry at time ``t`` it serves, in one call, every
stream item with time ``< t``; at the horizon it serves the items
``<= t_end``.  The merged order is the heap's order with stream items
keyed ``(t, 1, i)`` and queued events ``(t, 0, seq)``:

* stream items are sorted, so they leave in ascending ``(t, i)`` order;
* an item is served exactly when every queued event with a smaller time
  has been dispatched and none with a larger one has, so only exact time
  ties are ordered by the key's middle field — the queued event first;
* a stream's serve callback schedules nothing, so the buckets cannot
  change while items are served.

The engine's pulls rely on that last point: a pull reads the probe's
buffer and writes only its uplink horizon and the transfer log, so
serving it from a stream rather than a queued entry preserves every
interleaving the ``(t, seq)`` order gave, ties aside.

The original heapq implementation lives on in the test suite
(``tests/streaming/heap_queue.py``) as the differential-testing oracle
and the microbenchmark baseline (``benchmarks/bench_events.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

#: Default bucket width (seconds).  The engine's mix is dominated by
#: per-probe ticks (0.2–0.5 s intervals) interleaved with chunk arrivals
#: and remote pulls; 50 ms buckets won an A/B sweep over 12.5–400 ms —
#: wide enough to amortise bucket bookkeeping across a sorted run of a
#: few dozen entries, narrow enough that sorting stays insertion-cheap.
DEFAULT_BUCKET_WIDTH_S = 0.05

_INF = float("inf")


class EventQueue:
    """Deterministic calendar-queue event scheduler.

    Same contract as the heapq-based queue it replaced: ``schedule`` is
    rejected for times before ``now``, ``run_until`` drains events with
    ``time <= t_end`` in exact ``(time, sequence)`` order and returns the
    number dispatched.  Additionally keeps per-kind scheduling/dispatch
    counters (keyed by callback ``__name__``) for observability — pure
    accounting that cannot perturb event order.
    """

    def __init__(self, bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S) -> None:
        if bucket_width_s <= 0:
            raise SimulationError("bucket width must be positive")
        self._inv_width = 1.0 / bucket_width_s
        #: bucket index -> unsorted list of (t, seq, callback, args).
        self._buckets: dict[int, list] = {}
        #: min-heap of pending (non-active) bucket indices; each index is
        #: pushed exactly once per bucket-list creation and popped at
        #: activation, so it never holds duplicates.
        self._bucket_heap: list[int] = []
        #: The active bucket: sorted ascending by (t, seq), drained via a
        #: local index in run_until (no pop(0) shifting).  Deactivated
        #: (remainder pushed back into ``_buckets``) before run_until
        #: returns, so schedule() outside a drain only ever appends.
        self._active: list | None = None
        self._active_idx = -1
        self._seq = 0
        self._now = 0.0
        self._n = 0
        self._peak = 0
        self._dispatched_by_kind: dict[str, int] = {}
        #: The attached stream: sorted item times, the serve callback,
        #: the kind its items count under, and the first unserved index.
        #: ``stream_next`` is the time of that item (``inf`` when no
        #: stream is attached) — the one field the drain reads per event.
        self._stream_times: list[float] = []
        self._stream_serve: Callable[[int, int], None] | None = None
        self._stream_kind = ""
        self._stream_pos = 0
        self.stream_next = _INF

    @property
    def now(self) -> float:
        """Current simulation time (time of the last popped event)."""
        return self._now

    @property
    def peak_depth(self) -> int:
        """Deepest the queue has ever been (pending events high-water mark)."""
        return self._peak

    @property
    def scheduled_by_kind(self) -> dict[str, int]:
        """Events scheduled so far, keyed by callback name.

        Derived as dispatched + still-pending rather than counted per
        ``schedule`` call — the scheduling hot path pays nothing, and the
        walk over pending events is O(queue depth) only when asked.
        (Mid-drain, entries of the active bucket at exactly the current
        time may be attributed to dispatched one event early; outside a
        ``run_until`` call the split is exact.)  Unserved items of the
        attached stream count as pending events of its kind.
        """
        out = dict(self._dispatched_by_kind)
        if self._stream_serve is not None:
            kind = self._stream_kind
            out[kind] = out.get(kind, 0) + self.stream_pending
        pending = [e for bucket in self._buckets.values() for e in bucket]
        if self._active is not None:
            now = self._now
            pending.extend(e for e in self._active if e[0] > now)
        for entry in pending:
            try:
                name = entry[2].__name__
            except AttributeError:
                name = "<anonymous>"
            out[name] = out.get(name, 0) + 1
        return out

    @property
    def dispatched_by_kind(self) -> dict[str, int]:
        """Events dispatched so far, keyed by callback name."""
        return dict(self._dispatched_by_kind)

    @property
    def stream_pending(self) -> int:
        """Items of the attached stream not yet served."""
        return len(self._stream_times) - self._stream_pos

    def attach_stream(
        self, times: list[float], serve: Callable[[int, int], None], kind: str
    ) -> None:
        """Attach a time-sorted stream of items, replacing any attached one.

        ``run_until`` calls ``serve(i, j)`` to dispatch items ``[i, j)``
        in index order, merged with the queued events by time (queued
        events first on equal times; see the module docstring).  Each
        item counts as one dispatched event of ``kind``.  ``serve`` must
        not schedule: the merge assumes the buckets stay put while it
        runs.  Unserved items of a replaced stream are dropped — a
        caller that needs them carries them into ``times``.  The stream
        is detached, and its list and callback released, once its last
        item is served.
        """
        if times and times[0] < self._now:
            raise SimulationError(
                f"stream starts in the past: {times[0]:.6f} < now {self._now:.6f}"
            )
        if not times:
            self._detach_stream()
            return
        self._stream_times = times
        self._stream_serve = serve
        self._stream_kind = kind
        self._stream_pos = 0
        self.stream_next = times[0]

    def _detach_stream(self) -> None:
        self._stream_times = []
        self._stream_serve = None
        self._stream_pos = 0
        self.stream_next = _INF

    def _serve_stream(self, limit: float, inclusive: bool) -> int:
        """Serve the stream items before ``limit`` (or at it, if inclusive)."""
        times = self._stream_times
        i = self._stream_pos
        if inclusive:
            j = bisect_right(times, limit, i)
        else:
            j = bisect_left(times, limit, i)
        self._stream_serve(i, j)
        self._now = times[j - 1]
        counts = self._dispatched_by_kind
        kind = self._stream_kind
        counts[kind] = counts.get(kind, 0) + (j - i)
        if j == len(times):
            self._detach_stream()
        else:
            self._stream_pos = j
            self.stream_next = times[j]
        return j - i

    def schedule(self, t: float, callback: Callable[..., None], *args: Any) -> None:
        """Enqueue ``callback(*args)`` to fire at time ``t``.

        Scheduling into the past is an engine bug and raises immediately —
        silently clamping would hide causality violations.
        """
        if t < self._now:
            raise SimulationError(
                f"event scheduled in the past: {t:.6f} < now {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (t, seq, callback, args)
        idx = int(t * self._inv_width)
        if idx == self._active_idx:
            # Mid-drain insert: t >= now and seq is maximal, so the slot
            # is at or after the drain position (see module docstring).
            insort(self._active, entry)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heappush(self._bucket_heap, idx)
            else:
                bucket.append(entry)
        n = self._n + 1
        self._n = n
        if n > self._peak:
            self._peak = n

    def run_until(self, t_end: float) -> int:
        """Drain events with time ≤ ``t_end``; returns events processed.

        The drain index is a local: callbacks can only ``insort`` *behind*
        it (their entries carry ``t >= now`` and a maximal sequence number,
        so every already-dispatched entry compares strictly smaller), which
        is why no per-event pointer write-back is needed.  A callback can
        also create a new pending bucket, but only at an index ≥ the active
        one — the outer heap check stays correct mid-drain.

        The attached stream is read through ``stream_next`` before each
        dispatch, so a stream a callback attaches takes part from the
        next entry on.
        """
        processed = 0
        buckets = self._buckets
        heap = self._bucket_heap
        counts = self._dispatched_by_kind
        end_idx = int(t_end * self._inv_width)
        while heap and heap[0] <= end_idx:
            idx = heappop(heap)
            run = buckets.pop(idx)
            run.sort()
            self._active = run
            self._active_idx = idx
            i = 0
            # A plain for-loop reads the list by index each step, so
            # entries a callback insorts behind the cursor (always at or
            # after it — see the module docstring) are picked up exactly
            # as the indexed loop this replaces did.
            for entry in run:
                t = entry[0]
                if t > t_end:
                    break
                if self.stream_next < t:
                    processed += self._serve_stream(t, False)
                i += 1
                self._now = t
                callback = entry[2]
                callback(*entry[3])
                self._n -= 1
                try:
                    name = callback.__name__
                except AttributeError:
                    name = "<anonymous>"
                counts[name] = counts.get(name, 0) + 1
            processed += i
            self._active = None
            self._active_idx = -1
            if i < len(run):
                # Horizon hit mid-bucket: push the remainder back so
                # future schedule() calls go through the uniform append
                # path and the next drain re-selects this bucket first.
                buckets[idx] = run[i:]
                heappush(heap, idx)
                break
        if self.stream_next <= t_end:
            processed += self._serve_stream(t_end, True)
        if t_end > self._now:
            self._now = t_end
        return processed

    def clear(self) -> None:
        """Drop every pending event and detach the stream; ``now`` and the
        counters stay.

        Pending entries and the stream hold their callbacks, often bound
        methods of the object that owns this queue, so clearing a
        finished run's queue lets that owner be freed by reference
        counting.  Dropped events and stream items no longer count
        towards :attr:`scheduled_by_kind`.
        """
        self._detach_stream()
        self._buckets.clear()
        self._bucket_heap.clear()
        self._active = None
        self._active_idx = -1
        self._n = 0

    def __len__(self) -> int:
        return self._n
