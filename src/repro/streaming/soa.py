"""Struct-of-arrays probe buffer state for the engine.

Every probe's playout buffer and in-flight request set live in **shared
bitmaps** — one ``have`` row and one ``inflight`` row per probe inside
two ``(n_probes, capacity)`` matrices — so the per-chunk
provider-candidate enumeration can run as one array kernel over all of a
probe's partners at once.

Each matrix is a numpy view over a flat ``bytearray``.  Vectorised
kernels read the matrices; scalar hot paths (membership reads on remote
pulls, the narrow-width mesh-pull scan, the per-probe hole scan) index
or ``rfind`` the byte buffers directly, which skips numpy's per-scalar
boxing.  Both views share one memory block, so they can never disagree.

Semantics
---------
* Chunk membership below a probe's eviction frontier follows the playout
  buffer's late-arrival rule: a chunk that arrives after its window slot
  was swept stays visible until the *next* floor advance.
* RNG draws happen only in the engine and schedulers; nothing here draws
  randomness, so the state layout cannot perturb a trace.  The golden
  SHA-256 hashes (``tests/golden/*.json``) pin the engine's output.

Memory layout
-------------
Rows use a **sliding base**: probe ``pi``'s bit for chunk ``c`` lives at
column ``c - base[pi]``.  When the live edge outruns the row, the row
either *shifts* (slides left so the base catches up to the eviction
frontier minus a safety margin) or *widens* (every row reallocates to a
larger capacity — the resize-on-churn path).  Set bits that slide off the
left edge are rescued into a per-probe Python ``low`` set, so membership
answers stay exact regardless of margin sizing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: Always-False guard columns past each bitmap row's capacity.  The
#: availability gather clamps its slot index to the first guard column
#: instead of masking out-of-range slots — "past the row top" then reads
#: as "not held" with zero extra array ops.
_GUARD = 8


def _bitmap(n: int, stride: int) -> tuple[bytearray, np.ndarray]:
    """A zeroed ``(n, stride)`` bool matrix and the bytes it views."""
    buf = bytearray(n * stride)
    return buf, np.frombuffer(buf, dtype=bool).reshape(n, stride)


class SoAState:
    """Shared buffer / in-flight bitmaps for all probes of one run.

    ``have[pi, c - base[pi]]`` — probe ``pi`` holds chunk ``c``;
    ``inflight[pi, c - base[pi]]`` — a request/push for ``c`` is pending.
    ``have_buf``/``infl_buf`` are the same bits as flat bytes: chunk
    ``c`` of probe ``pi`` sits at byte ``row_off[pi] + c`` for
    ``base[pi] <= c < row_top[pi]``.  ``base``/``row_off``/``row_top``/
    ``evicted_to``/``inflight_n`` are plain Python lists (scalar hot-path
    reads); ``low`` holds rescued chunk ids below each base.
    ``shifts``/``resizes`` count the row-slide and reallocation events
    (exposed for the unit tests).
    """

    def __init__(
        self, n_probes: int, window_chunks: int, interval: float, margin: int
    ) -> None:
        self.n = n_probes
        self.window_chunks = window_chunks
        self.interval = interval
        self.margin = margin
        self.capacity = window_chunks + margin + 64
        # _GUARD always-False columns trail every row (see module top);
        # all writes stay below ``capacity``, so they never flip.
        self.stride = self.capacity + _GUARD
        self.have_buf, self.have = _bitmap(n_probes, self.stride)
        self.infl_buf, self.inflight = _bitmap(n_probes, self.stride)
        self.base: list[int] = [0] * n_probes
        self.row_off: list[int] = [pi * self.stride for pi in range(n_probes)]
        self.row_top: list[int] = [self.capacity] * n_probes
        #: Same values as ``base``, kept as an int64 vector so the
        #: availability kernel can gather partner bases in one index.
        self.base_arr = np.zeros(n_probes, dtype=np.int64)
        self.evicted_to: list[int] = [0] * n_probes
        self.inflight_n: list[int] = [0] * n_probes
        self.low: list[set[int]] = [set() for _ in range(n_probes)]
        self.shifts = 0
        self.resizes = 0

    # ------------------------------------------------------------ membership
    def has(self, pi: int, chunk: int) -> bool:
        """Whether probe ``pi`` holds ``chunk`` (late arrivals included)."""
        if chunk < self.base[pi]:
            return chunk in self.low[pi]
        return chunk < self.row_top[pi] and self.have_buf[self.row_off[pi] + chunk] == 1

    def have_add(self, pi: int, chunk: int) -> None:
        """Record a received chunk (idempotent)."""
        if chunk < self.base[pi]:
            # Below the row base: late arrivals are parked here and stay
            # visible until the next floor advance.
            self.low[pi].add(chunk)
            return
        if chunk >= self.row_top[pi]:
            self._make_room(pi, chunk)
        self.have_buf[self.row_off[pi] + chunk] = 1

    def inflight_has(self, pi: int, chunk: int) -> bool:
        return (
            self.base[pi] <= chunk < self.row_top[pi]
            and self.infl_buf[self.row_off[pi] + chunk] == 1
        )

    def inflight_add(self, pi: int, chunk: int) -> None:
        if chunk < self.base[pi]:
            # Requests are always at/above the window floor ≥ base; a
            # slot below the base means the sliding-base invariant broke.
            raise SimulationError("in-flight chunk below the row base")
        if chunk >= self.row_top[pi]:
            self._make_room(pi, chunk)
        i = self.row_off[pi] + chunk
        buf = self.infl_buf
        if not buf[i]:
            buf[i] = 1
            self.inflight_n[pi] += 1

    def inflight_discard(self, pi: int, chunk: int) -> None:
        if self.base[pi] <= chunk < self.row_top[pi]:
            i = self.row_off[pi] + chunk
            buf = self.infl_buf
            if buf[i]:
                buf[i] = 0
                self.inflight_n[pi] -= 1

    def window_floor(self, t: float) -> int:
        """Oldest chunk id inside the playout window at ``t``."""
        floor = int(t / self.interval) - self.window_chunks + 1
        return floor if floor > 0 else 0

    # ------------------------------------------------------------- tick scan
    def _evict(self, pi: int, floor: int) -> None:
        """Advance probe ``pi``'s eviction frontier to ``floor``.

        Prefix-wipes the held and in-flight bits below the floor (the
        playout eviction plus the in-flight prune, with ``inflight_n``
        adjusted by the bits cleared) and prunes the rescued low set.
        Callers only call it when ``floor`` is past the current
        frontier.
        """
        cut = floor - self.base[pi]
        if cut > 0:
            if cut > self.capacity:
                cut = self.capacity
            off = pi * self.stride
            zeros = bytes(cut)
            if self.inflight_n[pi]:
                infl = self.infl_buf
                dropped = infl.count(1, off, off + cut)
                if dropped:
                    self.inflight_n[pi] -= dropped
                    infl[off : off + cut] = zeros
            self.have_buf[off : off + cut] = zeros
        low = self.low[pi]
        if low:
            self.low[pi] = {c for c in low if c >= floor}
        self.evicted_to[pi] = floor

    def tick_scan(
        self, pi: int, t: float, live_lag: int, limit: int | None
    ) -> tuple[int, list[int]]:
        """Evict + missing scan for one probe.

        Returns the window floor and the missing (not held, not in flight)
        chunks of ``[floor, live - live_lag]`` newest-first, truncated to
        the newest ``limit``.  Holes are derived statelessly — for ids
        at/above the floor, *missing* ≡ *bit not set* — because held bits
        are only ever cleared by the eviction prefix wipe below the floor.
        The scan walks the row's bytes newest-first with ``rfind``, so its
        cost is one C search per hole (plus one per in-flight skip), not
        one per window slot.
        """
        live = int(t / self.interval)
        floor = live - self.window_chunks + 1
        if floor < 0:
            floor = 0
        if floor > self.evicted_to[pi]:
            self._evict(pi, floor)
        newest = live - live_lag
        if newest < floor:
            return floor, []
        if newest >= self.row_top[pi]:
            # Starvation-safe: grow/slide before scanning so the window
            # always fits (a partnerless probe never sets bits, so only
            # the scan itself advances its base).
            self._make_room(pi, newest)
        off = self.row_off[pi]
        start = off + floor
        end = off + newest + 1
        find = self.have_buf.rfind
        infl = self.infl_buf
        out: list[int] = []
        if limit is None:
            limit = -1
        while True:
            i = find(0, start, end)
            if i < 0:
                break
            if not infl[i]:
                out.append(i - off)
                if len(out) == limit:
                    break
            end = i
        return floor, out

    # ------------------------------------------------------------ reshaping
    def _make_room(self, pi: int, top_chunk: int) -> None:
        """Make ``top_chunk`` addressable for probe ``pi``.

        First choice is a row *shift* (slide the base up to the eviction
        frontier minus the margin); when even that cannot fit the chunk,
        every row *widens* to the next power-of-two-ish capacity (churn
        storms stall eviction frontiers, so one probe's backlog can force
        the shared reallocation — the resize-on-churn test path).
        """
        b = self.base[pi]
        new_base = self.evicted_to[pi] - self.margin
        if new_base < b:
            new_base = b
        if top_chunk - new_base >= self.capacity:
            need = top_chunk - new_base + 1 + 64
            new_cap = self.capacity
            while new_cap < need:
                new_cap *= 2
            stride = new_cap + _GUARD
            have_buf, have = _bitmap(self.n, stride)
            infl_buf, inflight = _bitmap(self.n, stride)
            # The old guard columns are False, so copying whole old rows
            # leaves every new column past the old capacity clear.
            have[:, : self.stride] = self.have
            inflight[:, : self.stride] = self.inflight
            self.have_buf, self.have = have_buf, have
            self.infl_buf, self.inflight = infl_buf, inflight
            self.capacity = new_cap
            self.stride = stride
            self.row_off = [p * stride - self.base[p] for p in range(self.n)]
            self.row_top = [bp + new_cap for bp in self.base]
            self.resizes += 1
        shift = new_base - b
        if shift > 0:
            cap = self.capacity
            have_row = self.have[pi]
            infl_row = self.inflight[pi]
            if shift < cap:
                # Rescue still-set bits sliding off the left edge: they are
                # late arrivals below the frontier that must stay visible
                # until the next floor advance.
                if have_row[:shift].any():
                    ids = np.flatnonzero(have_row[:shift]) + b
                    self.low[pi].update(ids.tolist())
                dropped = int(np.count_nonzero(infl_row[:shift]))
                if dropped:  # provably unreachable; keeps the count exact
                    self.inflight_n[pi] -= dropped
                have_row[: cap - shift] = have_row[shift:cap].copy()
                have_row[cap - shift : cap] = False
                infl_row[: cap - shift] = infl_row[shift:cap].copy()
                infl_row[cap - shift : cap] = False
            else:
                if have_row.any():
                    ids = np.flatnonzero(have_row) + b
                    self.low[pi].update(ids.tolist())
                self.inflight_n[pi] -= int(np.count_nonzero(infl_row))
                have_row[:] = False
                infl_row[:] = False
            self._set_base(pi, new_base)
            self.shifts += 1

    def _set_base(self, pi: int, base: int) -> None:
        """Move probe ``pi``'s row base (bits are the caller's business)."""
        self.base[pi] = base
        self.base_arr[pi] = base
        self.row_off[pi] = pi * self.stride - base
        self.row_top[pi] = base + self.capacity


def get_engine(name: str | None = None) -> type:
    """The engine class every run constructs.

    There is one engine core; ``name`` is accepted and ignored so callers
    that wrap engine construction (the campaign benchmark's tracer) keep a
    stable seam.  :func:`repro.streaming.engine.simulate` looks this up at
    call time.
    """
    from repro.streaming.engine import Engine

    return Engine


__all__ = ["SoAState", "get_engine"]
