"""Deadline-driven (earliest-deadline-first) chunk scheduling.

After the p2pstream ``peer_dbs_edf`` design: every missing chunk has a
playout deadline — the moment it slides out of the playout buffer and is
lost to the viewer — and the scheduler requests the chunk whose deadline
expires soonest, instead of the newest one.  A chunk whose deadline has
already passed is *never* requested: the bytes could not arrive in time
to be played, so spending a request slot on it only steals uplink from
chunks that can still make it.

Deadline model: chunk ``c`` is generated at ``c · Δ`` (the chunk-clock
interval) and leaves a ``W``-chunk playout window when the live edge
reaches ``c + W``, i.e. ``deadline(c) = (c + W) · Δ``.  Deadlines are
strictly increasing in the chunk id, so EDF order over a hole set is
simply ascending chunk id — which also makes the within-tick request
sequence monotone in deadline, the invariant the differential suite
checks.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.schedulers.base import ChunkScheduler


def playout_deadline(chunk: int, interval: float, window_chunks: int) -> float:
    """When ``chunk`` slides out of a ``window_chunks``-wide buffer."""
    return (chunk + window_chunks) * interval


class EdfScheduler(ChunkScheduler):
    """Earliest-playout-deadline-first request order."""

    name = "edf"
    #: EDF wants the oldest (most urgent) holes, which a newest-first
    #: truncated scan would drop — take the whole window.
    truncate_scan = False

    @staticmethod
    def order_candidates(
        holes: list[int], now: float, interval: float, window_chunks: int
    ) -> list[int]:
        """Request order: ascending deadline, expired chunks excluded.

        Pure function of its inputs (no RNG, no engine state); the
        property suite pins the subset, ordering and never-past-deadline
        laws directly against this.
        """
        live = sorted(
            c for c in holes if playout_deadline(c, interval, window_chunks) > now
        )
        return live

    def schedule_requests(self, probe, t, lookahead, partners, slots) -> None:
        """Deadline order against the shared arrays.

        ``(chunk + W) * interval`` over an int64 array is the elementwise
        IEEE twin of the scalar ``playout_deadline``, so the expired-chunk
        filter is exact; deadlines increase strictly with the chunk id, so
        the ascending-id sort *is* the deadline order (unique keys — no
        tie-break ambiguity).  Every unexpired chunk consumes an attempt,
        holder-less ones included.
        """
        if not lookahead:
            return
        eng = self._engine
        chunks_all = np.array(lookahead, dtype=np.int64)
        live = (chunks_all + eng._soa.window_chunks) * eng._av_chunk_interval > t
        sel = live.nonzero()[0]
        if sel.size == 0:
            return
        chunks_arr = chunks_all[sel[np.argsort(chunks_all[sel], kind="stable")]]
        ctx = eng._partner_ctx(probe.pi, partners)
        A = eng._availability(ctx, chunks_arr, t)
        self._request_rows(
            probe, t, ctx, A, chunks_arr.tolist(), range(len(chunks_arr)), slots,
            budget=eng._max_attempts,
        )
