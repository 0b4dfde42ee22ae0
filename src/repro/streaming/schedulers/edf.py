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
        soa = eng._soa
        window_chunks = soa.window_chunks
        interval = eng._av_chunk_interval
        if lookahead is soa.scan_list:
            chunks_all = soa.scan_arr
        else:
            chunks_all = np.asarray(lookahead, dtype=np.int64)
        sel = ((chunks_all + window_chunks) * interval > t).nonzero()[0]
        if sel.size == 0:
            return
        sel = sel[np.argsort(chunks_all[sel], kind="stable")]
        chunks_arr = chunks_all[sel]
        ctx = eng._partner_ctx(probe.pi, partners)
        A = eng._availability(ctx, chunks_arr, t)
        # Flat advertised-pair walk over the plan-order permutation (see
        # the mesh-pull kernel); rows come back in ascending row order,
        # matching the deadline iteration, and holder-less chunks still
        # consume an attempt below.  Holders are C-level slices of the
        # flat partner list minus ``busy_over`` (the at-cap providers).
        ri, cj = A[:, ctx["plan_cols"]].nonzero()
        gs_all = ctx["plan_g"][cj].tolist()
        chunks_list = chunks_arr.tolist()
        nrows = len(chunks_list)
        bounds = np.searchsorted(ri, np.arange(nrows + 1)).tolist()
        busy_over = probe.busy_over
        attempts = 0
        max_attempts = eng._max_attempts
        for i in range(nrows):
            if slots <= 0 or attempts >= max_attempts:
                break
            attempts += 1
            s0 = bounds[i]
            s1 = bounds[i + 1]
            if s0 == s1:
                continue
            if busy_over:
                holders = [g for g in gs_all[s0:s1] if g not in busy_over]
            else:
                holders = gs_all[s0:s1]
            if not holders:
                continue
            pick = self._pick_holder(holders, ctx["score_of"])
            if eng._request_chunk(probe, holders[pick], chunks_list[i], t):
                slots -= 1
