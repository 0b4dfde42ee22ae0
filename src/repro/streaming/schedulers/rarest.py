"""Rarest-first pull with buffer-map exchange.

After the p2pstream ``peer_dbs_rarest`` design: each peer tracks which
chunks its neighbours advertise (here: the engine's ground-truth partner
context, which *is* the periodically-exchanged buffer map) and requests
the missing chunk with the **lowest advertised availability** first —
spreading rare chunks before they age out instead of chasing the live
edge.  Ties break deterministically by ascending chunk id.

A chunk nobody advertises is never requested (there is no one to serve
it), which is the invariant the differential suite checks: every
delivered chunk was advertised by its provider's buffer map at request
time.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.schedulers.base import ChunkScheduler


class RarestFirstScheduler(ChunkScheduler):
    """Ascending advertised-availability request order."""

    name = "rarest"
    #: Rarity ordering needs the whole window, not just the newest holes.
    truncate_scan = False

    @staticmethod
    def order_candidates(holes: list[int], counts: dict[int, int]) -> list[int]:
        """Request order: rarest first, ties broken by ascending chunk id.

        ``counts`` maps chunk id → number of advertising partners.
        Chunks with no advertiser are dropped (nobody can serve them);
        the sort key ``(count, chunk)`` makes the order a pure function
        of its inputs — the property suite pins both laws.
        """
        return sorted(
            (c for c in holes if counts.get(c, 0) > 0),
            key=lambda c: (counts[c], c),
        )

    def schedule_requests(self, probe, t, lookahead, partners, slots) -> None:
        """Rarest-first against the shared arrays.

        The buffer-map pass is one availability-matrix build; the
        advertiser counts are its row counts, and the ``(count, chunk)``
        rarity order is a lexsort over the advertised rows — the same
        unique sort keys as ``order_candidates``, so the same order.
        Every candidate chunk consumes an attempt; advertiser counts
        ignore pipelining caps, and the caps apply when a chunk's turn
        comes, against the busy state *at that moment*.
        """
        if not lookahead:
            return
        eng = self._engine
        chunks_arr = np.array(lookahead, dtype=np.int64)
        ctx = eng._partner_ctx(probe.pi, partners)
        A = eng._availability(ctx, chunks_arr, t)
        counts = np.count_nonzero(A, axis=1)
        sel = counts.nonzero()[0]
        if sel.size == 0:
            return
        order = sel[np.lexsort((chunks_arr[sel], counts[sel]))].tolist()
        self._request_rows(
            probe, t, ctx, A, lookahead, order, slots, budget=eng._max_attempts
        )
