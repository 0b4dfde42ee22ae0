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
        advertiser counts are its row sums, and the ``(count, chunk)``
        rarity order is a lexsort over them — the same unique sort keys as
        ``order_candidates``, so the same order.  Every candidate chunk
        consumes an attempt; advertiser counts ignore pipelining caps, and
        the caps apply when a chunk's turn comes, against the busy state
        *at that moment*.
        """
        if not lookahead:
            return
        eng = self._engine
        soa = eng._soa
        ctx = eng._partner_ctx(probe.pi, partners)
        if lookahead is soa.scan_list:
            chunks_arr = soa.scan_arr
        else:
            chunks_arr = np.asarray(lookahead, dtype=np.int64)
        A = eng._availability(
            ctx, chunks_arr, t, cmin=lookahead[-1], cmax=lookahead[0]
        )
        # One flat nonzero over the plan-order column permutation yields
        # both the advertiser counts (bincount over the row ids — the
        # same integers ``A.sum(axis=1)`` gives) and the advertised
        # pairs; grouping the pairs by row keeps each chunk's advertisers
        # in plan order, without walking silent columns.
        ri, cj = A[:, ctx["plan_cols"]].nonzero()
        if ri.size == 0:
            return
        counts = np.bincount(ri, minlength=A.shape[0])
        sel = (counts > 0).nonzero()[0]
        order = sel[np.lexsort((chunks_arr[sel], counts[sel]))]
        gs_all = ctx["plan_g"][cj].tolist()
        bounds = np.searchsorted(ri, np.arange(A.shape[0] + 1)).tolist()
        busy_over = probe.busy_over
        chunks_list = chunks_arr.tolist()
        attempts = 0
        max_attempts = eng._max_attempts
        for i in order.tolist():
            if slots <= 0 or attempts >= max_attempts:
                break
            attempts += 1
            s0 = bounds[i]
            s1 = bounds[i + 1]
            if busy_over:
                holders = [g for g in gs_all[s0:s1] if g not in busy_over]
            else:
                holders = gs_all[s0:s1]
            if not holders:
                continue  # every advertiser is pipeline-capped this tick
            pick = self._pick_holder(holders, ctx["score_of"])
            if eng._request_chunk(probe, holders[pick], chunks_list[i], t):
                slots -= 1
