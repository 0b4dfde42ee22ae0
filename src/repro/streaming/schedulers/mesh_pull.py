"""The original mesh-pull chunk-selection core, as a strategy object.

This is the selection loop that used to live inline in the engine tick;
``tests/golden/engine_trace_hashes.json`` (generated before it was
extracted) pins every byte of its trace.

Policy: walk the missing chunks newest-first, find the partners that can
serve each (remotes by their diffusion delay and ready time, probe
partners through their buffer bitmaps), and pick one provider per chunk
with the awareness-weighted softmax (or a uniform exploration draw).
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.streaming.schedulers.base import ChunkScheduler


def _rank_remotes(delays: list[float], ready: list[float], t: float) -> list:
    """A narrow context's delay-rank state at time ``t``.

    Returns ``[t_next, ds, rank, memo]``, valid until ``t`` reaches
    ``t_next``, the next remote's ready time (event time never runs
    backwards):

    * ``ds`` — the delays of the remotes with ``ready <= t``, ascending;
    * ``rank`` — each remote column's position in ``ds``, or the column
      count (never below a holder count) for a remote not yet ready;
    * ``memo`` — an empty holder-set memo for the kernel to fill.

    A remote holds the chunk generated at ``gen`` iff it is ready and
    ``fl(gen + delay) <= t`` (and the chunk is inside retention).  IEEE
    addition is monotone, so the ready holders are always the first
    ``c`` entries of ``ds`` for some ``c``, and equal delays share the
    same side of the cut.
    """
    n = len(delays)
    order = sorted((k for k in range(n) if ready[k] <= t), key=delays.__getitem__)
    rank = [n] * n
    for i, k in enumerate(order):
        rank[k] = i
    t_next = min((r for r in ready if r > t), default=math.inf)
    return [t_next, [delays[k] for k in order], rank, {}]


class MeshPullScheduler(ChunkScheduler):
    """Newest-first mesh-pull selection (the paper's baseline core)."""

    name = "mesh-pull"
    truncate_scan = True

    @staticmethod
    def order_candidates(holes: list[int]) -> list[int]:
        """Request order over a newest-first hole list: unchanged."""
        return list(holes)

    def schedule_requests(self, probe, t, lookahead, partners, slots) -> None:
        """Newest-first selection against the shared arrays.

        Narrow partner sets (the context carries a scalar plan) walk the
        chunks one by one, here; wide ones build one availability matrix
        and hand its rows, newest first and without an attempt budget
        (the tick scan is already truncated), to :meth:`_request_rows`.
        Both visit holders in ascending partner-column order, skip empty
        holder sets without touching an RNG and draw the provider with
        the same explore/CDF code, so the choice between them never
        changes a trace.

        Narrow scan: a visited chunk's remote holders are the first
        ``c`` ready remotes by delay (see :func:`_rank_remotes`), ``c``
        found by one bisection over the sorted delays and settled with
        the oracle's own compare ``gen + delay <= t``, so rounding in
        ``t - gen`` cannot move it.  Aged-out chunks have ``c = 0``.  Probe
        bits come straight from the shared byte buffer — scanned chunks
        sit at or above every partner's row base, and chunks past the row
        top read as not held — folded into a mask ``pm``.  Within one
        rank state ``(c, pm)`` fixes the holder set, so the plan-ordered
        holders and their level key are built once per pair and memoised
        in the context; the state, and with it the memo, is rebuilt when
        a remote's ready time is crossed.  The provider draw is
        :meth:`_request_rows`'s, inlined (it runs once per decision) and
        keyed by the same level bytes.
        """
        if not lookahead:
            return
        eng = self._engine
        ctx = eng._partner_ctx(probe.pi, partners)
        narrow = ctx["narrow"]
        if narrow is None:
            A = eng._availability(ctx, np.array(lookahead, dtype=np.int64), t)
            self._request_rows(probe, t, ctx, A, lookahead, range(len(lookahead)), slots)
            return
        level_of = ctx["level_of"]
        soa = eng._soa
        hb = soa.have_buf
        row_off = soa.row_off
        row_top = soa.row_top
        plan, probe_bits, delays, ready, ranks = narrow
        if not ranks or t >= ranks[0]:
            ranks[:] = _rank_remotes(delays, ready, t)
        _, ds, rank, memo = ranks
        n_ready = len(ds)
        shift = len(probe_bits)
        ci = eng._av_chunk_interval
        retention = eng._av_retention
        busy_over = probe.busy_over
        cdf_cache = eng._cdf_cache
        rng = eng._rng_engine
        for chunk in lookahead:
            if slots <= 0:
                break
            c = 0
            if n_ready:
                gen = chunk * ci
                if t < gen + retention:
                    c = bisect_right(ds, t - gen)
                    while c and gen + ds[c - 1] > t:
                        c -= 1
                    while c < n_ready and gen + ds[c] <= t:
                        c += 1
            pm = 0
            for bit, row in probe_bits:
                if chunk < row_top[row] and hb[row_off[row] + chunk]:
                    pm |= bit
            if not (c or pm):
                continue
            mk = c << shift | pm
            hit = memo.get(mk)
            if hit is None:
                holders = [g for g, k, bit in plan if (pm & bit if k < 0 else rank[k] < c)]
                hit = memo[mk] = (holders, bytes([level_of[g] for g in holders]))
                eng._holder_sets_built += 1
            holders, key = hit
            if busy_over:
                free = [g for g in holders if g not in busy_over]
                if len(free) < len(holders):
                    if not free:
                        continue
                    holders = free
                    key = None
            if rng.random() < eng._explore_prob:
                pick = int(rng.integers(len(holders)))
            else:
                if key is None:
                    key = bytes([level_of[g] for g in holders])
                cdf = cdf_cache.get(key)
                if cdf is None:
                    cdf = eng._provider_policy.cdf_from_levels(
                        np.frombuffer(key, dtype=np.uint8)
                    ).tolist()
                    if len(cdf_cache) >= eng._cdf_cache_max:
                        cdf_cache.clear()
                    cdf_cache[key] = cdf
                pick = bisect_right(cdf, eng._rng_sel.random())
            if eng._request_chunk(probe, holders[pick], chunk, t):
                slots -= 1
