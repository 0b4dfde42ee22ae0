"""The original mesh-pull chunk-selection core, as a strategy object.

This is the selection loop that used to live inline in the engine tick;
``tests/golden/engine_trace_hashes.json`` (generated before it was
extracted) pins every byte of its trace.

Policy: walk the missing chunks newest-first, find the partners that can
serve each (remotes through their per-chunk diffusion thresholds,
probe partners through their buffer bitmaps), and pick one provider per
chunk with the awareness-weighted softmax (or a uniform exploration draw).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.streaming.schedulers.base import ChunkScheduler


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
        chunks one by one, here; wide ones go through one availability
        matrix (:meth:`_schedule_wide`).  Both visit holders in ascending
        partner-column order, skip empty holder sets without touching an
        RNG and draw the provider with the same explore/CDF code, so the
        choice between them never changes a trace.

        Narrow scan: each chunk's remote thresholds
        ``max(gen + delay, ready)`` are computed as it is visited, and
        their minimum and the freshness deadline give a fast path — while
        no remote partner can serve a chunk (aged out, or min threshold
        > t), only the probe partners' bits are read.  Probe bits come
        straight from the shared byte buffer: scanned chunks sit at or
        above every partner's row base, and chunks past the row top read
        as not held.  The provider draw is
        :meth:`_pick_holder`, inlined (it runs once per decision).
        """
        if not lookahead:
            return
        eng = self._engine
        ctx = eng._partner_ctx(probe.pi, partners)
        narrow = ctx["narrow"]
        if narrow is None:
            self._schedule_wide(probe, t, lookahead, ctx, slots)
            return
        score_of = ctx["score_of"]
        soa = eng._soa
        hb = soa.have_buf
        row_off = soa.row_off
        row_top = soa.row_top
        plan, probe_plan, delays, ready = narrow
        has_remotes = len(delays) > 0
        ci = eng._av_chunk_interval
        retention = eng._av_retention
        busy_over = probe.busy_over
        cdf_cache = eng._cdf_cache
        rng = eng._rng_engine
        for chunk in lookahead:
            if slots <= 0:
                break
            remotes_live = False
            if has_remotes:
                gen = chunk * ci
                if t < gen + retention:
                    thr_list = [
                        r if r > (m := gen + d) else m for d, r in zip(delays, ready)
                    ]
                    # Some remote serves the chunk iff any threshold ≤ t,
                    # i.e. iff the minimum is.
                    remotes_live = min(thr_list) <= t
            if remotes_live:
                holders = []
                for g, k, row in plan:
                    if k >= 0:
                        if t < thr_list[k]:
                            continue
                    elif chunk >= row_top[row] or not hb[row_off[row] + chunk]:
                        continue
                    holders.append(g)
            elif probe_plan:
                holders = []
                for g, row in probe_plan:
                    if chunk < row_top[row] and hb[row_off[row] + chunk]:
                        holders.append(g)
            else:
                continue
            if busy_over and holders:
                holders = [g for g in holders if g not in busy_over]
            if not holders:
                continue
            if rng.random() < eng._explore_prob:
                pick = int(rng.integers(len(holders)))
            else:
                key = tuple([score_of[g] for g in holders])
                cdf = cdf_cache.get(key)
                if cdf is None:
                    cdf = eng._provider_policy.cdf_from_scores(
                        np.array(key, dtype=np.float64)
                    ).tolist()
                    if len(cdf_cache) >= eng._cdf_cache_max:
                        cdf_cache.clear()
                    cdf_cache[key] = cdf
                pick = bisect_right(cdf, eng._rng_sel.random())
            if eng._request_chunk(probe, holders[pick], chunk, t):
                slots -= 1

    def _schedule_wide(self, probe, t, lookahead, ctx, slots) -> None:
        """The wide-set kernel: one availability matrix per tick.

        Walks the matrix's advertised (chunk, partner) pairs instead of
        every partner of every chunk.
        """
        eng = self._engine
        soa = eng._soa
        # The tick scan's own array is reused when the engine hands its
        # hole list straight through (identity ⇒ same scan, same order);
        # sliced/custom lookaheads (the push seeding path) convert.
        if lookahead is soa.scan_list:
            chunks_arr = soa.scan_arr
        else:
            chunks_arr = np.asarray(lookahead, dtype=np.int64)
        A = eng._availability(ctx, chunks_arr, t)
        # Chunks nobody advertises are skipped without a draw, and silent
        # columns never become holders — so the decision loop only needs
        # the advertised (chunk, partner) pairs.  Permuting A's columns
        # into plan order first makes the flat ``nonzero`` walk visit each
        # row's advertisers in plan order.  Each row's holders are
        # then one C-level slice of the flat partner list: the per-pair
        # busy check reduces to subtracting ``busy_over`` (the providers
        # at the pipelining cap — almost always empty), which is the same
        # predicate ``busy[g] < cap`` evaluates pairwise.
        ri, cj = A[:, ctx["plan_cols"]].nonzero()
        if ri.size == 0:
            return
        gs_arr = ctx["plan_g"][cj]
        gs_all = gs_arr.tolist()
        nrows = A.shape[0]
        bounds = np.searchsorted(ri, np.arange(nrows + 1)).tolist()
        busy_over = probe.busy_over
        # Provider scores in plan-column order (the context carries them:
        # a row gather when eager, subset-scored when lazy — identical
        # doubles, so the CDF memo sees identical keys).
        plan_scores = ctx["plan_scores"]
        score_of = ctx["score_of"]
        cdf_cache = eng._cdf_cache
        cdf_cache_max = eng._cdf_cache_max
        rng = eng._rng_engine
        sel_rand = eng._rng_sel.random
        explore_prob = eng._explore_prob
        for r in range(nrows):
            if slots <= 0:
                break
            s0 = bounds[r]
            s1 = bounds[r + 1]
            if s0 == s1:
                continue
            if busy_over:
                holders = [g for g in gs_all[s0:s1] if g not in busy_over]
                if not holders:
                    continue
                n_h = len(holders)
            else:
                holders = None
                n_h = s1 - s0
            chunk = lookahead[r]
            if rng.random() < explore_prob:
                pick = int(rng.integers(n_h))
            else:
                # One vectorised score gather replaces the per-holder
                # list walk; the CDF memo keys on the scores' IEEE bytes
                # — the same distinctions a score-tuple key draws, so
                # the CDF lists are bit-identical.
                if holders is None:
                    scores = plan_scores[cj[s0:s1]]
                else:
                    scores = np.array(
                        [score_of[g] for g in holders], dtype=np.float64
                    )
                key = scores.tobytes()
                cdf = cdf_cache.get(key)
                if cdf is None:
                    cdf = eng._provider_policy.cdf_from_scores(scores).tolist()
                    if len(cdf_cache) >= cdf_cache_max:
                        cdf_cache.clear()
                    cdf_cache[key] = cdf
                pick = bisect_right(cdf, sel_rand())
            g = holders[pick] if holders is not None else gs_all[s0 + pick]
            if eng._request_chunk(probe, g, chunk, t):
                slots -= 1
