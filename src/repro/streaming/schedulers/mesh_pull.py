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
        chunks one by one, here; wide ones build one availability matrix
        and hand its rows, newest first and without an attempt budget
        (the tick scan is already truncated), to :meth:`_request_rows`.
        Both visit holders in ascending partner-column order, skip empty
        holder sets without touching an RNG and draw the provider with
        the same explore/CDF code, so the choice between them never
        changes a trace.

        Narrow scan: each chunk's remote thresholds
        ``max(gen + delay, ready)`` are computed as it is visited, and
        their minimum and the freshness deadline give a fast path — while
        no remote partner can serve a chunk (aged out, or min threshold
        > t), only the probe partners' bits are read.  Probe bits come
        straight from the shared byte buffer: scanned chunks sit at or
        above every partner's row base, and chunks past the row top read
        as not held.  The provider draw is :meth:`_request_rows`'s,
        inlined (it runs once per decision) and keyed by the same level
        bytes.
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
