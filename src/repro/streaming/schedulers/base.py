"""The chunk-scheduler strategy interface.

A :class:`ChunkScheduler` owns the per-tick request decision of one
engine run: given a probe's missing chunks (newest first) and its online
partners, it decides which chunks to request, in what order, from which
holders.  Everything else — buffer bookkeeping, uplink queuing, transfer
recording, the availability oracle — stays in the engine and is shared by
every policy.

Determinism contract
--------------------
Policies may draw randomness **only** from the engine's named RNG streams
(``engine._rng_engine`` for protocol jitter, ``engine._rng_sel`` through
the selection-policy CDFs for provider choice).  Candidate orderings must
be pure functions of visible protocol state with deterministic
tie-breaking, so a run is a pure function of ``(world seed, profile,
engine seed)`` under any policy.  The per-policy golden hashes enforce
this; see ``docs/schedulers.md`` for the rules a new policy must follow.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class ChunkScheduler:
    """Base strategy: subclasses implement :meth:`schedule_requests`.

    Probe buffers live in the engine's shared bitmaps
    (``engine._soa``, a :class:`~repro.streaming.soa.SoAState`); partner
    availability comes from ``engine._partner_ctx`` and
    ``engine._availability``.  A policy that orders the availability
    matrix's rows hands that order to :meth:`_request_rows`, which makes
    every provider draw.
    """

    #: Registry key (also the CLI / profile / campaign-config spelling).
    name = "abstract"

    #: True when the per-tick hole scan should stop after the engine's
    #: ``max_probe_attempts`` newest holes (the mesh-pull behaviour).
    #: Ordering policies that re-sort candidates (rarest, EDF) need the
    #: whole window and cap their *attempts* instead.
    truncate_scan = True

    #: True when the policy reacts to chunk arrivals (push diffusion);
    #: the engine only invokes :meth:`on_chunk_received` when set.
    pushes = False

    def bind(self, engine) -> None:
        """Attach to one engine run (called once, before any event)."""
        self._engine = engine

    def unbind(self) -> None:
        """Detach from a finished run (the engine holds this scheduler,
        so the back-reference would otherwise keep the two in a cycle)."""
        self._engine = None

    # ------------------------------------------------------------- hooks
    def schedule_requests(self, probe, t: float, lookahead, partners, slots: int) -> None:
        """Issue up to ``slots`` chunk requests for one probe tick.

        ``lookahead`` is the probe's missing-chunk list, newest first;
        ``partners`` the online partner array.  Implementations call
        ``engine._request_chunk`` per decision, visit each chunk's holders
        in ascending partner-column order, and skip an empty holder set
        without touching an RNG.
        """
        raise NotImplementedError

    def on_chunk_received(self, probe, chunk: int, provider: int, t: float) -> None:
        """Arrival hook (only called when :attr:`pushes` is True)."""

    # ----------------------------------------------------------- helpers
    def _request_rows(self, probe, t, ctx, A, chunks, order, slots, budget=None) -> None:
        """Request the rows of ``A`` in ``order``, drawing one provider per row.

        The peer-selection half every matrix policy shares; the policy
        supplies only the chunk order.  ``A`` is the availability matrix
        of ``chunks`` against the partner context ``ctx``
        (``engine._availability``) and ``order`` a list or range of its
        row indices.  Each row visited in ``order`` uses one attempt of
        ``budget`` (``None``: unbounded), holder-less rows included; the
        walk also stops once ``slots`` requests have gone out.

        Chunks nobody advertises are skipped without a draw, and silent
        columns never become holders — so the walk only needs the
        advertised (chunk, partner) pairs.  Permuting A's columns into
        plan order first makes the flat ``nonzero`` visit each row's
        advertisers in plan order, and each row's holders are then one
        C-level slice of the flat partner list.  The per-pair busy check
        reduces to subtracting ``busy_over`` (the providers at the
        pipelining cap — almost always empty), which is the same
        predicate ``busy[g] < cap`` evaluates pairwise.

        The draw is the mesh-pull decision procedure: with the profile's
        ``explore_prob`` pick uniformly (one engine-stream draw),
        otherwise invert the memoised softmax CDF of the holders'
        awareness levels with one selection-stream uniform.
        """
        if budget is not None:
            order = order[:budget]
        eng = self._engine
        ri, cj = A[:, ctx["plan_cols"]].nonzero()
        if ri.size == 0:
            return
        gs_all = ctx["plan_g"][cj].tolist()
        bounds = np.searchsorted(ri, np.arange(A.shape[0] + 1)).tolist()
        busy_over = probe.busy_over
        plan_levels = ctx["plan_levels"]
        level_of = ctx["level_of"]
        cdf_cache = eng._cdf_cache
        cdf_cache_max = eng._cdf_cache_max
        rng = eng._rng_engine
        sel_rand = eng._rng_sel.random
        explore_prob = eng._explore_prob
        for r in order:
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
            if rng.random() < explore_prob:
                pick = int(rng.integers(n_h))
            else:
                # The CDF memo keys on the holders' level indices, one
                # byte each: the same distinctions their scores draw, so
                # the CDF lists are bit-identical.  The narrow mesh-pull
                # kernel builds the same keys.
                if holders is None:
                    key = plan_levels[cj[s0:s1]].tobytes()
                else:
                    key = bytes([level_of[g] for g in holders])
                cdf = cdf_cache.get(key)
                if cdf is None:
                    cdf = eng._provider_policy.cdf_from_levels(
                        np.frombuffer(key, dtype=np.uint8)
                    ).tolist()
                    if len(cdf_cache) >= cdf_cache_max:
                        # Pure memo past its entry budget: drop it
                        # wholesale and warm back up (bit-identical
                        # recomputes, memory-only).
                        cdf_cache.clear()
                    cdf_cache[key] = cdf
                pick = bisect_right(cdf, sel_rand())
            g = holders[pick] if holders is not None else gs_all[s0 + pick]
            if eng._request_chunk(probe, g, chunks[r], t):
                slots -= 1
