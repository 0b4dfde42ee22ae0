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
    ``engine._availability``.
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
    def _pick_holder(self, holders: list[int], score_of: dict) -> int:
        """Awareness-weighted provider choice over ``holders``.

        The exact decision procedure of the mesh-pull core: with the
        profile's ``explore_prob`` pick uniformly (one engine-stream
        draw), otherwise invert the memoised softmax CDF of the holders'
        awareness scores with one selection-stream uniform.  ``score_of``
        maps a holder gidx to its provider score (the partner context's
        ``score_of``).
        """
        eng = self._engine
        rng = eng._rng_engine
        if rng.random() < eng._explore_prob:
            return int(rng.integers(len(holders)))
        key = tuple([score_of[g] for g in holders])
        cdf = eng._cdf_cache.get(key)
        if cdf is None:
            cdf = eng._provider_policy.cdf_from_scores(
                np.array(key, dtype=np.float64)
            ).tolist()
            if len(eng._cdf_cache) >= eng._cdf_cache_max:
                # Pure memo past its entry budget: drop it wholesale and
                # warm back up (bit-identical recomputes, memory-only).
                eng._cdf_cache.clear()
            eng._cdf_cache[key] = cdf
        return bisect_right(cdf, eng._rng_sel.random())
