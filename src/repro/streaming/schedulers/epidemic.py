"""Push-based epidemic chunk diffusion.

After Mathieu & Perino's resource-aware epidemic streaming: chunks spread
like an infection.  A probe *seeds* itself with a small number of pull
requests at the live edge (the injection from the remote swarm — remotes
are modelled statistically and cannot initiate pushes), and every chunk a
probe receives is immediately **forwarded** to a fanout of partner probes
that do not yet hold it.  Diffusion among the full-protocol peers is
therefore provider-initiated: the upload schedule of a chunk is decided
by whoever currently holds it, not by per-chunk polling.

Duplicate suppression is the push analogue of the pull core's in-flight
set: a chunk is pushed to a target only while the target neither holds it
nor has it in flight, and the push marks it in flight — so the
no-duplicate-in-flight invariant holds under push exactly as under pull.

Fanout targets are chosen with the pusher's *partner* awareness weights
(the same ground-truth bias the analysis must recover), drawn from the
engine's selection stream, so the policy stays a pure function of the
run seeds.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.schedulers.mesh_pull import MeshPullScheduler
from repro.trace.records import PacketKind
from repro.units import BITS_PER_BYTE

_KIND_VIDEO = int(PacketKind.VIDEO)


class PushEpidemicScheduler(MeshPullScheduler):
    """Live-edge pull seeding + fanout push forwarding."""

    name = "push"
    truncate_scan = True
    pushes = True

    #: Pull requests per tick that seed the infection from the swarm.
    seed_requests = 2
    #: Partner probes each received chunk is forwarded to (at most).
    push_fanout = 3

    @staticmethod
    def order_candidates(holes: list[int], seed_requests: int = 2) -> list[int]:
        """Seed-pull order: the newest few holes only (live-edge injection)."""
        return list(holes)[: max(0, seed_requests)]

    def schedule_requests(self, probe, t, lookahead, partners, slots) -> None:
        # The pull half *is* the mesh-pull core, restricted to a couple of
        # live-edge chunks; everything else arrives by being pushed.
        budget = min(slots, self.seed_requests)
        if budget <= 0:
            return
        super().schedule_requests(
            probe, t, self.order_candidates(lookahead, budget), partners, budget
        )

    def on_chunk_received(self, probe, chunk: int, provider: int, t: float) -> None:
        """Forward a freshly received chunk to partner probes lacking it."""
        eng = self._engine
        soa = eng._soa
        nr = eng.n_remote
        probes = eng._probes
        floor = soa.window_floor(t)
        targets: list[int] = []
        for g in probe.partners:
            if g < nr:
                continue  # remote availability is statistical; no push path
            row = g - nr
            if soa.has(row, chunk) or soa.inflight_has(row, chunk):
                continue
            if chunk < floor:
                continue  # already past the target's playout window
            targets.append(g)
        if not targets:
            return
        k = min(self.push_fanout, len(targets))
        cands = np.array(targets, dtype=np.int64)
        scores = eng._partner_scores_for(probe, cands)
        picked = eng._partner_policy.choose_scored(scores, k)
        pg = probe.gidx
        nbytes = eng._chunk_bytes
        free = eng._ul_free
        up_bps = eng._ul_bps
        ul = eng._up_list
        dl = eng._down_list
        ipl = eng._ip_list
        for i in picked:
            g = int(cands[i])
            st = probes[g - nr]
            if soa.inflight_has(st.pi, chunk):
                continue  # a previous fanout pick of this very push
            # Inlined UplinkScheduler.admit on the pusher's uplink.
            start = free[pg]
            if start < t:
                start = t
            if start - t > eng._ul_max_backlog:
                continue
            free[pg] = start + nbytes * BITS_PER_BYTE / up_bps[pg]
            up = ul[pg]
            dn = dl[g]
            bn = up if up < dn else dn
            lat = probe.lat_row[g]
            eng._rec_append((start, ipl[pg], ipl[g], nbytes, _KIND_VIDEO, bn))
            soa.inflight_add(st.pi, chunk)
            st.busy[pg] += 1
            if st.busy[pg] >= eng._cap_out:
                st.busy_over.add(pg)
            eng._queue.schedule(
                start + nbytes * BITS_PER_BYTE / bn + lat, eng._cb_arrival, st, chunk, pg
            )
