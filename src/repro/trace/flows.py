"""Directional flow aggregation — the analysis framework's input.

A *flow* is everything one source sent one destination during a capture:
total bytes and packets, the video-payload share, the minimum inter-packet
gap of its packet trains (the capacity estimator's signal), the received
TTL (the hop estimator's signal) and first/last activity times.

Two construction paths exist and agree exactly:

* :func:`build_flow_table` aggregates the engine's transfer log and its
  signaling intervals directly (fast path, used for full experiments).
  It materialises neither packets nor signaling datagrams: each interval
  enters its flow in closed form, and every flow is one segment of a
  single sort by pair key;
* :meth:`FlowTable.from_packets` aggregates a packet trace (what one would
  do with a real pcap; used by tests to prove the fast path faithful).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.trace.capture import _touch_mask
from repro.trace.hosts import HostTable
from repro.trace.packets import PacketSynthesizer, packet_counts, pair_gaps, signaling_counts
from repro.trace.records import (
    FLOW_DTYPE,
    PACKET_DTYPE,
    SIGNALING_DTYPE,
    TRANSFER_DTYPE,
    PacketKind,
)


def _pair_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Collapse (src, dst) pairs into sortable 64-bit keys."""
    return (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)


class FlowTable:
    """A structured flow array plus the host ground truth it references.

    A table is read-only once built.  ``views_memo`` is where
    :func:`repro.core.views.build_views` remembers the views it derived
    from this table, held weakly; it is analysis state, not part of the
    table, so it never pickles.
    """

    def __init__(self, flows: np.ndarray, hosts: HostTable) -> None:
        if flows.dtype != FLOW_DTYPE:
            raise TraceError(f"flow table dtype mismatch: {flows.dtype}")
        self.flows = flows
        self.hosts = hosts
        self.views_memo: dict = {}

    def __getstate__(self) -> dict:
        return {"flows": self.flows, "hosts": self.hosts}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.views_memo = {}

    def __len__(self) -> int:
        return len(self.flows)

    # ------------------------------------------------------------- selection
    @property
    def probe_ips(self) -> np.ndarray:
        return self.hosts.probe_ips

    def received_by(self, probe_ip: int) -> np.ndarray:
        """Flows into ``probe_ip`` — the e → p download side D(p)."""
        return self.flows[self.flows["dst"] == np.uint32(probe_ip)]

    def sent_by(self, probe_ip: int) -> np.ndarray:
        """Flows out of ``probe_ip`` — the p → e upload side U(p)."""
        return self.flows[self.flows["src"] == np.uint32(probe_ip)]

    def with_video(self) -> np.ndarray:
        """Flows that carried at least one video payload byte."""
        return self.flows[self.flows["video_bytes"] > 0]

    # --------------------------------------------------------- constructors
    @classmethod
    def from_packets(cls, packets: np.ndarray, hosts: HostTable) -> "FlowTable":
        """Aggregate a packet trace into flows (the pcap-analyst path)."""
        if packets.dtype != PACKET_DTYPE:
            raise TraceError("from_packets() wants a PACKET_DTYPE array")
        if len(packets) == 0:
            return cls(np.empty(0, dtype=FLOW_DTYPE), hosts)
        order = np.argsort(
            _pair_keys(packets["src"], packets["dst"]), kind="stable"
        )
        pk = packets[order]
        keys = _pair_keys(pk["src"], pk["dst"])
        uniq, starts = np.unique(keys, return_index=True)
        bounds = np.append(starts, len(pk))

        flows = np.empty(len(uniq), dtype=FLOW_DTYPE)
        video = pk["kind"] == int(PacketKind.VIDEO)
        sizes = pk["size"].astype(np.uint64)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            grp = slice(a, b)
            ts = np.sort(pk["ts"][grp])
            gaps = np.diff(ts)
            # min IPG over back-to-back *video* trains: approximate the
            # paper's estimator with the min positive gap among packets of
            # the flow (train gaps dominate when trains exist).
            vid = video[grp]
            if vid.sum() >= 2:
                vts = np.sort(pk["ts"][grp][vid])
                vgaps = np.diff(vts)
                vgaps = vgaps[vgaps > 0]
                min_ipg = float(vgaps.min()) if len(vgaps) else np.inf
            else:
                min_ipg = np.inf
            flows[i] = (
                pk["src"][a],
                pk["dst"][a],
                int(sizes[grp].sum()),
                b - a,
                int(sizes[grp][vid].sum()),
                int(vid.sum()),
                min_ipg,
                pk["ttl"][a],
                float(ts[0]),
                float(ts[-1]),
            )
        return cls(flows, hosts)


def build_flow_table(
    transfers: np.ndarray,
    signaling: np.ndarray,
    hosts: HostTable,
    paths,
    *,
    probes_only: bool = True,
    telemetry=None,
) -> FlowTable:
    """Aggregate an engine transfer log (+ signaling intervals) into flows.

    An interval ``(src, dst, start, stop, interval, bytes)`` stands for
    ``count`` single-datagram SIGNALING transfers at ``start + k·interval``
    (:func:`~repro.trace.packets.signaling_counts`).  Its contribution to
    its flow is closed-form — ``bytes·count`` bytes, ``count`` packets, no
    video and no train, activity from ``start`` to
    ``start + (count-1)·interval`` — so each interval is one row of the
    sort beside the transfers, and the result equals aggregating the
    expanded log.  A flow's min IPG is its pair's
    :func:`~repro.trace.packets.pair_gaps` if any transfer of it carried
    a multi-packet train, else +inf.

    Parameters
    ----------
    transfers / signaling:
        The engine's raw output.
    hosts / paths:
        Ground-truth host table and the path model (for received TTLs).
    probes_only:
        Keep only probe-visible traffic (what the capture contains).  The
        engine only generates probe-touching traffic anyway, so this is a
        safety filter.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; tallies the
        records aggregated (signaling counted in datagrams) and what the
        capture filter kept (``trace/*`` and ``capture/*`` counters of
        the run manifest).
    """
    if transfers.dtype != TRANSFER_DTYPE:
        raise TraceError("build_flow_table() wants a TRANSFER_DTYPE array")
    if signaling is None or len(signaling) == 0:
        signaling = np.empty(0, dtype=SIGNALING_DTYPE)
    elif signaling.dtype != SIGNALING_DTYPE:
        raise TraceError("build_flow_table() wants a SIGNALING_DTYPE signaling array")
    counts = signaling_counts(signaling)
    records_in = len(transfers) + int(counts.sum())
    if telemetry is not None:
        telemetry.count("trace/transfer_records", len(transfers))
        telemetry.count("trace/signaling_records", records_in - len(transfers))
    if probes_only and records_in:
        transfers = transfers[_touch_mask(transfers, hosts.probe_ips)]
        kept = _touch_mask(signaling, hosts.probe_ips)
        signaling, counts = signaling[kept], counts[kept]
        if telemetry is not None:
            telemetry.count("capture/records_in", records_in)
            telemetry.count("capture/records_kept", len(transfers) + int(counts.sum()))
    if len(transfers) + len(signaling) == 0:
        return FlowTable(np.empty(0, dtype=FLOW_DTYPE), hosts)

    keys = np.concatenate(
        (
            _pair_keys(transfers["src"], transfers["dst"]),
            _pair_keys(signaling["src"], signaling["dst"]),
        )
    )
    # Every reduction below (uint64 sums, float min/max, logical_or) is
    # independent of row order within a key, so the sort need not be stable.
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))

    def per_flow(ufunc, of_transfers, of_signaling):
        rows = np.concatenate((of_transfers, of_signaling))[order]
        return ufunc.reduceat(rows, starts)

    pkts = packet_counts(transfers).astype(np.uint64)
    nbytes = transfers["bytes"].astype(np.uint64)
    video = transfers["kind"] == int(PacketKind.VIDEO)
    sig_pkts = counts.astype(np.uint64)
    no_video = np.zeros(len(signaling), dtype=np.uint64)

    flows = np.empty(len(starts), dtype=FLOW_DTYPE)
    flows["src"] = (keys[starts] >> np.uint64(32)).astype(np.uint32)
    flows["dst"] = (keys[starts] & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    flows["bytes"] = per_flow(np.add, nbytes, signaling["bytes"] * sig_pkts)
    flows["pkts"] = per_flow(np.add, pkts, sig_pkts)
    flows["video_bytes"] = per_flow(np.add, nbytes * video, no_video)
    flows["video_pkts"] = per_flow(np.add, pkts * video, no_video)
    flows["first_ts"] = per_flow(np.minimum, transfers["ts"], signaling["start"])
    flows["last_ts"] = per_flow(
        np.maximum,
        transfers["ts"],
        signaling["start"] + (counts - 1) * signaling["interval"],
    )
    has_train = per_flow(np.logical_or, pkts >= 2, np.zeros(len(signaling), dtype=bool))
    flows["min_ipg"] = np.where(
        has_train, pair_gaps(flows["src"], flows["dst"], hosts), np.inf
    )

    synth = PacketSynthesizer(hosts, paths)
    flows["ttl"] = synth.ttl_for(flows["src"], flows["dst"])
    return FlowTable(flows, hosts)
