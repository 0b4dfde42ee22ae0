"""Packet-train synthesis: turn transfers into the packets a sniffer sees.

A video chunk is serialised as a burst of MTU-sized packets whose spacing
is the serialisation time of one packet at the path bottleneck — the
"packet train" the paper's minimum inter-packet-gap (IPG) estimator
exploits: 1250 B at 10 Mb/s take exactly 1 ms, so ``min IPG < 1 ms`` flags
a >10 Mb/s path.  Signaling and control exchanges are single small
datagrams.

Per-pair deterministic jitter widens gaps slightly (queueing never
*shrinks* the dispersion of a bottleneck-paced train below the
serialisation time, so jitter is one-sided), and the same jitter is used
by the flow aggregator so packet-level and flow-level analyses agree
exactly.
"""

from __future__ import annotations

import numpy as np

from repro._hashing import pair_uniform
from repro.errors import TraceError
from repro.trace.hosts import HostTable
from repro.trace.records import PACKET_DTYPE, SIGNALING_DTYPE, TRANSFER_DTYPE, PacketKind
from repro.units import BITS_PER_BYTE

#: Video payload bytes per packet (the paper's reference size).
PACKET_PAYLOAD_BYTES = 1250

#: Hash-stream tag for IPG jitter (so it never collides with path jitter).
_IPG_SEED = 0x1B6

#: One-sided multiplicative jitter span on packet gaps.
IPG_JITTER_SPAN = 0.08


def pair_gaps(src: np.ndarray, dst: np.ndarray, hosts: HostTable) -> np.ndarray:
    """Packet spacing in seconds of a train sent ``src`` → ``dst``.

    The train is paced by the *sender's uplink* serialisation time.  This
    is a deliberate modelling choice (DESIGN.md §7): the paper's estimator
    classifies the peer's capacity from min IPG, and over long flows the
    minimum gap reflects the sender-side pacing — last-mile queues compress
    bursts as often as they stretch them, so the observed minimum converges
    to the uplink serialisation time even behind slower probe downlinks.

    The value depends on the pair alone, so the packet path (per transfer,
    :func:`transfer_gaps`) and the flow aggregator (per flow) both call
    this one formula and cannot drift apart.
    """
    up = hosts.gather(src, "up_bps")
    base = PACKET_PAYLOAD_BYTES * BITS_PER_BYTE / up
    jitter = 1.0 + IPG_JITTER_SPAN * pair_uniform(src, dst, _IPG_SEED)
    return base * jitter


def transfer_gaps(transfers: np.ndarray, hosts: HostTable) -> np.ndarray:
    """Per-transfer packet spacing in seconds (inf for single-packet ones).

    A multi-packet transfer is spaced by its pair's :func:`pair_gaps`.
    """
    npkts = packet_counts(transfers)
    gaps = pair_gaps(transfers["src"], transfers["dst"], hosts)
    return np.where(npkts >= 2, gaps, np.inf)


def packet_counts(transfers: np.ndarray) -> np.ndarray:
    """Packets per transfer: video chunks are cut at the MTU, the rest are
    single datagrams."""
    video = transfers["kind"] == int(PacketKind.VIDEO)
    counts = np.ones(len(transfers), dtype=np.int64)
    counts[video] = -(-transfers["bytes"][video].astype(np.int64) // PACKET_PAYLOAD_BYTES)
    return counts


class PacketSynthesizer:
    """Expand transfers into per-packet records with timestamps and TTLs."""

    def __init__(self, hosts: HostTable, paths) -> None:
        """``paths`` is a :class:`repro.topology.paths.PathModel`."""
        self._hosts = hosts
        self._paths = paths

    def ttl_for(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Received TTL per (src, dst) pair: initial TTL − forward hops."""
        rows = self._hosts.rows
        s = self._hosts.indices_of(src)
        d = self._hosts.indices_of(dst)
        hops = self._paths.hops_many(
            src,
            rows["asn"][s],
            rows["subnet"][s],
            rows["access_depth"][s],
            dst,
            rows["asn"][d],
            rows["subnet"][d],
            rows["access_depth"][d],
        )
        ttl = rows["initial_ttl"][s].astype(np.int64) - hops
        if np.any(ttl <= 0):
            raise TraceError("path longer than initial TTL; topology inconsistent")
        return ttl.astype(np.uint8)

    def expand(self, transfers: np.ndarray) -> np.ndarray:
        """Expand a transfer log into a time-sorted packet trace."""
        if transfers.dtype != TRANSFER_DTYPE:
            raise TraceError("expand() wants a TRANSFER_DTYPE array")
        n = len(transfers)
        if n == 0:
            return np.empty(0, dtype=PACKET_DTYPE)
        counts = packet_counts(transfers)
        gaps = transfer_gaps(transfers, self._hosts)
        total = int(counts.sum())

        # Within-burst packet index via the standard repeat/cumsum trick.
        owner = np.repeat(np.arange(n), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(total) - np.repeat(starts, counts)

        out = np.empty(total, dtype=PACKET_DTYPE)
        finite_gaps = np.where(np.isfinite(gaps), gaps, 0.0)
        out["ts"] = transfers["ts"][owner] + within * finite_gaps[owner]
        out["src"] = transfers["src"][owner]
        out["dst"] = transfers["dst"][owner]
        out["kind"] = transfers["kind"][owner]

        # Sizes: full MTU payloads except a possibly-short trailing packet.
        nbytes = transfers["bytes"].astype(np.int64)
        last_size = nbytes - (counts - 1) * PACKET_PAYLOAD_BYTES
        is_last = within == (counts[owner] - 1)
        out["size"] = np.where(is_last, last_size[owner], PACKET_PAYLOAD_BYTES)

        out["ttl"] = self.ttl_for(out["src"], out["dst"])
        return out[np.argsort(out["ts"], kind="stable")]


def signaling_counts(intervals: np.ndarray) -> np.ndarray:
    """Datagrams per signaling interval: ``floor((stop-start)/interval) + 1``.

    Raises :class:`TraceError` naming how many rows are malformed (an
    interval that is not a positive finite number, a non-finite start or
    stop, or ``stop < start``).  The engine never writes such rows; a
    bundle read from disk can carry them.
    """
    start = intervals["start"]
    stop = intervals["stop"]
    interval = intervals["interval"]
    ok = np.isfinite(start) & np.isfinite(stop) & (stop >= start)
    ok &= np.isfinite(interval) & (interval > 0)
    bad = len(intervals) - int(np.count_nonzero(ok))
    if bad:
        raise TraceError(
            f"{bad} of {len(intervals)} signaling interval rows are malformed "
            "(need finite start <= stop and a finite interval > 0)"
        )
    return np.floor((stop - start) / interval).astype(np.int64) + 1


def expand_signaling(intervals: np.ndarray) -> np.ndarray:
    """Expand periodic signaling intervals into individual transfers.

    Each interval ``(src, dst, start, stop, interval, bytes)`` becomes
    :func:`signaling_counts` SIGNALING transfers at ``start + k·interval``.
    Bottleneck is irrelevant for single small datagrams and set to +inf.
    Only the packet path needs this; the flow aggregator takes the
    intervals as they are.
    """
    if intervals.dtype != SIGNALING_DTYPE:
        raise TraceError("expand_signaling() wants a SIGNALING_DTYPE array")
    n = len(intervals)
    if n == 0:
        return np.empty(0, dtype=TRANSFER_DTYPE)
    counts = signaling_counts(intervals)
    total = int(counts.sum())
    owner = np.repeat(np.arange(n), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(starts, counts)

    out = np.empty(total, dtype=TRANSFER_DTYPE)
    out["ts"] = intervals["start"][owner] + within * intervals["interval"][owner]
    out["src"] = intervals["src"][owner]
    out["dst"] = intervals["dst"][owner]
    out["bytes"] = intervals["bytes"][owner]
    out["kind"] = int(PacketKind.SIGNALING)
    out["bottleneck"] = np.inf
    return out[np.argsort(out["ts"], kind="stable")]
