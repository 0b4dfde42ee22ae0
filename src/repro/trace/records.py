"""Structured dtypes shared across the trace layer.

Keeping traces in numpy structured arrays (not Python objects) is what
makes hour-scale experiments analysable in seconds: every downstream step
— capture filtering, packet expansion, flow grouping, preference metrics —
is a vectorised pass over these arrays.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np


class PacketKind(IntEnum):
    """Payload classes carried in trace records.

    The contributor-identification heuristic only sees packet *sizes* (the
    kind codes are simulator ground truth used for validation); video
    payload packets are MTU-sized, signaling/control packets are small.
    """

    SIGNALING = 0   # handshakes, buffer maps, keepalives
    VIDEO = 1       # chunk payload
    CONTROL = 2     # chunk requests / polls


#: One application-level exchange recorded by the engine.
#: ``bottleneck`` is the path bottleneck in bit/s at transfer time — the
#: quantity packet-pair dispersion (min IPG) lets the analyst estimate.
TRANSFER_DTYPE = np.dtype(
    [
        ("ts", "f8"),
        ("src", "u4"),
        ("dst", "u4"),
        ("bytes", "u4"),
        ("kind", "u1"),
        ("bottleneck", "f8"),
    ]
)

#: A periodic signaling relationship.  The flow table aggregates it in
#: closed form; only the packet path expands it to transfers.
SIGNALING_DTYPE = np.dtype(
    [
        ("src", "u4"),
        ("dst", "u4"),
        ("start", "f8"),
        ("stop", "f8"),
        ("interval", "f8"),
        ("bytes", "u4"),
    ]
)

#: One captured packet, as a probe's sniffer would record it.
PACKET_DTYPE = np.dtype(
    [
        ("ts", "f8"),
        ("src", "u4"),
        ("dst", "u4"),
        ("size", "u4"),
        ("ttl", "u1"),
        ("kind", "u1"),
    ]
)

#: One directional flow (src → dst) aggregated over a capture.
#: ``min_ipg`` is +inf when the flow never carried a multi-packet train.
#: ``ttl`` is the (constant) received TTL of the flow's packets.
FLOW_DTYPE = np.dtype(
    [
        ("src", "u4"),
        ("dst", "u4"),
        ("bytes", "u8"),
        ("pkts", "u8"),
        ("video_bytes", "u8"),
        ("video_pkts", "u8"),
        ("min_ipg", "f8"),
        ("ttl", "u1"),
        ("first_ts", "f8"),
        ("last_ts", "f8"),
    ]
)


def empty_transfers() -> np.ndarray:
    """A zero-length transfer log."""
    return np.empty(0, dtype=TRANSFER_DTYPE)


def empty_packets() -> np.ndarray:
    """A zero-length packet trace."""
    return np.empty(0, dtype=PACKET_DTYPE)


def empty_flows() -> np.ndarray:
    """A zero-length flow table."""
    return np.empty(0, dtype=FLOW_DTYPE)
