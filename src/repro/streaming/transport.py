"""Transport model: uplink serialisation, latency, and transfer recording.

The transport layer is where access capacities become *observable*:

* a sender's uplink serialises transfers one at a time (its ``tx_free_at``
  horizon), so a 0.384 Mb/s DSL uplink physically cannot sustain more than
  one stream — the capacity constraint behind the BW findings;
* the path bottleneck ``min(src.up, dst.down)`` paces the packets of each
  chunk train, which is what the receiver-side min-IPG estimator measures;
* every exchange lands in a :class:`TransferRecorder`: tuple rows on the
  hot path, packed into ``TRANSFER_DTYPE`` blocks at each flush (or
  handed over already packed) and finalised into one time-sorted
  structured numpy array.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

import numpy as np

from repro.errors import SimulationError
from repro.trace.records import SIGNALING_DTYPE, TRANSFER_DTYPE, PacketKind
from repro.units import BITS_PER_BYTE

#: Payload bytes per video packet (the paper's 1250 B reference packet,
#: whose serialisation at 10 Mb/s takes exactly 1 ms — the BW threshold).
PACKET_PAYLOAD_BYTES = 1250

#: Base propagation latency plus per-hop forwarding delay.
BASE_LATENCY_S = 0.004
PER_HOP_LATENCY_S = 0.002


def path_latency(hops: int) -> float:
    """One-way latency of a path with ``hops`` router hops."""
    return BASE_LATENCY_S + PER_HOP_LATENCY_S * hops


def bottleneck_bps(src_up_bps: float, dst_down_bps: float) -> float:
    """The path bottleneck seen by a transfer ``src → dst``."""
    return min(src_up_bps, dst_down_bps)


class TransferRecorder:
    """Row accumulator for the engine's transfer log.

    Rows are buffered as plain tuples — one list append per logged packet,
    the cheapest thing the hot path can do.  ``append_row`` is the bound
    list-append itself; the engine calls it directly with a
    ``(ts, src_ip, dst_ip, nbytes, kind, bottleneck)`` tuple.

    :meth:`flush` packs the pending tuples into one ``TRANSFER_DTYPE``
    block (29 B a row instead of a ≈200 B tuple) and empties the list in
    place, so ``append_row`` stays valid.  The engine flushes at every
    demand rebalance, which bounds the tuple backlog by one rebalance
    window instead of the whole run.  Rows computed vectorised (the
    engine's remote-pull requests of a window) skip the tuples:
    :meth:`append_block` takes them already packed.  :meth:`finalize`
    concatenates the blocks and sorts by time; where the flushes fell
    and when the blocks arrived change it only among rows of equal time.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[float, int, int, int, int, float]] = []
        self._blocks: list[np.ndarray] = []
        #: Hot-path entry point (the bound ``list.append``).
        self.append_row = self._rows.append

    def record(
        self,
        ts: float,
        src_ip: int,
        dst_ip: int,
        nbytes: int,
        kind: PacketKind,
        bottleneck: float,
    ) -> None:
        """Append one exchange."""
        self._rows.append((ts, src_ip, dst_ip, nbytes, int(kind), bottleneck))

    def append_block(self, block: np.ndarray) -> None:
        """Append rows already packed as a ``TRANSFER_DTYPE`` array."""
        if len(block):
            self._blocks.append(block)

    def __len__(self) -> int:
        return sum(map(len, self._blocks)) + len(self._rows)

    def flush(self) -> None:
        """Pack the pending rows into one structured block.

        One ``np.fromiter`` pass flattens the row tuples into a (n, 6)
        float64 matrix whose columns are cast into the structured dtype.
        Every integer column (IPv4 addresses, byte counts, packet kinds)
        is far below 2^53, so the float64 round-trip is exact.
        """
        rows = self._rows
        if not rows:
            return
        n = len(rows)
        cols = np.fromiter(chain.from_iterable(rows), np.float64, count=6 * n).reshape(n, 6)
        rows.clear()  # in place: ``append_row`` is bound to this list
        block = np.empty(n, dtype=TRANSFER_DTYPE)
        for i, name in enumerate(TRANSFER_DTYPE.names):
            block[name] = cols[:, i]
        self._blocks.append(block)

    def finalize(self) -> np.ndarray:
        """Materialise the log as a time-sorted structured array.

        Blocks are concatenated in append order, so the stable sort on
        ``ts`` sees the tuple rows in the order they were logged — the
        same array a single flush at the end would give.  A packed block
        sorts in by time alone; only a row of equal ``ts`` elsewhere in
        the log could tell where it arrived.
        """
        self.flush()
        if self._blocks:
            out = np.concatenate(self._blocks)
        else:
            out = np.empty(0, dtype=TRANSFER_DTYPE)
        # Keep only the concatenation, so the blocks are freed before
        # the sort allocates its copy.
        self._blocks = [out]
        return out[np.argsort(out["ts"], kind="stable")]


class SignalingBook:
    """Open/close periodic signaling relationships between peer pairs.

    Buffer-map and keepalive exchanges are periodic and dynamically inert
    (tiny packets), so instead of clogging the event queue the engine logs
    *intervals*.  The flow table aggregates each interval in closed form
    and never expands it; only the packet/pcap path expands intervals to
    timestamped transfers (:func:`repro.trace.packets.expand_signaling`,
    vectorised).
    """

    def __init__(self) -> None:
        self._open: dict[tuple[int, int, float, int], float] = {}
        self._closed: list[tuple[int, int, float, float, float, int]] = []
        #: (src, dst) → open keys of that pair, in first-open order — the
        #: same order a scan of ``_open`` (insertion-ordered) would yield,
        #: so close() emits identical interval sequences without the scan.
        self._pair_keys: dict[tuple[int, int], list[tuple[int, int, float, int]]] = {}

    def open(self, src_ip: int, dst_ip: int, t: float, interval: float, nbytes: int) -> None:
        """Start a periodic exchange ``src → dst`` at time ``t``."""
        if interval <= 0:
            raise SimulationError("signaling interval must be positive")
        key = (src_ip, dst_ip, interval, nbytes)
        # Re-opening an already-open relationship keeps the earlier start.
        if key not in self._open:
            self._open[key] = t
            pair = (src_ip, dst_ip)
            keys = self._pair_keys.get(pair)
            if keys is None:
                self._pair_keys[pair] = [key]
            else:
                keys.append(key)

    def close(self, src_ip: int, dst_ip: int, t: float) -> None:
        """Stop every periodic exchange ``src → dst`` at time ``t``."""
        for key in self._pair_keys.pop((src_ip, dst_ip), ()):
            start = self._open.pop(key, None)
            if start is not None and t > start:
                self._closed.append((key[0], key[1], start, t, key[2], key[3]))

    def finalize(self, t_end: float) -> np.ndarray:
        """Close everything still open and return the interval table.

        The table is filled column by column: one ``np.fromiter`` per
        field reads the row tuples straight into the field's dtype, and
        the intervals still open at ``t_end`` close in one vectorised
        step.  The book is spent afterwards.
        """
        closed, keys = self._closed, list(self._open)
        starts = np.fromiter(self._open.values(), np.float64, count=len(keys))
        live = t_end > starts
        self._open.clear()
        self._pair_keys.clear()
        table = np.empty(len(closed) + int(live.sum()), dtype=SIGNALING_DTYPE)
        head, tail = table[: len(closed)], table[len(closed) :]
        for i, name in enumerate(SIGNALING_DTYPE.names):
            head[name] = np.fromiter(map(itemgetter(i), closed), head[name].dtype, len(closed))
        # Open keys are (src, dst, interval, bytes).
        for i, name in enumerate(("src", "dst", "interval", "bytes")):
            tail[name] = np.fromiter(map(itemgetter(i), keys), tail[name].dtype, len(keys))[live]
        tail["start"] = starts[live]
        tail["stop"] = t_end
        return table


class UplinkScheduler:
    """Per-peer uplink serialisation with bounded queueing.

    ``admit`` answers: if ``src`` starts serialising ``nbytes`` now (or when
    its uplink frees up), when does transmission start — or is the backlog
    already too deep to accept the request?
    """

    def __init__(self, n_peers: int, up_bps: np.ndarray, max_backlog_s: float = 4.0) -> None:
        if len(up_bps) != n_peers:
            raise SimulationError("up_bps must have one entry per peer")
        # Plain Python floats: admit() runs once per queued transfer, and
        # scalar indexing of numpy arrays would box a fresh numpy scalar
        # per call.  Same IEEE doubles either way — arithmetic is
        # bit-identical to the previous array-backed implementation.
        # Public on purpose: the engine's per-request hot path reads these
        # directly (inlined admit), so they are part of the class contract.
        self.free_at: list[float] = [0.0] * n_peers
        self.up_bps: list[float] = np.asarray(up_bps, dtype=np.float64).tolist()
        self.max_backlog_s = max_backlog_s

    def admit(self, peer_idx: int, t: float, nbytes: int) -> float | None:
        """Try to enqueue ``nbytes`` on ``peer_idx``'s uplink at time ``t``.

        Returns the serialisation start time, or None when the uplink
        backlog exceeds the bound (the request is declined — the requester
        will try another provider at its next tick).
        """
        start = max(t, self.free_at[peer_idx])
        if start - t > self.max_backlog_s:
            return None
        duration = nbytes * BITS_PER_BYTE / self.up_bps[peer_idx]
        self.free_at[peer_idx] = start + duration
        return start

    def backlog(self, peer_idx: int, t: float) -> float:
        """Seconds of queued serialisation work at ``t``."""
        return max(0.0, self.free_at[peer_idx] - t)
