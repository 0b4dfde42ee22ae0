"""Transport: uplink serialisation, recording, signaling book."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.streaming.transport import (
    SignalingBook,
    TransferRecorder,
    UplinkScheduler,
    bottleneck_bps,
    path_latency,
)
from repro.trace.records import SIGNALING_DTYPE, TRANSFER_DTYPE, PacketKind
from repro.units import kbps, mbps


class TestHelpers:
    def test_bottleneck(self):
        assert bottleneck_bps(mbps(100), mbps(4)) == mbps(4)
        assert bottleneck_bps(kbps(384), mbps(100)) == kbps(384)

    def test_latency_grows_with_hops(self):
        assert path_latency(20) > path_latency(2) > 0


class TestRecorder:
    def test_round_trip(self):
        rec = TransferRecorder()
        rec.record(1.0, 10, 20, 16000, PacketKind.VIDEO, mbps(10))
        rec.record(0.5, 11, 21, 80, PacketKind.CONTROL, mbps(1))
        out = rec.finalize()
        assert out.dtype == TRANSFER_DTYPE
        assert len(out) == 2
        # Sorted by time.
        assert out["ts"][0] == 0.5
        assert out["src"][1] == 10 and out["dst"][1] == 20
        assert out["kind"][0] == int(PacketKind.CONTROL)

    def test_empty(self):
        assert len(TransferRecorder().finalize()) == 0

    def test_len(self):
        rec = TransferRecorder()
        assert len(rec) == 0
        rec.record(0, 1, 2, 3, PacketKind.SIGNALING, 1.0)
        assert len(rec) == 1


#: Few distinct timestamps, so equal-``ts`` runs straddle flush points.
_rows = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 7.5]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.sampled_from([int(k) for k in PacketKind]),
        st.floats(1.0, 1e9, allow_nan=False),
    ),
    max_size=60,
)


class TestRecorderFlush:
    @settings(max_examples=100, deadline=None)
    @given(rows=_rows, cuts=st.sets(st.integers(0, 60)))
    def test_flush_points_do_not_change_the_log(self, rows, cuts):
        plain = TransferRecorder()
        flushed = TransferRecorder()
        for i, row in enumerate(rows):
            if i in cuts:
                flushed.flush()
            plain.append_row(row)
            flushed.append_row(row)
            assert len(flushed) == i + 1
        if len(rows) in cuts:
            flushed.flush()
        a, b = plain.finalize(), flushed.finalize()
        assert b.dtype == TRANSFER_DTYPE
        assert a.tobytes() == b.tobytes()
        # Finalizing again (after more flushes) gives the same log.
        flushed.flush()
        assert flushed.finalize().tobytes() == a.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 60),
        packed=st.sets(st.integers(0, 59)),
        at=st.integers(0, 60),
        seed=st.integers(0, 2**16),
    )
    def test_packed_block_sorts_in_by_time(self, n, packed, at, seed):
        # Rows of distinct times: a block of them, handed over packed at
        # any point, finalizes to the log of the rows appended one by one.
        rng = np.random.default_rng(seed)
        ts = rng.permutation(n) * 0.5
        rows = [(float(t), int(t) + 1, 7, 80, int(PacketKind.CONTROL), 2.0) for t in ts]
        plain = TransferRecorder()
        for row in rows:
            plain.append_row(row)
        mixed = TransferRecorder()
        in_block = [row for i, row in enumerate(rows) if i in packed]
        block = np.array(in_block, dtype=TRANSFER_DTYPE) if in_block else np.empty(0, TRANSFER_DTYPE)
        loose = [row for i, row in enumerate(rows) if i not in packed]
        for i, row in enumerate(loose):
            if i == at:
                mixed.append_block(block)
            mixed.append_row(row)
        if at >= len(loose):
            mixed.append_block(block)
        assert len(mixed) == n
        assert mixed.finalize().tobytes() == plain.finalize().tobytes()

    def test_append_row_stays_bound_across_flushes(self):
        rec = TransferRecorder()
        append = rec.append_row
        append((2.0, 1, 2, 3, int(PacketKind.VIDEO), 1.0))
        rec.flush()
        append((1.0, 4, 5, 6, int(PacketKind.CONTROL), 2.0))
        assert len(rec) == 2
        assert rec.finalize()["src"].tolist() == [4, 1]

    def test_empty_flush_is_a_noop(self):
        rec = TransferRecorder()
        rec.flush()
        assert len(rec) == 0 and rec._blocks == []
        rec.record(0.0, 1, 2, 3, PacketKind.VIDEO, 1.0)
        rec.flush()
        rec.flush()
        assert len(rec) == 1 and len(rec._blocks) == 1

    def test_empty_recorder_finalizes_to_typed_empty(self):
        rec = TransferRecorder()
        rec.flush()
        out = rec.finalize()
        assert out.dtype == TRANSFER_DTYPE and len(out) == 0


class TestUplinkScheduler:
    def test_serialisation(self):
        up = np.array([kbps(384)])
        sched = UplinkScheduler(1, up)
        # One 16 kB chunk takes 1/3 s at 384 kb/s.
        s1 = sched.admit(0, 0.0, 16_000)
        s2 = sched.admit(0, 0.0, 16_000)
        assert s1 == 0.0
        assert s2 == pytest.approx(1 / 3)

    def test_backlog_bound(self):
        sched = UplinkScheduler(1, np.array([kbps(384)]), max_backlog_s=1.0)
        admitted = 0
        for _ in range(10):
            if sched.admit(0, 0.0, 16_000) is not None:
                admitted += 1
        # 1 s of backlog holds three 1/3-s chunks (plus the one at t=0).
        assert admitted == 4

    def test_idle_uplink_starts_immediately(self):
        sched = UplinkScheduler(1, np.array([mbps(100)]))
        sched.admit(0, 0.0, 16_000)
        assert sched.admit(0, 10.0, 16_000) == 10.0

    def test_backlog_query(self):
        sched = UplinkScheduler(1, np.array([kbps(384)]))
        sched.admit(0, 0.0, 16_000)
        assert sched.backlog(0, 0.0) == pytest.approx(1 / 3)
        assert sched.backlog(0, 10.0) == 0.0

    def test_independent_peers(self):
        sched = UplinkScheduler(2, np.array([kbps(384), mbps(100)]))
        sched.admit(0, 0.0, 16_000)
        assert sched.admit(1, 0.0, 16_000) == 0.0

    def test_misaligned_capacities_rejected(self):
        with pytest.raises(SimulationError):
            UplinkScheduler(2, np.array([1.0]))


class TestSignalingBook:
    def test_open_close(self):
        book = SignalingBook()
        book.open(1, 2, 10.0, 2.0, 120)
        book.close(1, 2, 30.0)
        out = book.finalize(100.0)
        assert out.dtype == SIGNALING_DTYPE
        assert len(out) == 1
        assert out["start"][0] == 10.0 and out["stop"][0] == 30.0

    def test_finalize_closes_open(self):
        book = SignalingBook()
        book.open(1, 2, 10.0, 2.0, 120)
        out = book.finalize(50.0)
        assert out["stop"][0] == 50.0

    def test_reopen_keeps_earlier_start(self):
        book = SignalingBook()
        book.open(1, 2, 10.0, 2.0, 120)
        book.open(1, 2, 20.0, 2.0, 120)
        out = book.finalize(50.0)
        assert len(out) == 1
        assert out["start"][0] == 10.0

    def test_close_is_directional(self):
        book = SignalingBook()
        book.open(1, 2, 0.0, 2.0, 120)
        book.open(2, 1, 0.0, 2.0, 120)
        book.close(1, 2, 10.0)
        out = book.finalize(20.0)
        stops = {(int(r["src"]), int(r["dst"])): float(r["stop"]) for r in out}
        assert stops[(1, 2)] == 10.0
        assert stops[(2, 1)] == 20.0

    def test_zero_length_interval_dropped(self):
        book = SignalingBook()
        book.open(1, 2, 10.0, 2.0, 120)
        book.close(1, 2, 10.0)
        assert len(book.finalize(20.0)) == 0

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            SignalingBook().open(1, 2, 0.0, 0.0, 10)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 4),
                st.integers(0, 4),
                st.floats(0.0, 100.0, allow_nan=False),
                st.sampled_from([0.5, 2.0, 10.0]),
                st.integers(1, 2000),
            ),
            max_size=40,
        ),
        st.floats(0.0, 120.0, allow_nan=False),
    )
    # One interval closed, one still open at t_end, one opened after it.
    @example(
        [(True, 1, 2, 0.0, 2.0, 80), (True, 2, 1, 5.0, 0.5, 90),
         (False, 1, 2, 30.0, 2.0, 1), (True, 3, 4, 70.0, 10.0, 7)],
        60.0,
    )
    def test_finalize_equals_row_by_row_table(self, ops, t_end):
        """The one-call table equals a row-by-row fill, open intervals included."""
        book = SignalingBook()
        for is_open, src, dst, t, interval, nbytes in sorted(ops, key=lambda op: op[3]):
            if is_open:
                book.open(src, dst, t, interval, nbytes)
            else:
                book.close(src, dst, t)
        still_open = [
            (k[0], k[1], start, t_end, k[2], k[3])
            for k, start in book._open.items()
            if t_end > start
        ]
        rows = book._closed + still_open
        want = np.empty(len(rows), dtype=SIGNALING_DTYPE)
        for i, row in enumerate(rows):
            want[i] = row
        got = book.finalize(t_end)
        assert got.dtype == SIGNALING_DTYPE
        assert got.tobytes() == want.tobytes()
