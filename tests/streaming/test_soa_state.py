"""SoAState unit laws: slot mapping, sliding base, resize-on-churn.

The shared bitmaps address chunk ``c`` of probe ``pi`` at column
``c - base[pi]``; these tests pin the mapping and every way it moves —
eviction wipes, base shifts (with the low-set rescue of late arrivals),
the shared widen under churn backlogs, and the always-False guard
columns the availability gather clamps into.  The trace-level checks
live in ``test_determinism_golden.py`` and ``test_soa_differential.py``;
this file covers the state machine underneath them in isolation.
"""

import pytest

from repro.errors import SimulationError
from repro.streaming.soa import _GUARD, SoAState


@pytest.fixture
def soa():
    # window 8, margin 4 → capacity 76 (window + margin + 64 slack).
    return SoAState(n_probes=3, window_chunks=8, interval=1.0, margin=4)


class TestSlotMapping:
    def test_capacity_and_guard(self, soa):
        assert soa.capacity == 8 + 4 + 64
        assert soa.have.shape == (3, soa.capacity + _GUARD)
        assert soa.inflight.shape == soa.have.shape

    def test_have_roundtrip_at_base_zero(self, soa):
        soa.have_add(0, 5)
        assert soa.has(0, 5)
        assert not soa.has(0, 4)
        assert not soa.has(1, 5)  # rows are independent
        assert soa.have[0, 5]  # slot == chunk while base == 0

    def test_mapping_follows_the_base(self, soa):
        soa._set_base(1, 40)
        soa.have_add(1, 47)
        assert soa.have[1, 7]
        assert soa.has(1, 47)

    def test_idempotent_add(self, soa):
        soa.have_add(0, 9)
        soa.have_add(0, 9)
        assert soa.has(0, 9)
        assert soa.have[0].nonzero()[0].tolist() == [9]

    def test_inflight_counts(self, soa):
        soa.inflight_add(0, 3)
        soa.inflight_add(0, 3)  # duplicate: no double count
        soa.inflight_add(0, 4)
        assert soa.inflight_n[0] == 2
        soa.inflight_discard(0, 3)
        soa.inflight_discard(0, 3)  # absent: no underflow
        assert soa.inflight_n[0] == 1
        assert soa.inflight_has(0, 4) and not soa.inflight_has(0, 3)

    def test_inflight_below_base_is_an_invariant_break(self, soa):
        soa._set_base(0, 10)
        with pytest.raises(SimulationError):
            soa.inflight_add(0, 9)

    def test_late_arrival_below_base_parks_in_low(self, soa):
        soa._set_base(2, 20)
        soa.have_add(2, 15)
        assert soa.has(2, 15)
        assert 15 in soa.low[2]
        assert not soa.have[2].any()  # never written into the row


class TestTickScan:
    def test_missing_newest_first_with_floor(self, soa):
        # live = 10, window 8 → floor 3; holes of [3, 10] minus held/in-flight.
        soa.have_add(0, 5)
        soa.inflight_add(0, 7)
        floor, holes = soa.tick_scan(0, t=10.0, live_lag=0, limit=None)
        assert floor == 3
        assert holes == [10, 9, 8, 6, 4, 3]

    def test_limit_keeps_the_newest(self, soa):
        floor, holes = soa.tick_scan(0, t=10.0, live_lag=0, limit=3)
        assert holes == [10, 9, 8]

    def test_scan_stash_identity(self, soa):
        _, holes = soa.tick_scan(0, t=10.0, live_lag=0, limit=None)
        assert holes is soa.scan_list
        assert soa.scan_arr.tolist() == holes

    def test_eviction_wipes_below_floor(self, soa):
        soa.have_add(0, 2)
        soa.inflight_add(0, 1)
        floor, _ = soa.tick_scan(0, t=10.0, live_lag=0, limit=None)
        assert floor == 3
        assert soa.evicted_to[0] == 3
        assert not soa.has(0, 2)
        assert soa.inflight_n[0] == 0  # pruned in-flight adjusts the count

    def test_eviction_drops_stale_low_entries(self, soa):
        soa._set_base(0, 30)
        soa.have_add(0, 10)  # parks in low
        soa.tick_scan(0, t=40.0, live_lag=0, limit=None)  # floor 33
        assert 10 not in soa.low[0]


class TestMakeRoom:
    def test_shift_slides_the_base_and_preserves_bits(self, soa):
        soa.tick_scan(0, t=40.0, live_lag=0, limit=None)  # evicted_to = 33
        soa.have_add(0, 35)
        soa.have_add(0, soa.capacity)  # first unaddressable chunk → shift
        assert soa.shifts == 1 and soa.resizes == 0
        assert soa.base[0] == 33 - 4  # evicted frontier minus margin
        assert soa.base_arr[0] == soa.base[0]
        assert soa.has(0, 35) and soa.has(0, 76)
        assert soa.have[0, 35 - 29]  # the bit physically moved

    def test_shift_rescues_late_bits_into_low(self, soa):
        soa.tick_scan(0, t=40.0, live_lag=0, limit=None)
        soa.have_add(0, 25)  # late arrival: below the next base (29)
        soa.have_add(0, soa.capacity)
        assert 25 in soa.low[0]
        assert soa.has(0, 25)

    def test_widen_reallocates_all_rows(self, soa):
        old_cap = soa.capacity
        soa.have_add(1, 7)
        soa.have_add(0, 200)  # far beyond capacity, nothing evicted yet
        assert soa.resizes == 1
        assert soa.capacity >= 200 + 1 + 64
        assert soa.capacity > old_cap
        # The widen is shared: every row (and the guard) reallocates.
        assert soa.have.shape == (3, soa.capacity + _GUARD)
        assert soa.inflight.shape == soa.have.shape
        assert soa.has(0, 200) and soa.has(1, 7)

    def test_guard_columns_stay_false(self, soa):
        soa.have_add(0, 200)  # widen
        soa.tick_scan(0, t=250.0, live_lag=0, limit=None)
        soa.have_add(0, 300)  # shift after eviction
        soa.inflight_add(0, 301)
        assert not soa.have[:, soa.capacity :].any()
        assert not soa.inflight[:, soa.capacity :].any()

    def test_byte_buffers_back_the_matrices(self, soa):
        """The flat buffers and the numpy matrices are one memory block,
        before and after a widen, and ``row_off``/``row_top`` address it."""
        soa.have_add(1, 7)
        soa.have_add(0, 200)  # widen: fresh buffers for every row
        soa.tick_scan(0, t=250.0, live_lag=0, limit=None)
        soa.have_add(0, 300)  # shift row 0
        soa.inflight_add(2, 9)
        for buf, mat in ((soa.have_buf, soa.have), (soa.infl_buf, soa.inflight)):
            assert bytes(buf) == mat.tobytes()
        for pi, chunk in ((1, 7), (0, 300)):
            assert soa.have_buf[soa.row_off[pi] + chunk] == 1
            assert soa.base[pi] <= chunk < soa.row_top[pi]
        assert soa.infl_buf[soa.row_off[2] + 9] == 1
        assert soa.row_top == [b + soa.capacity for b in soa.base]
