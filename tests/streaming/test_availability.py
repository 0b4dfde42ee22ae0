"""Remote chunk-availability oracle."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.streaming.availability import AvailabilityConfig, RemoteAvailability
from repro.streaming.chunk import ChunkClock
from repro.units import kbps


@pytest.fixture()
def clock() -> ChunkClock:
    return ChunkClock(rate_bps=kbps(384), chunk_bytes=16_000)


def make(clock, n=50, highbw_frac=0.5, joins=None, seed=0, **cfg_kw):
    highbw = np.arange(n) < int(n * highbw_frac)
    joins = np.zeros(n) if joins is None else joins
    return RemoteAvailability(
        clock, highbw, joins, AvailabilityConfig(**cfg_kw), np.random.default_rng(seed)
    )


class TestConfig:
    def test_negative_base_rejected(self):
        with pytest.raises(ConfigurationError):
            AvailabilityConfig(highbw_base_s=-1)

    def test_retention_must_exceed_startup(self):
        with pytest.raises(ConfigurationError):
            AvailabilityConfig(startup_s=10, retention_s=5)

    def test_misaligned_inputs_rejected(self, clock):
        with pytest.raises(ConfigurationError):
            RemoteAvailability(
                clock, np.array([True]), np.zeros(2), AvailabilityConfig(),
                np.random.default_rng(0),
            )


class TestHasChunk:
    def test_monotone_in_time(self, clock):
        av = make(clock)
        chunk = 30  # generated at t = 10
        held = [av.has_chunk(0, chunk, t) for t in (10.0, 12.0, 20.0, 40.0)]
        # Once held, stays held until retention expires.
        first = held.index(True) if True in held else len(held)
        assert all(held[first:])

    def test_never_before_generation(self, clock):
        av = make(clock)
        assert not av.has_chunk(0, 300, 1.0)  # chunk 300 generated at t=100

    def test_retention_expiry(self, clock):
        av = make(clock, retention_s=30.0, startup_s=5.0)
        assert not av.has_chunk(0, 3, 40.0)  # generated at 1s, expired at 31s

    def test_respects_join_time(self, clock):
        joins = np.full(10, 100.0)
        av = make(clock, n=10, joins=joins, startup_s=8.0)
        assert not av.has_chunk(0, 299, 105.0)  # still in startup
        # After startup, recent chunks are obtainable.
        t = 100.0 + 8.0 + float(av.delays[0]) + 1.0
        recent = clock.latest_chunk(t - float(av.delays[0]))
        assert av.has_chunk(0, recent, t)

    def test_highbw_peers_hold_chunks_earlier_on_average(self, clock):
        av = make(clock, n=2000, highbw_frac=0.5)
        hb = av.delays[:1000].mean()
        lb = av.delays[1000:].mean()
        assert hb < lb


class TestNewestMissing:
    def test_startup_wants_live_edge(self, clock):
        joins = np.zeros(5)
        av = make(clock, n=5, joins=joins, startup_s=8.0)
        assert av.newest_missing(0, 4.0) == clock.latest_chunk(4.0)

    def test_caught_up_peer_wants_nothing(self, clock):
        av = make(clock, n=5, highbw_frac=1.0, highbw_base_s=0.0,
                  highbw_scale_s=1e-9, startup_s=1.0, retention_s=60.0)
        # Query strictly between chunk boundaries: at an exact boundary the
        # just-generated chunk legitimately hasn't reached the peer yet.
        assert av.newest_missing(0, 50.1) is None

    def test_deficit_tracks_delay(self, clock):
        av = make(clock, n=5)
        t = 100.0
        missing = av.newest_missing(0, t)
        if missing is not None:
            # The peer must genuinely lack it and hold the one before it.
            assert not av.has_chunk(0, missing, t)
            assert missing <= clock.latest_chunk(t)

    def test_deterministic(self, clock):
        a = make(clock, seed=3)
        b = make(clock, seed=3)
        assert np.allclose(a.delays, b.delays)

    def test_len(self, clock):
        assert len(make(clock, n=17)) == 17
