"""Remote chunk-availability oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RngBundle
from repro.errors import ConfigurationError
from repro.population.demographics import crossswarm_audience
from repro.population.sparse import SparseSwarmConfig, generate_sparse_swarm
from repro.streaming.availability import AvailabilityConfig, RemoteAvailability
from repro.streaming.chunk import ChunkClock
from repro.streaming.engine import Engine, EngineConfig
from repro.streaming.profiles import get_profile
from repro.streaming.schedulers.mesh_pull import MeshPullScheduler
from repro.topology.testbed import build_napa_wine_testbed
from repro.topology.world import World
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


def _stopped_engine(app, duration_s, retention_s):
    """An engine run to ``duration_s`` whose remotes retain chunks for
    ``retention_s`` (the state stays inspectable after ``run()``)."""
    profile = get_profile(app)
    profile = profile.scaled_swarm(1200) if app == "napa-scale" else profile.scaled(0.5)
    profile = replace(
        profile, availability=replace(profile.availability, retention_s=retention_s)
    )
    world = World()
    testbed = build_napa_wine_testbed(world)
    population = generate_sparse_swarm(
        world,
        SparseSwarmConfig(
            size=profile.swarm_size,
            demographics=crossswarm_audience(probe_as_fraction=profile.probe_as_fraction),
        ),
        RngBundle(5)["population"],
    )
    config = EngineConfig(duration_s=duration_s, seed=5)
    engine = Engine(world, testbed, profile, population, config)
    engine.run()
    return engine


class _Pick:
    """Engine-RNG stand-in: always explores and picks holder ``i``,
    recording how many holders the kernel offered."""

    def __init__(self, i):
        self.i = i
        self.n = None

    def random(self):
        return 0.0

    def integers(self, n):
        self.n = n
        return self.i


def _kernel_holders(eng, probe, partners, chunk, t):
    """The narrow mesh-pull kernel's plan-ordered holders of ``chunk``.

    Runs the real ``schedule_requests`` on a one-chunk lookahead once per
    holder, with exploration forced and the draw picking holder 0, 1, …
    in turn; ``_request_chunk`` records each pick and declines it, so
    nothing is sent.  The stopped engine is changed in place.
    """
    kernel = MeshPullScheduler()
    kernel.bind(eng)
    picked = []
    eng._request_chunk = lambda _probe, g, _chunk, _t: picked.append(g)
    eng._explore_prob = 1.0
    probe.busy_over.clear()
    while True:
        eng._rng_engine = draws = _Pick(len(picked))
        kernel.schedule_requests(probe, t, [chunk], partners, 1)
        if draws.n is None or len(picked) == draws.n:
            return picked


def _oracle_holders(eng, partners, chunk, t):
    """The partners the scalar oracles say hold ``chunk``, in plan order."""
    nr = eng.n_remote
    return [
        g
        for g in partners.tolist()
        if (eng.availability.has_chunk(g, chunk, t) if g < nr else eng._soa.has(g - nr, chunk))
    ]


@pytest.fixture(scope="module")
def narrow_case():
    """A stopped narrow (tvants) engine, its widest probe and the window's
    chunks, newest first; shared by the hypothesis examples."""
    t = 40.0
    eng = _stopped_engine("tvants", t, retention_s=15.0)
    probe = max(eng._probes, key=lambda p: len(p.partners))
    ci = eng._av_chunk_interval
    chunks = list(range(int(t / ci), eng._soa.window_floor(t) - 1, -1))
    return eng, probe, chunks


class TestEngineKernelAgainstOracles:
    """``Engine._availability`` ≡ the scalar oracles, cell by cell.

    The engine is stopped mid-stream with a retention shorter than the
    playout window, so the kernel's freshness cut bites (at the default
    60 s retention against a 30 s window it is vacuous).  Remote columns
    must equal :meth:`RemoteAvailability.has_chunk`, probe columns
    :meth:`SoAState.has`, for every chunk of the window at the stop time.
    """

    @pytest.mark.parametrize("app, wide", [("tvants", False), ("napa-scale", True)])
    def test_columns_match_scalar_oracles(self, app, wide):
        t = 40.0
        eng = _stopped_engine(app, t, retention_s=15.0)
        soa = eng._soa
        ci = eng._av_chunk_interval
        assert eng._av_retention < soa.window_chunks * ci  # the cut can bite
        # The kernel ignores sessions, so the full partner set is fair
        # game (every session, probes' included, has closed at the end).
        probe = max(eng._probes, key=lambda p: len(p.partners))
        partners = probe.partners_arr
        ctx = eng._partner_ctx(probe.pi, partners)
        assert (ctx["narrow"] is None) == wide
        assert 0 < ctx["n_rem"] < len(partners)  # both column families

        chunks = np.arange(soa.window_floor(t), int(t / ci) + 1, dtype=np.int64)[::-1]
        A = eng._availability(ctx, chunks, t)
        assert A.shape == (len(chunks), len(partners))
        nr = eng.n_remote
        stale = 0
        for k, g in enumerate(partners.tolist()):
            col = A[:, ctx["plan_cols"][k]].tolist()
            for c, got in zip(chunks.tolist(), col):
                if g < nr:
                    want = eng.availability.has_chunk(g, c, t)
                    d, r = eng.availability.scalar_view(g)
                    stale += max(c * ci + d, r) <= t and not want
                else:
                    want = soa.has(g - nr, c)
                assert got == want, (g, c)
        # Some diffused remote chunk aged out: the freshness cut was live.
        assert stale > 0
        # And the probe columns hold real buffer content.
        assert A[:, ctx["n_rem"]:].any()

    def test_narrow_kernel_holders_match_scalar_oracles(self):
        """The narrow kernel's holders ≡ the oracles, chunk by chunk, with
        the freshness cut binding (same stopped engine as above)."""
        t = 40.0
        eng = _stopped_engine("tvants", t, retention_s=15.0)
        probe = max(eng._probes, key=lambda p: len(p.partners))
        partners = probe.partners_arr
        assert eng._partner_ctx(probe.pi, partners)["narrow"] is not None
        ci = eng._av_chunk_interval
        nr = eng.n_remote
        chunks = range(int(t / ci), eng._soa.window_floor(t) - 1, -1)
        mixed = aged = 0
        for c in chunks:
            want = _oracle_holders(eng, partners, c, t)
            assert _kernel_holders(eng, probe, partners, c, t) == want, c
            mixed += min(want, default=nr) < nr <= max(want, default=0)
            aged += t >= c * ci + eng._av_retention
        assert mixed > 0  # holder sets with both column families
        assert aged > 0  # and chunks past every remote's retention
        assert eng._holder_sets_built > 0

    def test_narrow_kernel_settles_rounding_at_the_cut(self):
        """The delay bisection runs on ``t - gen``, whose rounding can put
        a remote on the wrong side of ``gen + delay <= t`` either way; the
        kernel settles the count with the oracle's own compare.  The clock
        is set so chunk 32 is generated at ``2 + 12u`` (``u`` = 2**-52):
        at ``t1 = 12 + 8u``, ``t1 - gen`` rounds up to the delay 10.0
        although ``gen + 10.0`` rounds above ``t1``; at ``t2 = 12 + 16u``
        it rounds down to 10.0, below the delay ``10 + 8u`` that
        ``gen + 10 + 8u`` (rounding to ``t2``) still lets through."""
        eng = _stopped_engine("tvants", 40.0, retention_s=15.0)
        probe = max(eng._probes, key=lambda p: len(p.partners))
        partners = probe.partners_arr
        remotes = [g for g in partners.tolist() if g < eng.n_remote]
        u = 2.0**-52
        chunk = 32
        assert chunk >= eng._soa.window_floor(40.0)  # probe bits still in-row
        eng._av_chunk_interval = eng.availability._chunk_interval = (2 + 12 * u) / chunk
        gen = chunk * eng._av_chunk_interval
        t1, t2 = 12 + 8 * u, 12 + 16 * u
        d_up, d_down = 10.0, 10 + 8 * u
        assert t1 - gen >= d_up and gen + d_up > t1
        assert t2 - gen < d_down and gen + d_down <= t2
        av = eng.availability
        pool = [d_up, d_down, 3.0, 3.0, 10 + 16 * u, 14.0]
        for k, g in enumerate(remotes):
            av.delays[g] = pool[k % len(pool)]
            av.ready_from[g] = 0.0
        eng._ctx_slot[probe.pi] = None  # rebuild the context from the new scalars
        for t in (t1, t2):
            want = _oracle_holders(eng, partners, chunk, t)
            assert _kernel_holders(eng, probe, partners, chunk, t) == want, t
            assert any(g < eng.n_remote for g in want)
        assert remotes[1] in want  # d_down holds at t2

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_narrow_kernel_holders_on_boundaries(self, narrow_case, data):
        """Tied delays, remotes not yet ready, ``t`` at an arrival time
        ``gen + delay`` or one ulp either side of it, and a ready time
        crossed between two ticks of one partner context."""
        eng, probe, chunks = narrow_case
        partners = probe.partners_arr
        remotes = [g for g in partners.tolist() if g < eng.n_remote]
        chunk = data.draw(st.sampled_from(chunks))
        gen = chunk * eng._av_chunk_interval
        # A pool of a few delays, so remotes share them (ties).
        pool = data.draw(
            st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=1, max_size=4)
        )
        delays = [data.draw(st.sampled_from(pool)) for _ in remotes]
        # The anchor remote, ready by t1, arrives at t0.
        anchor = data.draw(st.integers(0, len(remotes) - 1))
        t0 = gen + delays[anchor]
        t1 = data.draw(st.sampled_from([np.nextafter(t0, -np.inf), t0, np.nextafter(t0, np.inf)]))
        t2 = t1 + data.draw(st.floats(0.0, 5.0))
        # Ready before t1, at t1, crossed between t1 and t2, at t2, or later.
        readies = [0.0, t1, (t1 + t2) / 2, t2, t2 + 1.0]
        av = eng.availability
        for k, (g, d) in enumerate(zip(remotes, delays)):
            av.delays[g] = d
            av.ready_from[g] = data.draw(st.sampled_from(readies[:2] if k == anchor else readies))
        eng._ctx_slot[probe.pi] = None  # rebuild the context from the new scalars
        for t in (float(t1), float(t2)):
            want = _oracle_holders(eng, partners, chunk, t)
            assert _kernel_holders(eng, probe, partners, chunk, t) == want, (chunk, t)
