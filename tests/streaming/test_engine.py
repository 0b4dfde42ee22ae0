"""Engine integration: physical invariants of the simulated traffic."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.streaming.engine import Engine, EngineConfig, simulate
from repro.streaming.profiles import get_profile
from repro.trace.records import PacketKind
from repro.units import BITS_PER_BYTE


@pytest.fixture(scope="module")
def result():
    return simulate(
        get_profile("tvants"), engine_config=EngineConfig(duration_s=60.0, seed=5)
    )


class TestLogWellFormed:
    def test_timestamps_in_window(self, result):
        ts = result.transfers["ts"]
        assert np.all(ts >= 0.0)
        # Queued uploads may start slightly after the horizon was reached.
        assert np.all(ts <= result.duration_s + 5.0)

    def test_sorted_by_time(self, result):
        ts = result.transfers["ts"]
        assert np.all(np.diff(ts) >= 0)

    def test_no_self_traffic(self, result):
        assert np.all(result.transfers["src"] != result.transfers["dst"])

    def test_all_addresses_known(self, result):
        tr = result.transfers
        for col in ("src", "dst"):
            result.hosts.indices_of(tr[col])  # raises on unknown

    def test_kinds_valid(self, result):
        kinds = set(np.unique(result.transfers["kind"]).tolist())
        assert kinds <= {int(k) for k in PacketKind}

    def test_every_transfer_touches_a_probe(self, result):
        tr = result.transfers
        probes = result.probe_ips
        touches = np.isin(tr["src"], probes) | np.isin(tr["dst"], probes)
        assert np.all(touches)

    def test_signaling_intervals_well_formed(self, result):
        sig = result.signaling
        assert np.all(sig["start"] < sig["stop"])
        assert np.all(sig["stop"] <= result.duration_s)
        assert np.all(sig["interval"] > 0)


class TestStreamingBehaviour:
    def test_probes_receive_roughly_stream_rate(self, result):
        tr = result.transfers
        video = tr[tr["kind"] == int(PacketKind.VIDEO)]
        probes = result.probe_ips
        rx = video[np.isin(video["dst"], probes)]
        per_probe = []
        for ip in probes:
            nbytes = rx["bytes"][rx["dst"] == ip].sum()
            per_probe.append(nbytes * BITS_PER_BYTE / result.duration_s)
        mean_rate = np.mean(per_probe)
        nominal = result.profile.video.rate_bps
        assert 0.75 * nominal < mean_rate < 1.25 * nominal

    def test_uplink_capacity_respected(self, result):
        tr = result.transfers
        video = tr[tr["kind"] == int(PacketKind.VIDEO)]
        for src in np.unique(video["src"]):
            sent = video["bytes"][video["src"] == src].sum()
            cap = float(result.hosts.row_for(int(src))["up_bps"])
            # Average sending rate cannot exceed the uplink (small slack for
            # the tail transfer crossing the horizon).
            assert sent * BITS_PER_BYTE / result.duration_s <= cap * 1.1

    def test_video_flows_from_many_distinct_providers(self, result):
        tr = result.transfers
        video = tr[tr["kind"] == int(PacketKind.VIDEO)]
        probes = result.probe_ips
        rx = video[np.isin(video["dst"], probes)]
        assert len(np.unique(rx["src"])) > 30

    def test_remote_demand_generates_probe_uploads(self, result):
        tr = result.transfers
        video = tr[tr["kind"] == int(PacketKind.VIDEO)]
        probes = result.probe_ips
        tx = video[np.isin(video["src"], probes) & ~np.isin(video["dst"], probes)]
        assert tx["bytes"].sum() > 0

    def test_signaling_present_both_directions(self, result):
        tr = result.transfers
        sig = tr[tr["kind"] == int(PacketKind.SIGNALING)]
        probes = result.probe_ips
        assert np.isin(sig["src"], probes).any()
        assert np.isin(sig["dst"], probes).any()


class TestDeterminism:
    def test_identical_runs_identical_logs(self):
        cfg = EngineConfig(duration_s=20.0, seed=77)
        a = simulate(get_profile("tvants"), engine_config=cfg)
        b = simulate(get_profile("tvants"), engine_config=cfg)
        assert np.array_equal(a.transfers, b.transfers)
        assert np.array_equal(a.signaling, b.signaling)
        assert np.array_equal(a.hosts.rows, b.hosts.rows)

    def test_seed_changes_traffic(self):
        a = simulate(
            get_profile("tvants"), engine_config=EngineConfig(duration_s=20.0, seed=1)
        )
        b = simulate(
            get_profile("tvants"), engine_config=EngineConfig(duration_s=20.0, seed=2)
        )
        assert not np.array_equal(a.transfers, b.transfers)


class TestPartnerContextSlot:
    """One partner context per probe, rebuilt exactly when its online
    partner set changes between lookups."""

    @pytest.mark.parametrize(
        "app, wide",
        [
            ("tvants", False),  # narrow sets: the scalar scan plan
            ("napa-scale", True),  # wide sets: the matrix kernel
        ],
    )
    def test_one_build_per_change_of_the_online_set(self, monkeypatch, app, wide):
        seen: dict[int, list[bytes]] = {}
        builds: dict[int, int] = {}
        narrow: list[bool] = []
        lookup, build = Engine._partner_ctx, Engine._build_partner_ctx

        def recording_lookup(self, pi, partners):
            seen.setdefault(pi, []).append(partners.tobytes())
            return lookup(self, pi, partners)

        def counting_build(self, pi, partners):
            builds[pi] = builds.get(pi, 0) + 1
            ctx = build(self, pi, partners)
            narrow.append(ctx["narrow"] is not None)
            return ctx

        monkeypatch.setattr(Engine, "_partner_ctx", recording_lookup)
        monkeypatch.setattr(Engine, "_build_partner_ctx", counting_build)
        profile = get_profile(app)
        profile = profile.scaled_swarm(1200) if app == "napa-scale" else profile.scaled(0.5)
        simulate(profile, engine_config=EngineConfig(duration_s=60.0, seed=43))

        changes = {
            pi: sum(k == 0 or keys[k] != keys[k - 1] for k in range(len(keys)))
            for pi, keys in seen.items()
        }
        assert builds == changes
        # Both slot outcomes occur: some lookups reuse, some rebuild.
        n_lookups = sum(len(keys) for keys in seen.values())
        assert len(seen) < sum(builds.values()) < n_lookups
        assert not any(narrow) if wide else all(narrow)


#: Every handler the engine dispatches from its queue (pulls come from the
#: attached stream instead).
_QUEUED_HANDLERS = (
    "_on_chunk_arrival",
    "_on_demand_rebalance",
    "_on_discovery",
    "_on_partner_refresh",
    "_on_tick",
    "_on_tick_cohort",
)


class _PullLog:
    """What one hooked run dispatched and served, in order."""

    def __init__(self) -> None:
        #: (time, is_pull) per queued dispatch and per served pull.
        self.timeline: list[tuple[float, bool]] = []
        self.rebalances: list[float] = []
        #: Drawn pull time -> (rebalances before the draw, t0, t1).
        self.drawn: dict[float, tuple[int, float, float]] = {}
        #: (time, rebalances dispatched when it was served) per pull.
        self.served: list[tuple[float, int]] = []
        #: The packed request blocks the recorder received.
        self.blocks: list[np.ndarray] = []


def _hook_pulls(monkeypatch, draw=None) -> _PullLog:
    """Record every queued dispatch, pull draw, pull serve and request block.

    ``draw``, if given, replaces :meth:`Engine._draw_pulls` (same
    signature) so a test can stub the drawn times.
    """
    import functools

    from repro.streaming.transport import TransferRecorder

    log = _PullLog()
    for name in _QUEUED_HANDLERS:
        handler = getattr(Engine, name)

        @functools.wraps(handler)
        def hooked(self, *args, _handler=handler, _name=name):
            now = self._queue.now
            log.timeline.append((now, False))
            if _name == "_on_demand_rebalance":
                log.rebalances.append(now)
            _handler(self, *args)

        monkeypatch.setattr(Engine, name, hooked)

    drawer = draw or Engine._draw_pulls

    def recording_draw(self, t0, t1):
        times = drawer(self, t0, t1)
        if times is not None:
            for t in times.tolist():
                assert t not in log.drawn, "two pulls drawn at one time"
                log.drawn[t] = (len(log.rebalances), t0, t1)
        return times

    serve = Engine._serve_pulls

    def recording_serve(self, lo, hi):
        for t in self._pull_times[lo:hi]:
            log.timeline.append((t, True))
            log.served.append((t, len(log.rebalances)))
        serve(self, lo, hi)

    append_block = TransferRecorder.append_block

    def recording_append_block(self, block):
        log.blocks.append(block.copy())
        append_block(self, block)

    monkeypatch.setattr(Engine, "_draw_pulls", recording_draw)
    monkeypatch.setattr(Engine, "_serve_pulls", recording_serve)
    monkeypatch.setattr(TransferRecorder, "append_block", recording_append_block)
    return log


def _check_pull_accounting(log: _PullLog, result) -> None:
    """Every drawn pull served once, in time order with the queued events,
    and counted once as a dispatched and a scheduled ``remote_pull``."""
    stats = result.extras["engine_stats"]
    served = [t for t, _ in log.served]
    assert len(served) == len(set(served)) == len(log.drawn)
    assert set(served) == set(log.drawn)
    n_pulls = stats["dispatch_by_kind"]["remote_pull"]
    assert n_pulls == stats["schedule_by_kind"]["remote_pull"] == len(served)
    assert stats["events"] == len(log.timeline)
    times = [t for t, _ in log.timeline]
    assert all(a <= b for a, b in zip(times, times[1:])), "served out of time order"


class TestRemotePullWindows:
    """A demand rebalance at ``t0`` draws each attached remote's pull times
    in ``[t0, t1)``, and the next rebalance, which re-samples the
    downloaders, fires at ``t1``.  The window's pulls reach the queue as
    one stream: every pull is served at its drawn time, inside the window
    of the rebalance that drew it and before any later one."""

    @pytest.mark.parametrize("app", ["tvants", "napa-scale"])
    def test_every_pull_lies_in_its_drawing_window(self, monkeypatch, app):
        log = _hook_pulls(monkeypatch)
        profile = get_profile(app)
        if app != "napa-scale":
            profile = profile.scaled(0.5)
        result = simulate(profile, engine_config=EngineConfig(duration_s=70.0, seed=43))

        assert len(log.rebalances) == 4 and len(log.served) > 1000
        for t, seen in log.served:
            drawn_after, t0, t1 = log.drawn[t]
            assert seen == drawn_after and t0 <= t < t1
        _check_pull_accounting(log, result)

    def test_pull_drawn_at_window_end_is_served_once_after_rebalance(self, monkeypatch):
        # ``uniform(t0, t1)`` can round up to ``t1``.  Stub the first
        # multi-pull chain of the first window to end exactly there: the
        # chained per-pull events this stream replaced dispatched that pull
        # after the rebalance at ``t1`` (its sequence number was later).
        stubbed: list[float] = []
        real_draw = Engine._draw_pulls

        def draw_to_window_end(self, t0, t1):
            times = real_draw(self, t0, t1)
            if times is not None and len(times) > 1 and not stubbed and t0 == 0.0:
                times[-1] = t1
                stubbed.append(t1)
            return times

        log = _hook_pulls(monkeypatch, draw=draw_to_window_end)
        result = simulate(
            get_profile("tvants").scaled(0.5),
            engine_config=EngineConfig(duration_s=50.0, seed=43),
        )
        assert stubbed == [20.0]
        t1 = stubbed[0]
        assert [t for t, _ in log.served].count(t1) == 1
        assert (t1, 2) in log.served  # served after the second rebalance
        at_t1 = [pull for t, pull in log.timeline if t == t1]
        assert at_t1[-1] is True and at_t1.count(True) == 1
        assert log.rebalances[1] == t1
        _check_pull_accounting(log, result)
        # Its request record was logged once, with the window it was drawn in.
        request = result.transfers["kind"] == int(PacketKind.CONTROL)
        packed = np.concatenate(log.blocks)
        assert (packed["ts"] == t1).sum() == 1
        assert (result.transfers["ts"][request] == t1).sum() == 1


def _golden_cases() -> dict[str, tuple]:
    """The engine and scheduler golden runs: name -> (profile, config kwargs)."""
    from dataclasses import replace

    from repro.streaming.schedulers import SCHEDULER_NAMES
    from tests.golden.regen_engine import (
        ENGINE_GOLDEN_APPS,
        ENGINE_GOLDEN_KWARGS,
        SCHEDULER_GOLDEN_APP,
        SCHEDULER_GOLDEN_KWARGS,
        SCHEDULER_GOLDEN_SCALE,
    )

    cases = {app: (get_profile(app), ENGINE_GOLDEN_KWARGS) for app in ENGINE_GOLDEN_APPS}
    scaled = get_profile(SCHEDULER_GOLDEN_APP).scaled(SCHEDULER_GOLDEN_SCALE)
    for name in sorted(SCHEDULER_NAMES):
        cases[f"scheduler-{name}"] = (replace(scaled, scheduler=name), SCHEDULER_GOLDEN_KWARGS)
    return cases


class TestNoTimeTies:
    """The pull stream reproduces the per-pull events' ``(t, seq)`` order
    everywhere except at exact time ties, where the queued event goes
    first and a packed request row sorts in by time alone.  On every
    golden case no tie occurs, so byte identity rests on this property
    and not only on the pinned seeds."""

    @pytest.mark.parametrize("case", sorted(_golden_cases()))
    def test_golden_case_has_no_pull_ties(self, monkeypatch, case):
        profile, kwargs = _golden_cases()[case]
        log = _hook_pulls(monkeypatch)
        result = simulate(profile, engine_config=EngineConfig(**kwargs))
        _check_pull_accounting(log, result)
        assert len(log.served) > 100

        queued = {t for t, pull in log.timeline if not pull}
        assert not any(t in queued for t, _ in log.served)

        packed = np.concatenate(log.blocks)["ts"]
        assert len(packed) > 100
        values, counts = np.unique(result.transfers["ts"], return_counts=True)
        assert not np.isin(packed, values[counts > 1]).any()


class TestHostTable:
    def test_probe_count(self, result):
        assert len(result.probe_ips) == 46

    def test_swarm_size(self, result):
        rows = result.hosts.rows
        assert (~rows["is_probe"]).sum() == result.profile.swarm_size

    def test_ground_truth_classes_consistent(self, result):
        rows = result.hosts.rows
        assert np.all(rows["highbw"] == (rows["up_bps"] > 10e6))


class TestEngineConfig:
    def test_bad_duration_rejected(self):
        with pytest.raises(Exception):
            EngineConfig(duration_s=0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ConfigurationError, match="finite"):
            EngineConfig(duration_s=duration)

    def test_bad_rebalance_rejected(self):
        with pytest.raises(Exception):
            EngineConfig(demand_rebalance_s=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            EngineConfig(seed=-1)


class TestBiasedSampler:
    """The alias-discovery sampler every ``discovery="alias"`` run draws from."""

    def test_frequencies_match_normalised_weights(self):
        from repro.streaming.engine import _BiasedSampler

        asn = np.array([1, 2, 1, 3, 2, 1, 4, 1])
        chooser, bias = 1, 3.0
        sampler = _BiasedSampler(len(asn), np.flatnonzero(asn == chooser), bias)
        draws = sampler.draw(np.random.default_rng(11), 200_000)
        weights = 1.0 + bias * (asn == chooser)
        freq = np.bincount(draws, minlength=len(asn)) / len(draws)
        assert np.allclose(freq, weights / weights.sum(), atol=0.005)

    @pytest.mark.parametrize("bias, same", [(0.0, [0, 2]), (2.0, [])])
    def test_inactive_bias_consumes_only_the_index_draw(self, bias, same):
        from repro.streaming.engine import _BiasedSampler

        sampler = _BiasedSampler(9, np.array(same, dtype=np.int64), bias)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        draws = sampler.draw(rng, 50)
        assert np.array_equal(draws, ref.integers(0, 9, size=50))
        assert rng.bit_generator.state == ref.bit_generator.state
