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


class TestRemotePullWindows:
    """A demand rebalance at ``t0`` draws each attached remote's pull times
    in ``[t0, t1)``, and the next rebalance, which re-samples the
    downloaders, fires at ``t1``: every pull is dispatched inside the
    window of the rebalance that drew it, before any later one."""

    @pytest.mark.parametrize("app", ["tvants", "napa-scale"])
    def test_every_pull_lies_in_its_drawing_window(self, monkeypatch, app):
        rebalances: list[float] = []
        chains: dict[int, tuple] = {}  # id(times) -> (times, rebalances seen, t0, t1)
        pulls: list[tuple[bool, bool]] = []
        rebalance = Engine._on_demand_rebalance
        draw, pull = Engine._schedule_pulls, Engine._on_remote_pull

        def counting_rebalance(self):
            rebalances.append(self._queue.now)
            rebalance(self)

        def recording_draw(self, remote, probe, t0, t1):
            queue = self._queue

            def schedule(t, callback, *args):
                times = args[4]
                chains[id(times)] = (times, len(rebalances), t0, t1)
                type(queue).schedule(queue, t, callback, *args)

            queue.schedule = schedule
            try:
                draw(self, remote, probe, t0, t1)
            finally:
                del queue.schedule

        def checking_pull(self, remote, probe, delay, ready, times, wants, i):
            _, drawn_after, t0, t1 = chains[id(times)]
            t = times[i]
            assert self._queue.now == t
            pulls.append((len(rebalances) == drawn_after, t0 <= t < t1))
            pull(self, remote, probe, delay, ready, times, wants, i)

        monkeypatch.setattr(Engine, "_on_demand_rebalance", counting_rebalance)
        monkeypatch.setattr(Engine, "_schedule_pulls", recording_draw)
        monkeypatch.setattr(Engine, "_on_remote_pull", checking_pull)
        profile = get_profile(app)
        if app != "napa-scale":
            profile = profile.scaled(0.5)
        simulate(profile, engine_config=EngineConfig(duration_s=70.0, seed=43))

        assert len(rebalances) == 4 and len(chains) > 100
        assert len(pulls) > 1000
        assert all(same and inside for same, inside in pulls)


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
