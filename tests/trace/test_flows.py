"""Flow aggregation — including fast-path vs packet-path equivalence."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.obs.telemetry import Telemetry
from repro.trace.capture import captured_by
from repro.trace.flows import FlowTable, _pair_keys, build_flow_table
from repro.trace.packets import PacketSynthesizer, expand_signaling
from repro.trace.records import FLOW_DTYPE, SIGNALING_DTYPE, TRANSFER_DTYPE, PacketKind
from tests.trace.flow_oracle import oracle_flow_table


class TestBuildFlowTable:
    def test_flows_cover_all_probe_pairs(self, sim_small, flows_small):
        tr = captured_by(sim_small.transfers, sim_small.probe_ips)
        pairs = {(int(s), int(d)) for s, d in zip(tr["src"], tr["dst"])}
        flow_pairs = {
            (int(s), int(d))
            for s, d in zip(flows_small.flows["src"], flows_small.flows["dst"])
        }
        assert pairs <= flow_pairs

    def test_byte_conservation(self, sim_small, flows_small):
        logged = int(sim_small.transfers["bytes"].astype(np.uint64).sum())
        signaling = expand_signaling(sim_small.signaling)
        logged += int(signaling["bytes"].astype(np.uint64).sum())
        assert int(flows_small.flows["bytes"].sum()) == logged

    def test_video_bytes_subset(self, flows_small):
        f = flows_small.flows
        assert np.all(f["video_bytes"] <= f["bytes"])
        assert np.all(f["video_pkts"] <= f["pkts"])

    def test_timestamps_ordered(self, flows_small):
        f = flows_small.flows
        assert np.all(f["first_ts"] <= f["last_ts"])

    def test_min_ipg_positive(self, flows_small):
        assert np.all(flows_small.flows["min_ipg"] > 0)

    def test_video_flows_have_finite_ipg(self, flows_small):
        f = flows_small.flows
        video = f[f["video_pkts"] > 0]
        assert np.all(np.isfinite(video["min_ipg"]))

    def test_signaling_only_flows_have_inf_ipg(self, flows_small):
        f = flows_small.flows
        sig_only = f[f["video_pkts"] == 0]
        assert np.all(np.isinf(sig_only["min_ipg"]))

    def test_ttl_plausible(self, flows_small):
        ttl = flows_small.flows["ttl"]
        assert np.all((ttl > 80) & (ttl <= 128) | (ttl > 30) & (ttl <= 64))

    def test_wrong_dtype_rejected(self, sim_small):
        with pytest.raises(TraceError):
            build_flow_table(
                np.zeros(2, dtype=FLOW_DTYPE),
                sim_small.signaling,
                sim_small.hosts,
                sim_small.world.paths,
            )

    @pytest.mark.parametrize("carrier", ["transfers", "signaling"])
    def test_unknown_address_rejected(self, sim_small, carrier):
        """Every captured address is resolved against the host table,
        whether its flow came from a transfer or only from signaling."""
        transfers = sim_small.transfers[:50].copy()
        signaling = sim_small.signaling[:50].copy()
        rows = transfers if carrier == "transfers" else signaling
        stranger = np.uint32(int(sim_small.hosts.rows["ip"].max()) + 1)
        rows["src"][0] = sim_small.probe_ips[0]  # captured
        rows["dst"][0] = stranger
        with pytest.raises(TraceError, match="not in host table"):
            build_flow_table(
                transfers, signaling, sim_small.hosts, sim_small.world.paths
            )

    def test_empty_log(self, sim_small):
        table = build_flow_table(
            np.empty(0, dtype=sim_small.transfers.dtype),
            np.empty(0, dtype=sim_small.signaling.dtype),
            sim_small.hosts,
            sim_small.world.paths,
        )
        assert len(table) == 0


def _random_log(sim, seed: int):
    """A seeded log over ``sim``'s hosts, built to exercise every grouping case.

    Pairs mix probe and remote endpoints (some touch no probe, so the
    capture filter drops them).  Transfers are drawn from the first two
    thirds of the pairs in random time order, intervals from the last two
    thirds — so some pairs carry both, some only signaling.  Video sizes
    span zero, sub-MTU (single packet, no train) and multi-packet chunks.
    """
    n_pairs, n_transfers, n_intervals = 40, 3000, 120
    rng = np.random.default_rng(seed)

    def endpoints():
        probes = rng.choice(sim.hosts.probe_ips, n_pairs)
        anyone = rng.choice(sim.hosts.rows["ip"], n_pairs)
        return np.where(rng.random(n_pairs) < 0.5, probes, anyone)

    src, dst = endpoints(), endpoints()
    keep = src != dst
    src, dst = src[keep], dst[keep]
    m = len(src)

    pick = rng.integers(0, (2 * m) // 3, n_transfers)
    transfers = np.empty(n_transfers, dtype=TRANSFER_DTYPE)
    transfers["ts"] = rng.uniform(0.0, 60.0, n_transfers)
    transfers["src"] = src[pick]
    transfers["dst"] = dst[pick]
    transfers["kind"] = rng.choice(
        [int(PacketKind.SIGNALING), int(PacketKind.VIDEO), int(PacketKind.CONTROL)],
        n_transfers,
    )
    transfers["bytes"] = rng.choice([0, 80, 1250, 1251, 2500, 14000], n_transfers)
    transfers["bottleneck"] = rng.uniform(1e5, 1e8, n_transfers)

    pick = rng.integers(m // 3, m, n_intervals)
    intervals = np.empty(n_intervals, dtype=SIGNALING_DTYPE)
    intervals["src"] = src[pick]
    intervals["dst"] = dst[pick]
    intervals["start"] = rng.uniform(0.0, 60.0, n_intervals)
    span = rng.uniform(0.0, 30.0, n_intervals)
    span[::7] = 0.0  # single-datagram intervals
    intervals["stop"] = intervals["start"] + span
    intervals["interval"] = rng.uniform(0.3, 4.0, n_intervals)
    intervals["bytes"] = rng.integers(40, 200, n_intervals)
    return transfers, intervals


class TestAgainstOracle:
    """The one-pass aggregator equals the per-row expand-and-group oracle:
    byte-identical flow arrays and equal telemetry counters."""

    @staticmethod
    def assert_same(sim, transfers, signaling, probes_only):
        fast_tel, oracle_tel = Telemetry(), Telemetry()
        args = (transfers, signaling, sim.hosts, sim.world.paths)
        fast = build_flow_table(*args, probes_only=probes_only, telemetry=fast_tel)
        oracle = oracle_flow_table(*args, probes_only=probes_only, telemetry=oracle_tel)
        assert fast.flows.tobytes() == oracle.flows.tobytes()
        assert fast_tel.counters == oracle_tel.counters
        return fast

    @pytest.mark.parametrize("probes_only", [True, False])
    def test_sim_small(self, sim_small, probes_only):
        table = self.assert_same(
            sim_small, sim_small.transfers, sim_small.signaling, probes_only
        )
        assert len(table) > 0

    @pytest.mark.parametrize("probes_only", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_logs(self, sim_small, seed, probes_only):
        transfers, intervals = _random_log(sim_small, seed)
        assert np.any(np.diff(transfers["ts"]) < 0)  # not time-sorted
        table = self.assert_same(sim_small, transfers, intervals, probes_only)
        pairs = set(zip(table.flows["src"].tolist(), table.flows["dst"].tolist()))
        t_pairs = set(zip(transfers["src"].tolist(), transfers["dst"].tolist()))
        s_pairs = set(zip(intervals["src"].tolist(), intervals["dst"].tolist()))
        assert pairs & t_pairs & s_pairs  # pairs carrying both
        assert (pairs & s_pairs) - t_pairs  # signaling-only pairs
        assert (len(pairs) < len(t_pairs | s_pairs)) == probes_only  # capture drops some

    @pytest.mark.parametrize("probes_only", [True, False])
    def test_single_packet_video(self, sim_small, probes_only):
        transfers, intervals = _random_log(sim_small, 3)
        transfers["kind"] = int(PacketKind.VIDEO)
        transfers["bytes"] = np.minimum(transfers["bytes"], 1250)
        table = self.assert_same(sim_small, transfers, intervals, probes_only)
        assert np.all(np.isinf(table.flows["min_ipg"]))
        assert np.any(table.flows["video_pkts"] > 0)

    @pytest.mark.parametrize("probes_only", [True, False])
    @pytest.mark.parametrize("empty", ["signaling", "transfers", "both"])
    def test_empty_inputs(self, sim_small, probes_only, empty):
        transfers, intervals = _random_log(sim_small, 4)
        if empty in ("transfers", "both"):
            transfers = transfers[:0]
        if empty in ("signaling", "both"):
            intervals = intervals[:0]
        self.assert_same(sim_small, transfers, intervals, probes_only)
        if empty == "signaling":
            self.assert_same(sim_small, transfers, None, probes_only)


_BAD_INTERVALS = {
    "zero-interval": dict(interval=0.0),
    "nan-interval": dict(interval=np.nan),
    "negative-interval": dict(interval=-1.0),
    "stop-before-start": dict(start=10.0, stop=5.0),
}


class TestMalformedIntervals:
    """Malformed rows from a loaded bundle raise a named TraceError (a
    ReproError the campaign ledger traps), never a bare ValueError."""

    @pytest.fixture(params=sorted(_BAD_INTERVALS))
    def bad_intervals(self, request, sim_small):
        intervals = sim_small.signaling[:3].copy()
        for field, value in _BAD_INTERVALS[request.param].items():
            intervals[1][field] = value
        return intervals

    def test_expand_signaling(self, bad_intervals):
        with pytest.raises(TraceError, match="1 of 3 signaling interval rows"):
            expand_signaling(bad_intervals)

    def test_build_flow_table(self, sim_small, bad_intervals):
        with pytest.raises(TraceError, match="1 of 3 signaling interval rows"):
            build_flow_table(
                sim_small.transfers,
                bad_intervals,
                sim_small.hosts,
                sim_small.world.paths,
            )


class TestDirectionalSelectors:
    def test_received_by(self, flows_small):
        probe = int(flows_small.probe_ips[0])
        rx = flows_small.received_by(probe)
        assert np.all(rx["dst"] == np.uint32(probe))

    def test_sent_by(self, flows_small):
        probe = int(flows_small.probe_ips[0])
        tx = flows_small.sent_by(probe)
        assert np.all(tx["src"] == np.uint32(probe))

    def test_with_video(self, flows_small):
        assert np.all(flows_small.with_video()["video_bytes"] > 0)


class TestPacketPathEquivalence:
    """The pcap-analyst path must agree with the fast path."""

    @pytest.fixture(scope="class")
    def both(self, sim_small):
        # Restrict to one probe's traffic to keep packet volume small.
        probe = int(sim_small.probe_ips[3])
        mask = (sim_small.transfers["src"] == probe) | (
            sim_small.transfers["dst"] == probe
        )
        transfers = sim_small.transfers[mask][:3000]
        fast = build_flow_table(
            transfers,
            np.empty(0, dtype=sim_small.signaling.dtype),
            sim_small.hosts,
            sim_small.world.paths,
            probes_only=False,
        )
        synth = PacketSynthesizer(sim_small.hosts, sim_small.world.paths)
        packets = synth.expand(transfers)
        slow = FlowTable.from_packets(packets, sim_small.hosts)
        return fast, slow

    def test_same_pairs(self, both):
        fast, slow = both
        fp = set(zip(fast.flows["src"].tolist(), fast.flows["dst"].tolist()))
        sp = set(zip(slow.flows["src"].tolist(), slow.flows["dst"].tolist()))
        assert fp == sp

    def test_same_bytes_and_pkts(self, both):
        fast, slow = both
        f = np.sort(fast.flows, order=["src", "dst"])
        s = np.sort(slow.flows, order=["src", "dst"])
        assert np.array_equal(f["bytes"], s["bytes"])
        assert np.array_equal(f["pkts"], s["pkts"])
        assert np.array_equal(f["video_bytes"], s["video_bytes"])

    def test_same_ttl(self, both):
        fast, slow = both
        f = np.sort(fast.flows, order=["src", "dst"])
        s = np.sort(slow.flows, order=["src", "dst"])
        assert np.array_equal(f["ttl"], s["ttl"])

    @pytest.fixture(scope="class")
    def with_signaling(self, sim_small):
        """The same probe with its captured signaling intervals: expanded
        to datagrams on the packet path, taken as intervals on the fast
        path.  The transfers of a few signaling pairs are dropped, so
        those pairs become signaling-only flows."""
        probe = np.uint32(sim_small.probe_ips[3])
        sig = sim_small.signaling
        intervals = sig[(sig["src"] == probe) | (sig["dst"] == probe)]
        quiet = np.unique(_pair_keys(intervals["src"], intervals["dst"]))[:5]
        tr = sim_small.transfers
        mask = (tr["src"] == probe) | (tr["dst"] == probe)
        mask &= ~np.isin(_pair_keys(tr["src"], tr["dst"]), quiet)
        transfers = tr[mask][:3000]
        fast = build_flow_table(
            transfers,
            intervals,
            sim_small.hosts,
            sim_small.world.paths,
            probes_only=False,
        )
        synth = PacketSynthesizer(sim_small.hosts, sim_small.world.paths)
        log = np.concatenate((transfers, expand_signaling(intervals)))
        slow = FlowTable.from_packets(synth.expand(log), sim_small.hosts)
        signaling_only = set(zip(intervals["src"].tolist(), intervals["dst"].tolist()))
        signaling_only -= set(zip(transfers["src"].tolist(), transfers["dst"].tolist()))
        return fast, slow, signaling_only

    def test_signaling_leg_matches_packet_path(self, with_signaling):
        fast, slow, signaling_only = with_signaling
        assert signaling_only
        f = np.sort(fast.flows, order=["src", "dst"])
        s = np.sort(slow.flows, order=["src", "dst"])
        assert np.array_equal(f[["src", "dst"]], s[["src", "dst"]])
        for field in ("bytes", "pkts", "video_bytes", "ttl"):
            assert np.array_equal(f[field], s[field]), field
        sig_only = np.array(
            [(int(a), int(b)) in signaling_only for a, b in zip(f["src"], f["dst"])]
        )
        assert np.all(np.isinf(f["min_ipg"][sig_only]))
        assert np.all(np.isinf(s["min_ipg"][sig_only]))

    def test_equivalent_bw_classification(self, both):
        # min IPG values may differ slightly (the packet path can observe
        # inter-transfer gaps), but the 1 ms classification must agree for
        # flows with video trains.
        fast, slow = both
        f = np.sort(fast.flows, order=["src", "dst"])
        s = np.sort(slow.flows, order=["src", "dst"])
        has_train = f["video_pkts"] >= 2
        assert np.array_equal(
            f["min_ipg"][has_train] < 1e-3, s["min_ipg"][has_train] < 1e-3
        )
