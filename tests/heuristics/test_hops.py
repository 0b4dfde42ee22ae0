"""TTL → hop inference."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import AnalysisError
from repro.heuristics.hops import hops_from_ttl, infer_initial_ttl


class TestInferInitial:
    def test_windows_band(self):
        assert infer_initial_ttl(np.array([128]))[0] == 128
        assert infer_initial_ttl(np.array([110]))[0] == 128
        assert infer_initial_ttl(np.array([65]))[0] == 128

    def test_unix_band(self):
        assert infer_initial_ttl(np.array([64]))[0] == 64
        assert infer_initial_ttl(np.array([45]))[0] == 64

    def test_255_band(self):
        assert infer_initial_ttl(np.array([250]))[0] == 255
        assert infer_initial_ttl(np.array([129]))[0] == 255

    def test_invalid_rejected(self):
        with pytest.raises(AnalysisError):
            infer_initial_ttl(np.array([0]))
        with pytest.raises(AnalysisError):
            infer_initial_ttl(np.array([256]))

    @given(st.integers(min_value=1, max_value=255))
    def test_initial_at_least_received(self, ttl):
        assert int(infer_initial_ttl(np.array([ttl]))[0]) >= ttl


class TestHops:
    def test_paper_formula(self):
        # Paper §III-B: HOP = 128 − TTL with Windows senders.
        assert hops_from_ttl(np.array([109]), assume_initial=128)[0] == 19

    def test_auto_initial(self):
        hops = hops_from_ttl(np.array([109, 45, 250]))
        assert hops.tolist() == [19, 19, 5]

    def test_zero_hops_same_subnet(self):
        assert hops_from_ttl(np.array([128]))[0] == 0

    def test_wrong_fixed_initial_clamped(self):
        # A 255-initial packet misread as 128 would go negative; clamp to 0.
        assert hops_from_ttl(np.array([200]), assume_initial=128)[0] == 0

    def test_implausible_initial_rejected(self):
        with pytest.raises(AnalysisError):
            hops_from_ttl(np.array([100]), assume_initial=100)

    @given(st.integers(min_value=1, max_value=255))
    def test_property_nonnegative(self, ttl):
        assert int(hops_from_ttl(np.array([ttl]))[0]) >= 0


class TestGroundTruthRecovery:
    def test_recovers_simulated_hops(self, flows_small, sim_small):
        """The TTL path must invert the simulator's hop model exactly for
        128-initial senders (and for 64-initial via auto-detection, since
        simulated paths are far shorter than 64)."""
        flows = flows_small.flows
        inferred = hops_from_ttl(flows["ttl"].astype(np.int64))
        hosts = sim_small.hosts
        paths = sim_small.world.paths
        true_hops = paths.hops_many(
            flows["src"], hosts.gather(flows["src"], "asn"),
            hosts.gather(flows["src"], "subnet"),
            hosts.gather(flows["src"], "access_depth"),
            flows["dst"], hosts.gather(flows["dst"], "asn"),
            hosts.gather(flows["dst"], "subnet"),
            hosts.gather(flows["dst"], "access_depth"),
        )
        assert np.array_equal(inferred, true_hops)
        # Both directions are among the inputs: probe → remote and
        # remote → probe paths differ (routing asymmetry).
        src_probe = np.isin(flows["src"], flows_small.probe_ips)
        dst_probe = np.isin(flows["dst"], flows_small.probe_ips)
        assert (src_probe & ~dst_probe).any() and (dst_probe & ~src_probe).any()

    def test_zero_hops_iff_same_subnet(self, flows_small, sim_small):
        flows = flows_small.flows
        inferred = hops_from_ttl(flows["ttl"].astype(np.int64))
        same_subnet = sim_small.hosts.gather(
            flows["src"], "subnet"
        ) == sim_small.hosts.gather(flows["dst"], "subnet")
        assert np.array_equal(inferred == 0, same_subnet)
