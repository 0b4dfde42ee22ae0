"""Replicated campaigns."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignConfig
from repro.experiments.multirun import (
    render_replicated_table4,
    run_replicated_campaign,
)


@pytest.fixture(scope="module")
def replicated():
    return run_replicated_campaign(
        CampaignConfig(duration_s=45.0, scale=0.4),
        seeds=[7, 8],
    )


class TestRun:
    def test_replication_count(self, replicated):
        assert replicated.n_replications == 2
        assert replicated.seeds == [7, 8]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            run_replicated_campaign(seeds=[])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            run_replicated_campaign(seeds=[1, 1])

    def test_checks_recorded(self, replicated):
        assert len(replicated.check_runs) == 2
        assert len(replicated.check_runs[0]) == len(replicated.check_runs[1])


class TestAggregation:
    def test_cell_stats(self, replicated):
        stats = replicated.cell_stats("BW", "tvants", "download", "B")
        assert stats.n == 2
        assert 80 < stats.mean <= 100
        assert stats.std >= 0

    def test_nan_cells_stay_nan(self, replicated):
        stats = replicated.cell_stats("BW", "tvants", "upload", "B")
        assert math.isnan(stats.mean)
        assert stats.n == 0

    def test_variation_across_seeds(self, replicated):
        # Seeds differ, so at least some cell varies.
        varied = any(
            replicated.cell_stats("AS", app, "download", "B").std > 0
            for app in ("pplive", "sopcast", "tvants")
        )
        assert varied

    def test_pass_rates(self, replicated):
        rates = replicated.check_pass_rates()
        assert rates
        assert all(0.0 <= r <= 1.0 for r in rates.values())
        # The bulletproof claims pass in every replication even tiny.
        assert rates["T4/NET: no non-probe same-subnet peers exist (P' empty)"] == 1.0

    def test_bw_claim_robust_across_seeds(self, replicated):
        for seed_table in replicated.tables:
            for app in ("pplive", "sopcast", "tvants"):
                assert seed_table.cell("BW", app, "download").B > 85


class TestRender:
    def test_render(self, replicated):
        out = render_replicated_table4(replicated)
        assert "replications" in out
        assert "±" in out
        assert "tvants" in out
