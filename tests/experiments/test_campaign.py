"""Campaign runner."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignConfig, run_campaign


class TestConfig:
    def test_defaults(self):
        cfg = CampaignConfig()
        assert cfg.apps == ("pplive", "sopcast", "tvants")

    def test_empty_apps_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(apps=())

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(duration_s=0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(scale=-1)

    @pytest.mark.parametrize("field", ["duration_s", "scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_duration_and_scale_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            CampaignConfig(**{field: value})


    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            CampaignConfig(seed=-1)


class TestRun:
    def test_runs_every_app(self, campaign_small):
        assert set(campaign_small.apps) == {"pplive", "sopcast", "tvants"}

    def test_shared_world_and_testbed(self, campaign_small):
        probe_ips = {
            app: set(run.result.probe_ips.tolist())
            for app, run in campaign_small.runs.items()
        }
        vals = list(probe_ips.values())
        assert vals[0] == vals[1] == vals[2]

    def test_runs_have_reports(self, campaign_small):
        for run in campaign_small.runs.values():
            assert run.report.metric_names == ["BW", "AS", "CC", "NET", "HOP"]

    def test_scale_applied(self, campaign_small):
        pp = campaign_small["pplive"].result.profile
        assert pp.swarm_size == 2000  # 4000 × 0.5

    def test_getitem(self, campaign_small):
        assert campaign_small["tvants"].app == "tvants"
        with pytest.raises(KeyError):
            campaign_small["uusee"]

    def test_single_app_campaign(self):
        campaign = run_campaign(
            CampaignConfig(apps=("tvants",), duration_s=20.0, seed=3, scale=0.5)
        )
        assert campaign.apps == ["tvants"]
