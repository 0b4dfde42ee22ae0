"""Run manifests: digests, round-trips, campaign extraction."""

import json

import pytest

from repro.errors import TraceError
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_digest,
    manifest_from_campaign,
    read_manifest,
    render_manifest_diff,
    render_manifest_summary,
    write_manifest,
)

SMALL = dict(duration_s=25.0, scale=0.3)


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(CampaignConfig(apps=("tvants",), **SMALL))


@pytest.fixture(scope="module")
def manifest(campaign):
    return manifest_from_campaign(campaign, command=["campaign", "--apps", "tvants"])


class TestConfigDigest:
    def test_stable_across_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert config_digest({"seed": 1}) != config_digest({"seed": 2})

    def test_short_hex(self):
        digest = config_digest({"x": 1})
        assert len(digest) == 12
        int(digest, 16)


class TestRoundTrip:
    def test_write_read_identity(self, manifest, tmp_path):
        path = write_manifest(tmp_path / "m", manifest)
        assert path.suffix == ".json"
        back = read_manifest(path)
        assert back.to_dict() == manifest.to_dict()

    def test_file_is_plain_json(self, manifest, tmp_path):
        path = write_manifest(tmp_path / "m.json", manifest)
        data = json.loads(path.read_text())
        assert data["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert data["kind"] == "campaign"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError):
            read_manifest(tmp_path / "absent.json")

    def test_bad_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TraceError):
            read_manifest(bad)

    def test_wrong_schema_version_raises(self, manifest, tmp_path):
        path = write_manifest(tmp_path / "m.json", manifest)
        data = json.loads(path.read_text())
        data["schema_version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(TraceError):
            read_manifest(path)

    def test_unknown_keys_ignored(self):
        m = RunManifest.from_dict({"kind": "campaign", "future_field": 1})
        assert m.kind == "campaign"


class TestCampaignManifest:
    def test_config_and_seeds_recorded(self, campaign, manifest):
        cfg = campaign.config
        assert tuple(manifest.config["apps"]) == cfg.apps
        assert manifest.config["duration_s"] == cfg.duration_s
        assert manifest.config_hash
        assert manifest.seeds["campaign"] == cfg.seed
        assert manifest.seeds["world"] == campaign.world.config.seed
        assert manifest.seeds["engine"]["tvants"] == cfg.seed

    def test_shard_outcomes_recorded(self, manifest):
        (shard,) = manifest.shards
        assert shard["app"] == "tvants"
        assert shard["ok"] is True
        assert shard["retries"] == 0
        assert shard["failed_stages"] == []
        # Per-shard stage timings came through the telemetry pipe.
        assert "shard/simulate" in shard["telemetry"]["timers"]

    def test_engine_and_capture_counters_present(self, manifest):
        counters = manifest.telemetry["counters"]
        assert counters["engine/events"] > 0
        assert counters["engine/transfer_records"] > 0
        assert counters["engine/bytes_recorded"] > 0
        assert counters["capture/records_in"] >= counters["capture/records_kept"] > 0
        assert manifest.telemetry["gauges"]["engine/peak_queue_depth"]["peak"] > 0

    def test_transfer_log_gauge_is_the_log_size(self, campaign, manifest):
        gauge = manifest.telemetry["gauges"]["engine/transfer_log_bytes"]["peak"]
        assert gauge == campaign["tvants"].result.transfers.nbytes > 0
        row = "engine/transfer_log_bytes (peak)"
        assert row in render_manifest_summary(manifest)
        assert row in render_manifest_diff(manifest, manifest)

    def test_score_rows_gauge_is_the_cache_size(self, campaign, manifest):
        gauge = manifest.telemetry["gauges"]["engine/score_rows_bytes"]["peak"]
        stats = campaign["tvants"].result.extras["engine_stats"]
        assert gauge == stats["score_rows_bytes"] > 0
        assert "score_rows_bytes" not in stats["lazy"]
        row = "engine/score_rows_bytes (peak)"
        assert row in render_manifest_summary(manifest)

    def test_score_row_builds_counter_is_the_cache_misses(self, campaign, manifest):
        builds = manifest.telemetry["counters"]["engine/score_row_builds"]
        stats = campaign["tvants"].result.extras["engine_stats"]
        assert builds == stats["lazy"]["score_row_misses"] > 0
        assert "engine/score_row_builds" in render_manifest_summary(manifest)
        assert "engine/score_row_builds" in render_manifest_diff(manifest, manifest)

    def test_per_kind_event_counters_present(self, manifest):
        counters = manifest.telemetry["counters"]
        dispatch = {k: v for k, v in counters.items() if k.startswith("engine/dispatch/")}
        schedule = {k: v for k, v in counters.items() if k.startswith("engine/schedule/")}
        assert dispatch and schedule
        # Every dispatched kind was scheduled at least as often, and the
        # per-kind dispatch counts sum to the total event count.
        for key, count in dispatch.items():
            kind = key.removeprefix("engine/dispatch/")
            assert schedule[f"engine/schedule/{kind}"] >= count
        assert sum(dispatch.values()) == counters["engine/events"]
        assert counters["engine/events_scheduled"] == sum(schedule.values())

    def test_artifacts_default_empty_and_round_trips(self, manifest, tmp_path):
        assert manifest.artifacts == {}
        manifest2 = RunManifest.from_dict(manifest.to_dict())
        manifest2.artifacts["profile"] = "run.pstats"
        path = write_manifest(tmp_path / "m.json", manifest2)
        assert read_manifest(path).artifacts == {"profile": "run.pstats"}

    def test_per_stage_timings_present(self, manifest):
        timers = manifest.telemetry["timers"]
        for stage in ("campaign", "campaign/shards", "shard", "shard/simulate"):
            assert timers[stage]["wall_s"] >= 0.0
            assert timers[stage]["calls"] >= 1

    def test_ok_property(self, manifest):
        assert manifest.ok

    def test_peak_rss_recorded(self, manifest):
        # The shard worker samples getrusage at finalize; the campaign
        # peak-merges across shards and the manifest surfaces the result.
        rss = manifest.resources.get("peak_rss_mb")
        assert rss is not None
        assert 1.0 < rss < 1_000_000.0  # a plausible resident set, in MB

    def test_resources_round_trip(self, manifest, tmp_path):
        path = write_manifest(tmp_path / "m.json", manifest)
        assert read_manifest(path).resources == manifest.resources

    def test_command_recorded(self, manifest):
        assert manifest.command == ["campaign", "--apps", "tvants"]

    def test_failed_campaign_manifest(self, monkeypatch):
        import repro.experiments.campaign as campaign_mod
        from repro.errors import SimulationError

        def explode(profile, **kwargs):
            raise SimulationError("boom")

        monkeypatch.setattr(campaign_mod, "simulate", explode)
        failed = run_campaign(CampaignConfig(apps=("tvants",), **SMALL))
        m = manifest_from_campaign(failed)
        assert not m.ok
        (shard,) = m.shards
        assert shard["ok"] is False
        assert shard["failed_stages"] == ["simulate"]
        assert m.failures[0]["stage"] == "simulate"
        assert "boom" in m.failures[0]["error"]


class TestSummary:
    def test_summary_renders_tables(self, manifest):
        out = render_manifest_summary(manifest)
        assert "SHARDS" in out
        assert "STAGE TIMERS" in out
        assert "COUNTERS" in out
        assert "tvants" in out
        assert "engine/events" in out

    def test_summary_surfaces_peak_rss(self, manifest):
        out = render_manifest_summary(manifest)
        assert "RESOURCES" in out
        assert "peak_rss_mb" in out

    def test_summary_lists_failures(self, manifest):
        broken = RunManifest.from_dict(manifest.to_dict())
        broken.failures = [
            {"app": "tvants", "stage": "simulate", "attempt": 0, "seed": 42,
             "error": "synthetic"}
        ]
        out = render_manifest_summary(broken)
        assert "FAILURES" in out
        assert "synthetic" in out


def _synthetic_manifest(seed=1, wall=2.0, events=1000):
    """A minimal hand-built manifest (no campaign run needed)."""
    config = {"seed": seed, "duration_s": 30.0, "apps": ["tvants"]}
    return RunManifest(
        kind="campaign",
        config=config,
        config_hash=config_digest(config),
        telemetry={
            "timers": {"shard.tvants.simulate": {"calls": 1, "wall_s": wall,
                                                 "cpu_s": wall * 0.9}},
            "counters": {"engine/events": events},
            "gauges": {"engine/queue_depth": {"peak": 64.0, "samples": 1}},
        },
    )


class TestManifestDiff:
    def test_same_config_reports_match(self):
        out = render_manifest_diff(_synthetic_manifest(), _synthetic_manifest())
        assert "configs match" in out
        assert "CONFIG MISMATCH" not in out

    def test_differing_config_lists_changed_keys(self):
        out = render_manifest_diff(
            _synthetic_manifest(seed=1), _synthetic_manifest(seed=2)
        )
        assert "CONFIG MISMATCH" in out
        assert "CONFIG CHANGES" in out
        assert "seed" in out

    def test_timings_and_counters_compared(self):
        out = render_manifest_diff(
            _synthetic_manifest(wall=4.0, events=1000),
            _synthetic_manifest(wall=2.0, events=1100),
        )
        assert "STAGE TIMERS" in out
        assert "2.00x" in out  # 4.0s → 2.0s speedup
        assert "+100" in out  # event-count delta
        assert "engine/queue_depth (peak)" in out

    def test_stage_missing_on_one_side(self):
        a = _synthetic_manifest()
        b = _synthetic_manifest()
        b.telemetry = {}
        out = render_manifest_diff(a, b)
        assert "shard.tvants.simulate" in out

    def test_real_manifest_diffs_against_itself(self, manifest):
        out = render_manifest_diff(manifest, manifest)
        assert "configs match" in out
        assert "STAGE TIMERS" in out
