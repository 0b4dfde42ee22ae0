"""Resilient campaign execution: ledger, retry, checkpoint, validation."""

import numpy as np
import pytest

import repro.experiments.campaign as campaign_mod
from repro.errors import SimulationError
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.faults.plan import ImpairmentPlan
from repro.trace.store import load_trace_bundle, save_trace_bundle

SMALL = dict(duration_s=20.0, seed=3, scale=0.4)


def failing_simulate(fail_app: str, fail_times: int = 10**9):
    """A simulate() stand-in raising for one app a bounded number of times."""
    real = campaign_mod.simulate
    counter = {"n": 0}

    def wrapper(profile, **kwargs):
        if profile.name == fail_app:
            counter["n"] += 1
            if counter["n"] <= fail_times:
                raise SimulationError("injected fault")
        return real(profile, **kwargs)

    return wrapper


class TestFailureIsolation:
    def test_one_bad_app_does_not_sink_the_campaign(self, monkeypatch):
        monkeypatch.setattr(campaign_mod, "simulate", failing_simulate("pplive"))
        campaign = run_campaign(
            CampaignConfig(apps=("pplive", "tvants"), **SMALL)
        )
        assert campaign.failed_apps == ["pplive"]
        assert "tvants" in campaign.runs
        assert not campaign.ok
        [failure] = campaign.failures
        assert (failure.app, failure.stage) == ("pplive", "simulate")
        assert "injected fault" in failure.error
        assert campaign.failures_for("tvants") == []

    def test_retry_with_reseed_recovers(self, monkeypatch):
        monkeypatch.setattr(
            campaign_mod, "simulate", failing_simulate("pplive", fail_times=2)
        )
        campaign = run_campaign(
            CampaignConfig(apps=("pplive",), max_retries=2, **SMALL)
        )
        assert campaign.failed_apps == []
        attempts = [(f.attempt, f.seed) for f in campaign.failures]
        assert [a for a, _ in attempts] == [0, 1]
        # Each retry runs under a distinct seed.
        assert len({s for _, s in attempts}) == 2

    def test_retries_exhausted_lands_in_ledger(self, monkeypatch):
        monkeypatch.setattr(campaign_mod, "simulate", failing_simulate("tvants"))
        campaign = run_campaign(
            CampaignConfig(apps=("tvants",), max_retries=1, **SMALL)
        )
        assert campaign.failed_apps == ["tvants"]
        assert len(campaign.failures) == 2  # initial + one retry


class TestCheckpointResume:
    def test_resume_skips_resimulation(self, tmp_path, monkeypatch):
        cfg = CampaignConfig(
            apps=("tvants",), checkpoint_dir=str(tmp_path), **SMALL
        )
        first = run_campaign(cfg)
        assert first.ok and not first["tvants"].from_checkpoint
        assert (tmp_path / "tvants.npz").exists()

        calls = []
        real = campaign_mod.simulate

        def counting(profile, **kwargs):
            calls.append(profile.name)
            return real(profile, **kwargs)

        monkeypatch.setattr(campaign_mod, "simulate", counting)
        second = run_campaign(cfg)
        assert calls == []
        assert second.ok and second["tvants"].from_checkpoint
        assert np.array_equal(
            first["tvants"].result.transfers, second["tvants"].result.transfers
        )
        assert (
            first["tvants"].report["BW"].download.B
            == second["tvants"].report["BW"].download.B
        )

    @pytest.mark.parametrize("core", ["object", "soa"])
    def test_bundle_from_either_retired_core_resumes(self, tmp_path, monkeypatch, core):
        """Checkpoints written while the engine had two cores carry an
        ``engine`` meta key.  It no longer decides anything: such a bundle
        resumes without re-simulating and yields the same analysis."""
        cfg = CampaignConfig(apps=("tvants",), checkpoint_dir=str(tmp_path), **SMALL)
        fresh = run_campaign(cfg)
        path = tmp_path / "tvants.npz"
        bundle = load_trace_bundle(path)
        assert "engine" not in bundle.meta
        bundle.meta["engine"] = core
        save_trace_bundle(path, bundle)

        calls = []
        real = campaign_mod.simulate

        def counting(profile, **kwargs):
            calls.append(profile.name)
            return real(profile, **kwargs)

        monkeypatch.setattr(campaign_mod, "simulate", counting)
        resumed = run_campaign(cfg, backend="serial")
        assert calls == [] and resumed.failures == []
        assert resumed["tvants"].from_checkpoint

        def scores(campaign):
            report = campaign["tvants"].report
            return [
                getattr(getattr(report[m], d), v)
                for m in report.metric_names
                for d in ("download", "upload")
                for v in ("B", "P", "B_prime", "P_prime")
            ]

        assert np.array_equal(scores(fresh), scores(resumed), equal_nan=True)

    def test_failed_app_resumes_only_the_missing_run(self, tmp_path, monkeypatch):
        cfg = CampaignConfig(
            apps=("pplive", "tvants"), checkpoint_dir=str(tmp_path), **SMALL
        )
        real_sim = campaign_mod.simulate
        monkeypatch.setattr(campaign_mod, "simulate", failing_simulate("pplive"))
        partial = run_campaign(cfg)
        assert partial.failed_apps == ["pplive"]
        assert (tmp_path / "tvants.npz").exists()
        assert not (tmp_path / "pplive.npz").exists()

        # Next attempt (healthy simulate): tvants comes from its
        # checkpoint, only pplive is simulated.
        calls = []

        def counting(profile, **kwargs):
            calls.append(profile.name)
            return real_sim(profile, **kwargs)

        monkeypatch.setattr(campaign_mod, "simulate", counting)
        # Serial backend: the assertion observes the parent-process call
        # list, which process-pool workers cannot append to.
        resumed = run_campaign(cfg, backend="serial")
        assert resumed.ok
        assert calls == ["pplive"]
        assert resumed["tvants"].from_checkpoint
        assert not resumed["pplive"].from_checkpoint

    def test_checkpoint_failure_seeds_are_base_seeds(self, tmp_path, monkeypatch):
        """Checkpoint-stage ledger entries record the shard's base seed
        (campaign seed + app index) — never a retry-reseeded engine seed —
        for both the load and the save path (the unification fix)."""
        cfg = CampaignConfig(
            apps=("pplive", "tvants"),
            checkpoint_dir=str(tmp_path),
            max_retries=2,
            **SMALL,
        )
        base_seed = {"pplive": cfg.seed, "tvants": cfg.seed + 1}

        # Save path: tvants needs one reseeded retry (result seed ≠ base
        # seed), then every checkpoint write fails.
        monkeypatch.setattr(
            campaign_mod, "simulate", failing_simulate("tvants", fail_times=1)
        )

        def refuse_save(path, bundle):
            raise OSError("disk full")

        monkeypatch.setattr(campaign_mod, "save_trace_bundle", refuse_save)
        campaign = run_campaign(cfg, backend="serial")
        assert campaign.failed_apps == []
        saves = [f for f in campaign.failures if f.stage == "checkpoint"]
        assert {f.app for f in saves} == {"pplive", "tvants"}
        for f in saves:
            assert f.seed == base_seed[f.app]
        # The retried app's actual engine seed differs from what the
        # ledger records for the checkpoint stage — that is the point.
        assert campaign["tvants"].result.config.seed != base_seed["tvants"]

        # Load path: a stale checkpoint records the same convention.
        monkeypatch.undo()
        run_campaign(cfg)
        stale = CampaignConfig(
            apps=("pplive", "tvants"),
            duration_s=SMALL["duration_s"] + 5.0,
            seed=SMALL["seed"],
            scale=SMALL["scale"],
            checkpoint_dir=str(tmp_path),
        )
        resumed = run_campaign(stale)
        loads = [f for f in resumed.failures if f.stage == "checkpoint"]
        assert {f.app for f in loads} == {"pplive", "tvants"}
        for f in loads:
            assert f.seed == base_seed[f.app]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("profile", "pplive", "checkpoint profile"),
            ("duration_s", 999.0, "duration mismatch"),
            ("campaign_scale", 0.9, "scale mismatch"),
            ("world_seed", 12345, "world mismatch"),
            ("impairment_seed", 77, "impairment mismatch"),
        ],
    )
    def test_each_mismatch_branch_forces_resimulation(
        self, tmp_path, monkeypatch, key, value, message
    ):
        """Every guard in ``_load_checkpoint`` — profile, duration, scale,
        world seed, impairment seed — rejects a doctored bundle with a
        checkpoint-stage ledger entry, and the campaign re-simulates to
        the same numbers a fresh run produces."""
        cfg = CampaignConfig(apps=("tvants",), checkpoint_dir=str(tmp_path), **SMALL)
        fresh = run_campaign(cfg)
        assert fresh.ok

        real_load = campaign_mod.load_trace_bundle

        def doctored(path):
            bundle = real_load(path)
            bundle.meta[key] = value
            return bundle

        monkeypatch.setattr(campaign_mod, "load_trace_bundle", doctored)
        # Serial backend so the monkeypatched loader is the one the
        # shard actually calls.
        resumed = run_campaign(cfg, backend="serial")
        assert "tvants" in resumed.runs
        assert not resumed["tvants"].from_checkpoint
        [failure] = [f for f in resumed.failures if f.stage == "checkpoint"]
        assert message in failure.error
        assert np.array_equal(
            resumed["tvants"].result.transfers, fresh["tvants"].result.transfers
        )

    def test_stale_checkpoint_falls_back_to_simulation(self, tmp_path):
        base = CampaignConfig(apps=("tvants",), checkpoint_dir=str(tmp_path), **SMALL)
        run_campaign(base)
        altered = CampaignConfig(
            apps=("tvants",),
            duration_s=30.0,
            seed=3,
            scale=0.4,
            checkpoint_dir=str(tmp_path),
        )
        campaign = run_campaign(altered)
        assert "tvants" in campaign.runs
        assert not campaign["tvants"].from_checkpoint
        assert [f.stage for f in campaign.failures] == ["checkpoint"]

    def test_malformed_signaling_checkpoint_is_an_analyze_failure(self, tmp_path):
        """A resumed bundle whose signaling carries a zero interval fails
        the flow table with a TraceError: the shard lands in the ledger
        at the analyze stage instead of crashing the campaign."""
        cfg = CampaignConfig(apps=("tvants",), checkpoint_dir=str(tmp_path), **SMALL)
        assert run_campaign(cfg).ok
        path = campaign_mod._checkpoint_path(cfg, "tvants")
        bundle = load_trace_bundle(path)
        bundle.signaling = bundle.signaling.copy()
        bundle.signaling["interval"][0] = 0.0
        save_trace_bundle(path, bundle)

        resumed = run_campaign(cfg)
        assert resumed.failed_apps == ["tvants"]
        [failure] = resumed.failures
        assert failure.stage == "analyze"
        assert "1 of" in failure.error and "malformed" in failure.error


class TestValidationGate:
    def test_healthy_run_passes_gate(self):
        campaign = run_campaign(
            CampaignConfig(apps=("tvants",), validate=True, **SMALL)
        )
        assert campaign.ok

    def test_violations_land_in_ledger(self, monkeypatch):
        import repro.validation as validation_mod
        from repro.validation import Violation

        monkeypatch.setattr(
            validation_mod,
            "validate_result",
            lambda result, **kw: [Violation("test", "synthetic violation")],
        )
        campaign = run_campaign(
            CampaignConfig(apps=("tvants",), validate=True, **SMALL)
        )
        assert campaign.failed_apps == ["tvants"]
        [failure] = campaign.failures
        assert failure.stage == "validate"
        assert "synthetic violation" in failure.error


class TestImpairedCampaign:
    def test_impairment_applies_per_app(self):
        plan = ImpairmentPlan.preset(0.6, seed=5, duration_s=20.0)
        campaign = run_campaign(
            CampaignConfig(apps=("tvants",), impairment=plan, **SMALL)
        )
        assert campaign.ok
        log = campaign.impairment_logs["tvants"]
        assert log.bad_time_fraction > 0.0
        assert log.records_after <= log.records_before

    def test_noop_impairment_matches_plain_run(self):
        plain = run_campaign(CampaignConfig(apps=("tvants",), **SMALL))
        noop = run_campaign(
            CampaignConfig(apps=("tvants",), impairment=ImpairmentPlan(), **SMALL)
        )
        assert np.array_equal(
            plain["tvants"].result.transfers, noop["tvants"].result.transfers
        )
        assert noop.impairment_logs == {}


class TestRobustnessSweep:
    def test_sweep_shapes_and_baseline(self):
        from repro.experiments.robustness import render_robustness, sweep_robustness

        report = sweep_robustness(
            "tvants", severities=(0.0, 1.0), duration_s=20.0, seed=3, scale=0.4
        )
        assert [p.severity for p in report.points] == [0.0, 1.0]
        base = report.baseline
        assert base.severity == 0.0
        assert base.dropped_fraction == 0.0 and base.bad_time_fraction == 0.0
        assert report.points[1].bad_time_fraction > 0.0
        text = render_robustness(report)
        assert "ROBUSTNESS" in text and "max drift" in text

    def test_paper_scale_addresses_resolve(self):
        """A 1.8×10^5-peer swarm overflows per-AS prefixes, so placement
        attaches prefixes a pristine world never saw; the severity shard
        must resolve addresses against the run's own host table, like a
        campaign shard does."""
        import math

        from repro.experiments.robustness import SeverityShard, run_severity_shard

        cfg = CampaignConfig(
            apps=("napa-scale",), duration_s=10.0, seed=7,
            impairment=ImpairmentPlan.preset(0.0, seed=1, duration_s=10.0),
        )
        [spec] = campaign_mod.campaign_shards(cfg, keep_result=True)
        point = run_severity_shard(SeverityShard(0.0, spec))
        assert math.isfinite(point.as_byte_pct_nonprobe)
        assert not [f for f in point.flags if f.code == "metric-error"]

    def test_failed_point_raises_naming_severity(self, monkeypatch):
        from repro.errors import ExecutorError
        from repro.experiments.robustness import sweep_robustness

        monkeypatch.setattr(campaign_mod, "simulate", failing_simulate("tvants"))
        with pytest.raises(ExecutorError, match=r"severity 0\.5 failed: .*injected fault"):
            sweep_robustness("tvants", severities=(0.5,), **SMALL)

    def test_point_deadline_derives_from_its_duration(self):
        from repro.exec.supervisor import SupervisionPolicy
        from repro.experiments.robustness import SeverityShard

        cfg = CampaignConfig(apps=("tvants",), duration_s=300.0)
        [spec] = campaign_mod.campaign_shards(cfg, keep_result=True)
        assert SupervisionPolicy().deadline_for(SeverityShard(1.0, spec)) == 900.0

    def test_point_is_a_campaign_shard(self):
        """A severity point and ``campaign --impair`` compute one thing."""
        from repro.experiments.robustness import sweep_robustness

        plan = ImpairmentPlan.preset(1.0, seed=1, duration_s=20.0)
        campaign = run_campaign(
            CampaignConfig(apps=("tvants",), impairment=plan, **SMALL)
        )
        [point] = sweep_robustness("tvants", severities=(1.0,), **SMALL).points
        report = campaign["tvants"].report
        assert point.as_byte_pct_nonprobe == report["AS"].download.B_prime
        assert point.records == len(campaign["tvants"].result.transfers)
        assert point.bad_time_fraction == campaign.impairment_logs["tvants"].bad_time_fraction
        assert set(point.telemetry.counters) >= {"shard/simulate_attempts"}


def _fields(point):
    """Every :class:`RobustnessPoint` field except ``telemetry``."""
    return (
        point.severity,
        point.bw_byte_pct,
        point.as_byte_pct_nonprobe,
        point.hop_byte_pct_nonprobe,
        point.records,
        point.dropped_fraction,
        point.bad_time_fraction,
        point.flags,
    )


class TestRobustnessPins:
    """Exact sweep outputs, pinned so the sweep's pipeline cannot drift.

    The scheduler is explicit: CI also runs this suite with
    ``REPRO_SCHEDULER=rarest``, and the pins are mesh-pull's.
    """

    def test_tvants_sweep(self):
        from repro.experiments.robustness import sweep_robustness

        report = sweep_robustness(
            "tvants", severities=(0.0, 0.5, 1.0), duration_s=60.0, seed=3, scale=0.4,
            scheduler="mesh-pull",
        )
        assert [_fields(p) for p in report.points] == [
            (0.0, 95.71829848008078, 2.92236623293959, 39.831969684949286,
             37862, 0.0, 0.0, ()),
            (0.5, 95.49267579895265, 4.3323383496762595, 38.921336304589275,
             37492, 0.01235478517425781, 0.3489532274111893, ()),
            (1.0, 93.31333480758691, 5.955475645685979, 40.46603067751484,
             39160, 0.012632056680366155, 0.4652709698815857, ()),
        ]

    def test_napa_scale_sweep(self):
        from repro.experiments.robustness import sweep_robustness

        report = sweep_robustness(
            "napa-scale", severities=(0.0, 1.0), duration_s=30.0, seed=7,
            scheduler="mesh-pull",
        )
        assert [_fields(p) for p in report.points] == [
            (0.0, 94.41670825315624, 6.792256574210417, 75.18753616794531,
             51664, 0.0, 0.0, ()),
            (1.0, 92.01654976623048, 6.948105418849646, 74.16432959173522,
             55051, 0.03080931673738141, 0.4580598563386523, ()),
        ]
