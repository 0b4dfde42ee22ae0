"""Determinism of sharded campaign execution.

The contract of :mod:`repro.exec`: for the same configuration, the
``serial`` and ``process`` backends produce *identical* campaigns —
transfer logs, analysis reports, error ledgers, impairment logs — no
matter how shards were scheduled.  These tests are the regression net
under every future executor change: anything that reorders work in a way
that shifts numbers fails here first.
"""

import numpy as np
import pytest

import repro.experiments.campaign as campaign_mod
from repro.errors import ConfigurationError, SimulationError
from repro.exec.backends import (
    ENV_BACKEND,
    ENV_WORKERS,
    SerialExecutor,
    resolve_executor,
)
from repro.exec.supervisor import SupervisedExecutor, SupervisionPolicy
from repro.exec.shards import ShardKey
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.multirun import render_replicated_table4, run_replicated_campaign
from repro.experiments.robustness import sweep_robustness
from repro.faults.plan import ImpairmentPlan
from repro.report.tables import render_table4
from repro.experiments.table4 import build_table4

SMALL = dict(duration_s=20.0, seed=3, scale=0.4)
TWO_APPS = ("pplive", "tvants")


def assert_campaigns_identical(a, b):
    """Byte-level equality of everything a campaign reports."""
    assert a.config == b.config
    assert list(a.runs) == list(b.runs)
    for app in a.runs:
        ra, rb = a[app], b[app]
        assert np.array_equal(ra.result.transfers, rb.result.transfers)
        assert np.array_equal(ra.result.signaling, rb.result.signaling)
        assert ra.from_checkpoint == rb.from_checkpoint
        assert int(ra.result.config.seed) == int(rb.result.config.seed)
    assert render_table4(build_table4(a)) == render_table4(build_table4(b))
    assert a.failures == b.failures
    assert a.impairment_logs == b.impairment_logs


class TestSerialProcessParity:
    def test_plain_campaign(self):
        cfg = CampaignConfig(apps=TWO_APPS, **SMALL)
        serial = run_campaign(cfg, backend="serial")
        process = run_campaign(cfg, backend="process", workers=2)
        assert serial.ok and process.ok
        assert_campaigns_identical(serial, process)
        # Supervision only observes: no degradation marks, every shard
        # ok (an ambient crash-only chaos plan recovers to ok as well).
        assert process.flags == []
        assert {r["outcome"] for r in process.supervision.values()} == {"ok"}

    def test_impaired_campaign(self):
        plan = ImpairmentPlan.preset(0.6, seed=5, duration_s=SMALL["duration_s"])
        cfg = CampaignConfig(apps=TWO_APPS, impairment=plan, **SMALL)
        serial = run_campaign(cfg, backend="serial")
        process = run_campaign(cfg, backend="process", workers=2)
        assert serial.ok and process.ok
        # Impairment actually did something, and did the same thing.
        assert serial.impairment_logs and process.impairment_logs
        for app in TWO_APPS:
            assert serial.impairment_logs[app].bad_time_fraction > 0.0
        assert_campaigns_identical(serial, process)

    def test_single_worker_process_pool(self):
        cfg = CampaignConfig(apps=("tvants",), **SMALL)
        serial = run_campaign(cfg, backend="serial")
        process = run_campaign(cfg, backend="process", workers=1)
        assert_campaigns_identical(serial, process)

    def test_failure_ledger_parity(self):
        # An impossible checkpoint dir is trapped identically in both
        # backends (worker-side failures travel back picklable).
        cfg = CampaignConfig(
            apps=("tvants",),
            checkpoint_dir="/dev/null/not-a-directory",
            **SMALL,
        )
        serial = run_campaign(cfg, backend="serial")
        process = run_campaign(cfg, backend="process", workers=2)
        assert [f.stage for f in serial.failures] == ["checkpoint"]
        assert serial.failures == process.failures
        assert "tvants" in serial.runs and "tvants" in process.runs

    def test_checkpoint_roundtrip_parity(self, tmp_path):
        serial_dir, process_dir = tmp_path / "s", tmp_path / "p"
        cfg_s = CampaignConfig(apps=("tvants",), checkpoint_dir=str(serial_dir), **SMALL)
        cfg_p = CampaignConfig(apps=("tvants",), checkpoint_dir=str(process_dir), **SMALL)
        run_campaign(cfg_s, backend="serial")
        run_campaign(cfg_p, backend="process", workers=2)
        # Both wrote a checkpoint; resuming across backends is symmetric:
        # the serial run resumes from the process-written bundle.
        resumed = run_campaign(
            CampaignConfig(apps=("tvants",), checkpoint_dir=str(process_dir), **SMALL),
            backend="serial",
        )
        fresh = run_campaign(cfg_s, backend="serial")
        assert resumed["tvants"].from_checkpoint
        assert np.array_equal(
            resumed["tvants"].result.transfers, fresh["tvants"].result.transfers
        )


class TestReplicatedParity:
    def test_multirun_table_identical(self):
        base = CampaignConfig(apps=TWO_APPS, **SMALL)
        serial = run_replicated_campaign(
            base, seeds=[7, 8], with_checks=False, backend="serial"
        )
        process = run_replicated_campaign(
            base, seeds=[7, 8], with_checks=False, backend="process", workers=2
        )
        assert render_replicated_table4(serial) == render_replicated_table4(process)


class TestRobustnessParity:
    def test_sweep_points_identical(self):
        kwargs = dict(severities=(0.0, 0.8), duration_s=20.0, seed=3, scale=0.4)
        serial = sweep_robustness("tvants", backend="serial", **kwargs)
        process = sweep_robustness("tvants", backend="process", workers=2, **kwargs)
        assert serial.points == process.points
        assert [p.severity for p in process.points] == [0.0, 0.8]


class TestSupervisedParity:
    """Inline supervision (a serial run given a policy) is parity-bound
    too: with no faults it must reproduce the serial campaign byte for
    byte — supervision may only *observe* clean runs."""

    @pytest.fixture(autouse=True)
    def _no_ambient_chaos(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_PLAN", raising=False)

    def test_inline_supervision_matches_serial(self):
        cfg = CampaignConfig(apps=("tvants",), **SMALL)
        serial = run_campaign(cfg, backend="serial")
        inline = run_campaign(cfg, backend="serial", policy=SupervisionPolicy())
        assert_campaigns_identical(serial, inline)
        assert inline.supervision["tvants"]["outcome"] == "ok"


class TestSchedulerPolicyParity:
    """Backend parity is policy-independent: serial ≡ process (the
    supervised pool) for every chunk scheduler, and the policy travels
    with the config through shard specs, process boundaries and
    checkpoint bundles."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_PLAN", raising=False)

    @pytest.mark.parametrize("scheduler", ("edf", "mesh-pull", "push", "rarest"))
    def test_serial_process_supervised_identical(self, scheduler):
        cfg = CampaignConfig(apps=("tvants",), scheduler=scheduler, **SMALL)
        serial = run_campaign(cfg, backend="serial")
        process = run_campaign(cfg, backend="process", workers=2)
        assert serial.ok and process.ok
        assert serial["tvants"].result.profile.scheduler == scheduler
        assert_campaigns_identical(serial, process)
        # Clean runs leave no degradation marks, only observations.
        assert process.flags == []
        assert {r["outcome"] for r in process.supervision.values()} == {"ok"}
        assert process.telemetry.counter("exec/retries") == 0

    def test_policies_actually_differ(self):
        mesh = run_campaign(
            CampaignConfig(apps=("tvants",), scheduler="mesh-pull", **SMALL),
            backend="serial",
        )
        rarest = run_campaign(
            CampaignConfig(apps=("tvants",), scheduler="rarest", **SMALL),
            backend="serial",
        )
        assert not np.array_equal(
            mesh["tvants"].result.transfers, rarest["tvants"].result.transfers
        )

    def test_checkpoint_scheduler_mismatch_falls_back_to_simulate(self, tmp_path):
        """A checkpoint written under one policy must not satisfy another:
        the stale bundle is rejected, logged, and the run re-simulated."""
        ck = str(tmp_path / "ck")
        mesh_cfg = CampaignConfig(
            apps=("tvants",), scheduler="mesh-pull", checkpoint_dir=ck, **SMALL
        )
        run_campaign(mesh_cfg, backend="serial")
        rarest_cfg = CampaignConfig(
            apps=("tvants",), scheduler="rarest", checkpoint_dir=ck, **SMALL
        )
        resumed = run_campaign(rarest_cfg, backend="serial")
        assert not resumed["tvants"].from_checkpoint
        assert [f.stage for f in resumed.failures] == ["checkpoint"]
        assert "scheduler" in resumed.failures[0].error
        fresh = run_campaign(
            CampaignConfig(apps=("tvants",), scheduler="rarest", **SMALL),
            backend="serial",
        )
        assert np.array_equal(
            resumed["tvants"].result.transfers, fresh["tvants"].result.transfers
        )


class TestShardKeys:
    def test_seed_discipline_matches_serial_runner(self):
        key = ShardKey(campaign_seed=42, app="sopcast", app_index=1)
        assert key.base_seed == 43
        assert key.seed_for(0) == 43
        assert key.seed_for(2) == 43 + 2 * campaign_mod.RESEED_STRIDE

    def test_keys_distinct_across_replicas(self):
        a = ShardKey(7, "tvants", 0, replica=0)
        b = ShardKey(7, "tvants", 0, replica=1)
        assert a != b and hash(a) != hash(b)


class TestExecutorResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert isinstance(resolve_executor(), SerialExecutor)

    def test_workers_imply_process(self):
        executor = resolve_executor(None, 4)
        assert isinstance(executor, SupervisedExecutor)
        assert executor.workers == 4

    def test_explicit_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "process")
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_env_backend_and_workers(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "process")
        monkeypatch.setenv(ENV_WORKERS, "3")
        executor = resolve_executor()
        assert isinstance(executor, SupervisedExecutor)
        assert executor.workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor("threads")

    def test_bad_env_workers_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "lots")
        with pytest.raises(ConfigurationError):
            resolve_executor("process")

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor("process", workers=0)


class TestMonkeypatchPropagation:
    def test_injected_fault_ledger_under_process_backend(self, monkeypatch):
        """Fork-started workers inherit test doubles installed on the
        campaign module, so failure injection reaches shards."""

        def always_fails(profile, **kwargs):
            raise SimulationError("injected fault")

        monkeypatch.setattr(campaign_mod, "simulate", always_fails)
        campaign = run_campaign(
            CampaignConfig(apps=("tvants",), **SMALL), backend="process", workers=2
        )
        assert campaign.failed_apps == ["tvants"]
        [failure] = campaign.failures
        assert failure.stage == "simulate"
        assert "injected fault" in failure.error
