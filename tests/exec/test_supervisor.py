"""The supervised execution runtime, unit-level and against real pools.

Pool tests fork real worker processes; every job here is tiny (the
helpers below do no simulation) so the suite stays fast on one core.
The full campaign-under-chaos acceptance test lives at the bottom.
"""

import dataclasses
import json
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError, ExecutorError
from repro.exec.chaos import CORRUPTED, ENV_CHAOS, ChaosFault, ChaosPlan
from repro.exec.supervisor import (
    SupervisedExecutor,
    SupervisionPolicy,
    load_quarantined_spec,
    replay_quarantined,
    write_quarantine,
)

FAST = dict(backoff_base_s=0.01, backoff_max_s=0.05)


@dataclasses.dataclass(frozen=True)
class Job:
    """A picklable toy shard spec."""

    value: int
    duration_s: float = 5.0


# Module-level so they pickle across the worker pipe.
def job_ok(job):
    return ("done", job.value)


def job_raise(job):
    raise ValueError(f"boom {job.value}")


def job_crash_if_zero(job):
    if job.value == 0:
        os._exit(7)
    return ("done", job.value)


def job_sleep(job):
    time.sleep(60.0)
    return ("late", job.value)


def job_unpicklable(job):
    return lambda: job.value


def salvage_tuple(spec, record):
    return ("salvaged", spec.value, record["outcome"])


class TestSupervisionPolicy:
    def test_explicit_timeout_wins(self):
        policy = SupervisionPolicy(shard_timeout_s=7.5)
        assert policy.deadline_for(Job(0, duration_s=10_000.0)) == 7.5

    def test_deadline_derived_from_duration(self):
        policy = SupervisionPolicy(timeout_factor=3.0, min_timeout_s=60.0)
        assert policy.deadline_for(Job(0, duration_s=100.0)) == 300.0

    def test_deadline_floor_for_short_shards(self):
        policy = SupervisionPolicy(min_timeout_s=60.0)
        assert policy.deadline_for(Job(0, duration_s=1.0)) == 60.0

    def test_deadline_from_campaign_spec_config(self):
        from repro.experiments.campaign import CampaignConfig, campaign_shards

        cfg = CampaignConfig(apps=("tvants",), duration_s=50.0)
        [spec] = campaign_shards(cfg)
        assert SupervisionPolicy().deadline_for(spec) == 150.0

    def test_backoff_growth_and_cap(self):
        policy = SupervisionPolicy(
            backoff_base_s=1.0, backoff_factor=2.0, backoff_max_s=5.0
        )
        assert policy.backoff_s(0) == 0.0
        assert policy.backoff_s(1) == 1.0
        assert policy.backoff_s(2) == 2.0
        assert policy.backoff_s(4) == 5.0  # capped

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shard_timeout_s=0.0),
            dict(timeout_factor=0.0),
            dict(min_timeout_s=-1.0),
            dict(max_attempts=0),
            dict(backoff_base_s=-0.1),
            dict(backoff_factor=0.5),
            dict(max_tasks_per_child=0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(**kwargs)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisedExecutor(workers=0)


class TestInlineSupervision:
    def test_clean_run_passes_through(self):
        ex = SupervisedExecutor(inline=True)
        assert ex.map_shards(job_ok, [Job(1), Job(2)]) == [("done", 1), ("done", 2)]
        assert [r["outcome"] for r in ex.records] == ["ok", "ok"]
        assert ex.telemetry.counter("exec/retries") == 0

    def test_retry_recovers_flaky_payload(self):
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("first try fails")
            return job_ok(job)

        ex = SupervisedExecutor(inline=True, policy=SupervisionPolicy(**FAST))
        assert ex.map_shards(flaky, [Job(5)]) == [("done", 5)]
        [record] = ex.records
        assert [a["status"] for a in record["attempts"]] == ["error", "ok"]
        assert ex.telemetry.counter("exec/retries") == 1
        assert ex.telemetry.counter("exec/errors") == 1

    def test_exhausted_attempts_raise_without_salvage(self):
        ex = SupervisedExecutor(
            inline=True, policy=SupervisionPolicy(max_attempts=2, **FAST)
        )
        with pytest.raises(ExecutorError, match="2 attempt"):
            ex.map_shards(job_raise, [Job(3)])

    def test_salvage_hook_absorbs_poison(self):
        ex = SupervisedExecutor(
            inline=True,
            policy=SupervisionPolicy(max_attempts=2, **FAST),
            salvage=salvage_tuple,
        )
        results = ex.map_shards(job_raise, [Job(3), Job(4)])
        assert results == [("salvaged", 3, "quarantined"), ("salvaged", 4, "quarantined")]
        assert ex.telemetry.counter("exec/quarantined") == 2
        assert ex.telemetry.counter("exec/errors") == 4

    def test_corrupt_sentinel_rejected_by_default_validation(self):
        ex = SupervisedExecutor(
            inline=True,
            policy=SupervisionPolicy(max_attempts=2, **FAST),
            salvage=salvage_tuple,
        )
        [result] = ex.map_shards(lambda job: CORRUPTED, [Job(1)])
        assert result == ("salvaged", 1, "quarantined")
        assert ex.telemetry.counter("exec/corrupt") == 2


class TestPoolSupervision:
    def test_clean_pool_run(self):
        ex = SupervisedExecutor(workers=2, policy=SupervisionPolicy(**FAST))
        assert ex.map_shards(job_ok, [Job(i) for i in range(4)]) == [
            ("done", i) for i in range(4)
        ]
        assert [r["outcome"] for r in ex.records] == ["ok"] * 4

    def test_worker_crash_is_isolated(self):
        ex = SupervisedExecutor(
            workers=2,
            policy=SupervisionPolicy(max_attempts=1, **FAST),
            salvage=salvage_tuple,
        )
        results = ex.map_shards(job_crash_if_zero, [Job(0), Job(1), Job(2)])
        assert results == [("salvaged", 0, "quarantined"), ("done", 1), ("done", 2)]
        assert ex.telemetry.counter("exec/crashes") == 1
        assert ex.telemetry.counter("exec/worker_restarts") >= 1
        assert ex.records[0]["attempts"][0]["status"] == "crash"

    def test_oom_kill_is_quarantined_without_retry(self, monkeypatch):
        # A SIGKILL the supervisor did not send reads as the OOM killer:
        # a same-seed retry would die the same way, so none is spent.
        plan = ChaosPlan(faults=(ChaosFault(match="", kind="oom"),))
        monkeypatch.setenv(ENV_CHAOS, plan.to_json())
        ex = SupervisedExecutor(
            workers=1,
            policy=SupervisionPolicy(max_attempts=3, **FAST),
            salvage=salvage_tuple,
        )
        [result] = ex.map_shards(job_ok, [Job(1)])
        assert result == ("salvaged", 1, "quarantined")
        assert [a["status"] for a in ex.records[0]["attempts"]] == ["oom"]
        assert ex.telemetry.counter("exec/retries") == 0
        assert ex.telemetry.counter("exec/oom") == 1
        assert ex.telemetry.counter("exec/crashes") == 0

    def test_deadline_kills_hung_worker(self):
        ex = SupervisedExecutor(
            workers=1,
            policy=SupervisionPolicy(shard_timeout_s=1.0, max_attempts=1, **FAST),
            salvage=salvage_tuple,
        )
        start = time.monotonic()
        [result] = ex.map_shards(job_sleep, [Job(9)])
        assert time.monotonic() - start < 30.0  # nowhere near the 60s sleep
        assert result == ("salvaged", 9, "quarantined")
        assert ex.telemetry.counter("exec/timeouts") == 1
        assert ex.records[0]["attempts"][0]["status"] == "timeout"

    def test_chaos_retry_recovers_in_real_pool(self, monkeypatch):
        plan = ChaosPlan(faults=(ChaosFault(match="", kind="raise", attempts=(0,)),))
        monkeypatch.setenv(ENV_CHAOS, plan.to_json())
        ex = SupervisedExecutor(workers=2, policy=SupervisionPolicy(**FAST))
        assert ex.map_shards(job_ok, [Job(1), Job(2)]) == [("done", 1), ("done", 2)]
        assert ex.telemetry.counter("exec/retries") == 2
        assert ex.telemetry.counter("exec/errors") == 2
        for record in ex.records:
            assert [a["status"] for a in record["attempts"]] == ["error", "ok"]

    def test_unpicklable_result_fails_the_attempt(self):
        ex = SupervisedExecutor(
            workers=1,
            policy=SupervisionPolicy(max_attempts=1, **FAST),
            salvage=salvage_tuple,
        )
        [result] = ex.map_shards(job_unpicklable, [Job(1)])
        assert result == ("salvaged", 1, "quarantined")
        assert "unpicklable" in ex.records[0]["attempts"][0]["error"]

    def test_worker_recycling_counts_restarts(self):
        ex = SupervisedExecutor(
            workers=1,
            policy=SupervisionPolicy(max_tasks_per_child=2, **FAST),
        )
        results = ex.map_shards(job_ok, [Job(i) for i in range(5)])
        assert results == [("done", i) for i in range(5)]
        assert ex.telemetry.counter("exec/worker_restarts") >= 2

    def test_signal_handlers_restored_after_run(self):
        before = signal.getsignal(signal.SIGINT)
        ex = SupervisedExecutor(workers=1, policy=SupervisionPolicy(**FAST))
        ex.map_shards(job_ok, [Job(1)])
        assert signal.getsignal(signal.SIGINT) is before

    def test_drain_stops_dispatch_and_marks_interrupted(self):
        ex = SupervisedExecutor(
            workers=1,
            policy=SupervisionPolicy(shard_timeout_s=120.0, **FAST),
            salvage=salvage_tuple,
        )

        def pull_the_plug():
            time.sleep(0.8)
            ex._drain_flag = True  # what the SIGINT/SIGTERM handler sets

        threading.Thread(target=pull_the_plug, daemon=True).start()
        start = time.monotonic()
        results = ex.map_shards(job_sleep, [Job(1), Job(2)])
        assert time.monotonic() - start < 30.0
        assert ex.drained
        assert results == [
            ("salvaged", 1, "interrupted"),
            ("salvaged", 2, "interrupted"),
        ]
        assert ex.telemetry.counter("exec/interrupted") == 2
        for record in ex.records:
            assert record["outcome"] == "interrupted"


class TestQuarantineReplay:
    def _campaign_spec(self):
        from repro.experiments.campaign import CampaignConfig, campaign_shards

        cfg = CampaignConfig(apps=("tvants",), duration_s=8.0, seed=3, scale=0.3)
        [spec] = campaign_shards(cfg)
        return spec

    def test_write_and_load_roundtrip(self, tmp_path):
        spec = self._campaign_spec()
        record = {"label": str(spec.key), "deadline_s": 24.0, "attempts": [], "outcome": None}
        path = write_quarantine(tmp_path, spec, record)
        assert path.exists()
        sidecar = json.loads(path.with_suffix("").with_suffix(".json").read_text())
        assert sidecar["spec_file"] == path.name
        assert sidecar["spec_type"].endswith("ShardSpec")
        assert load_quarantined_spec(path) == spec

    def test_replay_runs_the_shard_inline(self, tmp_path):
        spec = self._campaign_spec()
        record = {"label": str(spec.key), "deadline_s": 24.0, "attempts": [], "outcome": None}
        path = write_quarantine(tmp_path, spec, record)
        outcome = replay_quarantined(path)
        assert outcome.ok
        assert outcome.key == spec.key
        # The JSON sidecar is an equally valid entry point.
        via_sidecar = replay_quarantined(path.with_suffix("").with_suffix(".json"))
        assert via_sidecar.ok

    def test_missing_spec_raises(self, tmp_path):
        with pytest.raises(ExecutorError):
            load_quarantined_spec(tmp_path / "nope.spec.pkl")

    def test_cli_entry_point(self, tmp_path, capsys):
        from repro.exec.supervisor import main

        spec = self._campaign_spec()
        record = {"label": str(spec.key), "deadline_s": 24.0, "attempts": [], "outcome": None}
        path = write_quarantine(tmp_path, spec, record)
        assert main([str(path)]) == 0
        assert "replayed" in capsys.readouterr().out


class TestCampaignUnderChaos:
    """The acceptance scenario: crash + hang + corrupt + poison shards,
    one campaign on the real process pool, no abort and no hang —
    under every chunk-scheduling policy (the resilient runtime must be
    policy-agnostic: the chaos faults hit the executor layer, the
    scheduler only decides what the surviving shards simulate)."""

    @pytest.mark.parametrize("scheduler", ("edf", "mesh-pull", "push", "rarest"))
    def test_campaign_completes_degraded(self, monkeypatch, tmp_path, scheduler):
        from repro.experiments.campaign import CampaignConfig, run_campaign
        from repro.obs.manifest import manifest_from_campaign

        plan = ChaosPlan(
            faults=(
                # tvants: dies on its first try, wedges on its second —
                # the crash-isolation AND deadline paths, then recovery.
                ChaosFault(match="tvants", kind="crash", attempts=(0,)),
                ChaosFault(match="tvants", kind="hang", attempts=(1,)),
                # pplive: completes but the payload is damaged in
                # transport; the digest check catches it, retry recovers.
                ChaosFault(match="pplive", kind="corrupt", attempts=(0,)),
                # sopcast: poison — fails every attempt, must quarantine.
                ChaosFault(match="sopcast", kind="raise"),
            ),
            seed=1,
            hang_s=120.0,
        )
        monkeypatch.setenv(ENV_CHAOS, plan.to_json())
        cfg = CampaignConfig(
            apps=("pplive", "sopcast", "tvants"),
            duration_s=8.0,
            seed=3,
            scale=0.3,
            scheduler=scheduler,
        )
        campaign = run_campaign(
            cfg,
            backend="process",
            workers=2,
            policy=SupervisionPolicy(
                shard_timeout_s=8.0,
                max_attempts=3,
                quarantine_dir=str(tmp_path / "quarantine"),
                **FAST,
            ),
        )

        # Campaign completed degraded: survivors analysed, poison absent.
        assert not campaign.ok
        assert sorted(campaign.runs) == ["pplive", "tvants"]
        assert campaign.failed_apps == ["sopcast"]
        # The policy actually reached the surviving shards.
        for run in campaign.runs.values():
            assert run.result.profile.scheduler == scheduler

        # The poison shard is in the ledger at stage "executor".
        executor_failures = [f for f in campaign.failures if f.stage == "executor"]
        assert {f.app for f in executor_failures} == {"sopcast"}
        assert len(executor_failures) == 3  # one per attempt

        # Degradation is flagged.
        assert [f.code for f in campaign.flags] == ["exec-quarantined"]

        # Supervision records tell the whole story per shard.
        sup = campaign.supervision
        assert [a["status"] for a in sup["tvants"]["attempts"]] == [
            "crash",
            "timeout",
            "ok",
        ]
        assert [a["status"] for a in sup["pplive"]["attempts"]] == ["corrupt", "ok"]
        assert sup["sopcast"]["outcome"] == "quarantined"

        # Telemetry counters account for every injected fault.
        counters = campaign.telemetry.counters
        assert counters["exec/crashes"] == 1
        assert counters["exec/timeouts"] == 1
        assert counters["exec/corrupt"] == 1
        assert counters["exec/errors"] == 3
        assert counters["exec/quarantined"] == 1
        # sopcast retries after attempts 0 and 1, tvants after the crash
        # and the timeout, pplive after the corrupt payload.
        assert counters["exec/retries"] == 5

        # The quarantined spec is on disk, replayable offline — and the
        # replay (no chaos env here in-process… the plan is ambient, so
        # clear it first) reproduces a healthy run.
        quarantine = tmp_path / "quarantine"
        specs = sorted(quarantine.glob("*.spec.pkl"))
        assert len(specs) == 1
        monkeypatch.delenv(ENV_CHAOS)
        replayed = replay_quarantined(specs[0])
        assert replayed.ok and replayed.key.app == "sopcast"

        # The manifest records the supervision block and quality flags.
        manifest = manifest_from_campaign(campaign)
        by_app = {s["app"]: s for s in manifest.shards}
        assert by_app["sopcast"]["supervision"]["outcome"] == "quarantined"
        assert len(by_app["tvants"]["supervision"]["attempts"]) == 3
        assert by_app["tvants"]["supervision"]["deadline_s"] == 8.0
        assert manifest.quality_flags == [
            {
                "code": "exec-quarantined",
                "detail": "shard s3/r0/sopcast#1 exhausted 3 attempt(s)",
            }
        ]
