"""Impairment plans: composition, presets and end-to-end determinism."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults.plan import ImpairmentPlan, impair_result
from repro.streaming.engine import EngineConfig, simulate
from repro.streaming.profiles import get_profile


@pytest.fixture(scope="module")
def profile():
    return get_profile("tvants").scaled(0.4)


def impaired_run(profile, plan, *, duration_s, seed):
    """Both application points of a plan, composed as a campaign shard does."""
    base = EngineConfig(duration_s=duration_s, seed=seed)
    result = simulate(profile, engine_config=plan.engine_config(base))
    return impair_result(result, plan)


class TestPlan:
    def test_default_is_noop(self):
        assert ImpairmentPlan().is_noop

    def test_preset_zero_is_noop(self):
        assert ImpairmentPlan.preset(0.0).is_noop

    def test_preset_full_has_every_family(self):
        plan = ImpairmentPlan.preset(1.0, duration_s=300.0)
        assert plan.loss is not None
        assert plan.storms and plan.flash_crowds
        assert plan.capture is not None
        assert plan.clock is not None

    def test_bad_severity_rejected(self):
        with pytest.raises(FaultInjectionError):
            ImpairmentPlan.preset(1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(FaultInjectionError, match="non-negative"):
            ImpairmentPlan.preset(0.5, seed=-1)
        with pytest.raises(FaultInjectionError, match="non-negative"):
            ImpairmentPlan.preset(0.5).with_seed(-1)

    def test_with_seed(self):
        plan = ImpairmentPlan.preset(0.5, seed=1)
        assert plan.with_seed(9).seed == 9
        assert plan.with_seed(9).loss == plan.loss

    def test_noop_engine_config_unchanged(self):
        base = EngineConfig(duration_s=60.0, seed=1)
        assert ImpairmentPlan().engine_config(base) is base

    def test_loss_floor_lifted_to_baseline(self):
        base = EngineConfig(duration_s=60.0, seed=1, request_loss_prob=0.1)
        plan = ImpairmentPlan.preset(0.5, duration_s=60.0)
        sched = plan.engine_config(base).request_loss_schedule
        assert sched is not None
        assert sched.probs.min() == pytest.approx(0.1)


class TestDeterminism:
    def test_same_seeds_byte_identical(self, profile):
        plan = ImpairmentPlan.preset(0.75, seed=3, duration_s=25.0)
        a, log_a = impaired_run(profile, plan, duration_s=25.0, seed=11)
        b, log_b = impaired_run(profile, plan, duration_s=25.0, seed=11)
        assert a.transfers.tobytes() == b.transfers.tobytes()
        assert log_a.capture_gaps == log_b.capture_gaps
        assert log_a.bad_time_fraction == log_b.bad_time_fraction

    def test_fault_seed_changes_trace(self, profile):
        plan = ImpairmentPlan.preset(0.75, seed=3, duration_s=25.0)
        a, _ = impaired_run(profile, plan, duration_s=25.0, seed=11)
        b, _ = impaired_run(profile, plan.with_seed(4), duration_s=25.0, seed=11)
        assert a.transfers.tobytes() != b.transfers.tobytes()

    def test_noop_plan_matches_baseline(self, profile):
        base = simulate(profile, engine_config=EngineConfig(duration_s=25.0, seed=11))
        impaired, log = impaired_run(
            profile, ImpairmentPlan(), duration_s=25.0, seed=11
        )
        assert impaired.transfers.tobytes() == base.transfers.tobytes()
        assert log.dropped_fraction == 0.0


class TestImpairmentLog:
    def test_log_records_damage(self, profile):
        plan = ImpairmentPlan.preset(1.0, seed=3, duration_s=25.0)
        result, log = impaired_run(profile, plan, duration_s=25.0, seed=11)
        assert log.records_before >= log.records_after == len(result.transfers)
        assert log.clock_skew_applied
        assert 0.0 < log.bad_time_fraction < 1.0
        assert result.extras["impairment"] is log
