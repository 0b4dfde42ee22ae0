"""Unit tests of the chaos harness: plans, determinism, transport."""

import numpy as np
import pytest

from repro.errors import ChaosError, ConfigurationError
from repro.exec.chaos import (
    CHAOS_KINDS,
    CORRUPTED,
    ENV_CHAOS,
    ChaosFault,
    ChaosPlan,
    corrupt_result,
    plan_from_env,
)
from repro.exec.shards import ShardKey, ShardOutcome
from repro.trace.store import TraceBundle, trace_digest


class TestChaosFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosFault(match="", kind="meteor")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosFault(match="", kind="crash", probability=1.5)

    def test_substring_match(self):
        fault = ChaosFault(match="pplive", kind="raise")
        assert fault.applies("s3/r0/pplive#0", 0, seed=1)
        assert not fault.applies("s3/r0/tvants#1", 0, seed=1)

    def test_empty_match_hits_everything(self):
        fault = ChaosFault(match="", kind="raise")
        assert fault.applies("anything", 5, seed=0)

    def test_attempt_filter(self):
        fault = ChaosFault(match="", kind="crash", attempts=(0, 2))
        assert fault.applies("x", 0, seed=0)
        assert not fault.applies("x", 1, seed=0)
        assert fault.applies("x", 2, seed=0)

    def test_probability_draws_are_deterministic(self):
        fault = ChaosFault(match="", kind="raise", probability=0.5)
        draws = [fault.applies(f"shard#{i}", 0, seed=9) for i in range(50)]
        again = [fault.applies(f"shard#{i}", 0, seed=9) for i in range(50)]
        assert draws == again
        # A 0.5 coin over 50 labels hits both sides.
        assert any(draws) and not all(draws)

    def test_probability_depends_on_seed(self):
        fault = ChaosFault(match="", kind="raise", probability=0.5)
        a = [fault.applies(f"shard#{i}", 0, seed=1) for i in range(50)]
        b = [fault.applies(f"shard#{i}", 0, seed=2) for i in range(50)]
        assert a != b


class TestChaosPlan:
    def test_noop_plan(self):
        assert ChaosPlan().is_noop
        assert not ChaosPlan(faults=(ChaosFault(match="", kind="raise"),)).is_noop

    def test_first_matching_fault_wins(self):
        plan = ChaosPlan(
            faults=(
                ChaosFault(match="pplive", kind="raise"),
                ChaosFault(match="", kind="corrupt"),
            )
        )
        assert plan.fault_for("s1/r0/pplive#0", 0).kind == "raise"
        assert plan.fault_for("s1/r0/tvants#1", 0).kind == "corrupt"

    def test_inject_before_raise(self):
        plan = ChaosPlan(faults=(ChaosFault(match="", kind="raise"),))
        with pytest.raises(ChaosError):
            plan.inject_before("x", 0)

    def test_inject_before_ignores_corrupt(self):
        plan = ChaosPlan(faults=(ChaosFault(match="", kind="corrupt"),))
        plan.inject_before("x", 0)  # no-op: corrupt is a post-run fault

    def test_inject_after_passthrough_when_unmatched(self):
        plan = ChaosPlan(faults=(ChaosFault(match="pplive", kind="corrupt"),))
        assert plan.inject_after("tvants", 0, "payload") == "payload"

    def test_bad_hang_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan(hang_s=0.0)

    def test_json_roundtrip(self):
        plan = ChaosPlan(
            faults=(
                ChaosFault(match="pplive", kind="crash", attempts=(0,)),
                ChaosFault(match="", kind="corrupt", probability=0.25),
            ),
            seed=7,
            hang_s=12.5,
        )
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan.from_json("not json")
        with pytest.raises(ConfigurationError):
            ChaosPlan.from_json("[1, 2]")


class TestEnvTransport:
    def test_absent_env_means_no_plan(self):
        assert plan_from_env() is None

    def test_env_roundtrip(self, monkeypatch):
        plan = ChaosPlan(faults=(ChaosFault(match="x", kind="hang"),), seed=3)
        monkeypatch.setenv(ENV_CHAOS, plan.env()[ENV_CHAOS])
        assert plan_from_env() == plan

    def test_noop_plan_in_env_reads_as_none(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, ChaosPlan().to_json())
        assert plan_from_env() is None

    def test_invalid_env_raises_clearly(self, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS, "{broken")
        with pytest.raises(ConfigurationError):
            plan_from_env()


class TestCorruption:
    def test_shard_outcome_bundle_truncated_detectably(self, sim_small):
        bundle = TraceBundle.from_result(sim_small)
        digest = trace_digest(bundle.transfers, bundle.signaling)
        outcome = ShardOutcome(
            key=ShardKey(1, "tvants", 0),
            bundle=bundle,
            content_digest=digest,
        )
        corrupted = corrupt_result(outcome)
        assert corrupted is outcome
        assert len(corrupted.bundle.transfers) < len(sim_small.transfers)
        # The recorded digest no longer matches the damaged arrays — the
        # exact check the supervisor's validation performs.
        assert (
            trace_digest(corrupted.bundle.transfers, corrupted.bundle.signaling)
            != digest
        )
        assert not np.array_equal(corrupted.bundle.transfers, sim_small.transfers)

    def test_opaque_results_become_the_sentinel(self):
        assert corrupt_result({"some": "dict"}) == CORRUPTED
        assert corrupt_result(ShardOutcome(key=ShardKey(1, "x", 0))) == CORRUPTED

    def test_all_kinds_are_spoken_for(self):
        # Guard against adding a kind without wiring its injection.
        assert set(CHAOS_KINDS) == {"crash", "oom", "hang", "raise", "corrupt"}
