"""Backend selection and the process pool's failure reporting."""

import pytest

from repro.errors import ConfigurationError, ExecutorError
from repro.exec.backends import (
    ENV_BACKEND,
    ENV_WORKERS,
    SerialExecutor,
    resolve_executor,
)
from repro.exec.chaos import ENV_CHAOS, ChaosFault, ChaosPlan
from repro.exec.supervisor import SupervisedExecutor, SupervisionPolicy


def spec_must_be_even(spec):
    if spec % 2:
        raise RuntimeError(f"odd spec {spec}")
    return spec * 10


class TestProcessPoolFailures:
    """The pool with no salvage hook: plain specs, plain results."""

    def test_failure_names_the_shard(self):
        ex = SupervisedExecutor(
            workers=2, policy=SupervisionPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        with pytest.raises(ExecutorError) as info:
            ex.map_shards(spec_must_be_even, [0, 2, 3, 4])
        message = str(info.value)
        assert "shard int[2] exhausted 2 attempt(s)" in message
        assert "RuntimeError: odd spec 3" in message

    def test_clean_map_keeps_spec_order(self):
        ex = SupervisedExecutor(workers=2)
        assert ex.map_shards(spec_must_be_even, [4, 0, 2]) == [40, 0, 20]
        assert ex.map_shards(spec_must_be_even, []) == []


class TestWorkerCountValidation:
    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_nonpositive_env_workers_rejected(self, raw, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, raw)
        with pytest.raises(ConfigurationError, match="positive worker count"):
            resolve_executor("process")

    def test_nonpositive_explicit_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            resolve_executor("process", workers=-1)


class TestSupervisedResolution:
    def test_process_backend_by_name(self):
        executor = resolve_executor("process", workers=3)
        assert isinstance(executor, SupervisedExecutor)
        assert executor.workers == 3
        assert not executor.inline
        assert executor.policy == SupervisionPolicy()
        policy = SupervisionPolicy(max_attempts=5)
        assert resolve_executor("process", workers=3, policy=policy).policy is policy

    def test_supervised_is_not_a_backend(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="'serial', 'process'"):
            resolve_executor("supervised")
        monkeypatch.setenv(ENV_BACKEND, "supervised")
        with pytest.raises(ConfigurationError, match="'serial', 'process'"):
            resolve_executor()

    def test_policy_makes_serial_inline_supervised(self):
        executor = resolve_executor("serial", policy=SupervisionPolicy())
        assert isinstance(executor, SupervisedExecutor)
        assert executor.inline
        assert executor.workers == 1

    def test_chaos_env_leaves_serial_alone(self, monkeypatch):
        # Serial runs in-process: a crash fault would kill the test run
        # itself, and inline supervision is only opted into via a policy.
        plan = ChaosPlan(faults=(ChaosFault(match="", kind="crash"),))
        monkeypatch.setenv(ENV_CHAOS, plan.to_json())
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_plain_process_without_policy_or_chaos(self, monkeypatch):
        monkeypatch.delenv(ENV_CHAOS, raising=False)
        assert isinstance(resolve_executor("process", workers=2), SupervisedExecutor)
