"""Parallel campaign execution.

The paper's methodology is embarrassingly parallel: every application
experiment is simulated and analysed independently before the preference
indices are aggregated.  This package exploits that — a campaign is split
into *shards* (one per application × seed replica), fanned out over an
executor backend, and merged back into a :class:`~repro.experiments.
campaign.Campaign` by a deterministic, order-independent reduction.

Layout:

* :mod:`repro.exec.shards`   — picklable shard specs/outcomes and the
  shard-key → RNG-seed discipline;
* :mod:`repro.exec.context`  — the per-process cache of the shared
  world/testbed construction and the per-run address registry;
* :mod:`repro.exec.worker`   — ``run_shard``, the per-shard pipeline
  (checkpoint → simulate → impair → validate → analyze → checkpoint);
* :mod:`repro.exec.backends` — the executor protocol and backend
  selection: ``serial`` (inline) or ``process``;
* :mod:`repro.exec.supervisor` — the supervised process pool behind the
  ``process`` backend: deadlines, crash isolation, retry/backoff,
  quarantine, graceful drain, worker recycling;
* :mod:`repro.exec.chaos`     — the deterministic worker-fault harness
  that proves the supervisor against the real process pool.

The determinism guarantee: for the same configuration, every backend
produces byte-identical campaigns — same transfer logs, same reports,
same error ledgers, same impairment logs (asserted by
``tests/experiments/test_parallel.py``).
"""

from repro.exec.backends import (
    ENV_BACKEND,
    ENV_WORKERS,
    EXECUTOR_BACKENDS,
    Executor,
    SerialExecutor,
    resolve_executor,
)
from repro.exec.chaos import ENV_CHAOS, ChaosFault, ChaosPlan
from repro.exec.context import campaign_context, shard_context
from repro.exec.shards import RESEED_STRIDE, ShardKey, ShardOutcome, ShardSpec
from repro.exec.supervisor import SupervisedExecutor, SupervisionPolicy
from repro.exec.worker import run_shard

__all__ = [
    "ENV_BACKEND",
    "ENV_CHAOS",
    "ENV_WORKERS",
    "EXECUTOR_BACKENDS",
    "ChaosFault",
    "ChaosPlan",
    "Executor",
    "RESEED_STRIDE",
    "SerialExecutor",
    "ShardKey",
    "ShardOutcome",
    "ShardSpec",
    "SupervisedExecutor",
    "SupervisionPolicy",
    "campaign_context",
    "resolve_executor",
    "run_shard",
    "shard_context",
]
