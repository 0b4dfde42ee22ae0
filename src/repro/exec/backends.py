"""Executor backends: where shards actually run.

Two backends, one protocol:

* ``serial`` — :class:`SerialExecutor` runs every shard in-process, in
  spec order; zero overhead, full fidelity (live result objects,
  monkeypatch-friendly);
* ``process`` — :class:`~repro.exec.supervisor.SupervisedExecutor`, the
  supervised process pool: per-shard deadlines, crash isolation, retry
  with backoff, poison quarantine, graceful drain.  Results are slotted
  back by spec index, so the reduction downstream is order-independent
  by construction.

Backend selection honours (in precedence order) explicit arguments, the
``REPRO_EXEC_BACKEND`` / ``REPRO_EXEC_WORKERS`` environment variables
(how CI runs the whole tier-1 suite through the process pool), then the
serial default.  Passing ``workers > 1`` without naming a backend implies
``process``.  A :class:`~repro.exec.supervisor.SupervisionPolicy` tunes
the pool; on the serial backend it switches on inline supervision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar, runtime_checkable

from repro.errors import ConfigurationError
from repro.exec.supervisor import SupervisedExecutor, SupervisionPolicy

S = TypeVar("S")
R = TypeVar("R")

#: Recognised backend names.
EXECUTOR_BACKENDS = ("serial", "process")

#: Environment overrides consulted when no explicit choice is made.
ENV_BACKEND = "REPRO_EXEC_BACKEND"
ENV_WORKERS = "REPRO_EXEC_WORKERS"


@runtime_checkable
class Executor(Protocol):
    """Anything that can run shards through a worker function."""

    def map_shards(self, fn: Callable[[S], R], specs: Sequence[S]) -> list[R]:
        """Run ``fn`` over ``specs``; results in spec order."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class SerialExecutor:
    """Run every shard inline, in order — the reference backend."""

    def map_shards(self, fn: Callable[[S], R], specs: Sequence[S]) -> list[R]:
        return [fn(spec) for spec in specs]


def _env_workers() -> int | None:
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{ENV_WORKERS} must be an integer, got {raw!r}") from exc
    if workers <= 0:
        raise ConfigurationError(
            f"{ENV_WORKERS} must be a positive worker count, got {workers}"
        )
    return workers


def resolve_executor(
    backend: str | None = None,
    workers: int | None = None,
    policy: SupervisionPolicy | None = None,
) -> Executor:
    """Pick an executor from explicit choices, the environment, or defaults.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"process"``, or None to consult
        ``REPRO_EXEC_BACKEND`` and fall back to serial.
    workers:
        Process-pool size; None consults ``REPRO_EXEC_WORKERS`` then
        defaults to the CPU count.  ``workers > 1`` with no backend named
        implies the process backend.
    policy:
        A :class:`~repro.exec.supervisor.SupervisionPolicy` for the
        process pool (default: ``SupervisionPolicy()``).  On the serial
        backend, providing one switches on inline supervision.
    """
    if backend is None:
        backend = os.environ.get(ENV_BACKEND, "").strip() or None
    if workers is None:
        workers = _env_workers()
    elif workers <= 0:
        raise ConfigurationError(f"worker count must be positive, got {workers}")
    if backend is None:
        backend = "process" if workers is not None and workers > 1 else "serial"
    if backend not in EXECUTOR_BACKENDS:
        raise ConfigurationError(
            f"unknown executor backend {backend!r}; choose from {EXECUTOR_BACKENDS}"
        )
    if backend == "serial":
        if policy is not None:
            return SupervisedExecutor(workers=1, policy=policy, inline=True)
        return SerialExecutor()
    return SupervisedExecutor(
        workers=workers if workers is not None else (os.cpu_count() or 2),
        policy=policy or SupervisionPolicy(),
    )
