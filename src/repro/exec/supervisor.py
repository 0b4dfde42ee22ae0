"""Supervised execution: the crash-isolated shard runtime.

This is the ``process`` backend of :mod:`repro.exec.backends` — the
only way shards leave the parent process.  Multi-hour measurement
campaigns — the workload this reproduction models — cannot afford a
worker that segfaults, wedges or returns garbage taking the whole
campaign down with it; worker failure is the common case at scale, not
the exception.  This module supervises shard execution so that *every*
infrastructure failure becomes a per-shard outcome and the campaign
always completes:

* **deadlines** — each shard attempt gets a wall-clock budget
  (:meth:`SupervisionPolicy.deadline_for`, derived from the shard's
  simulated duration unless pinned by ``shard_timeout_s``); an overdue
  worker is killed, not waited on;
* **crash isolation** — a worker dying (chaos ``os._exit``, OOM kill,
  segfault) is detected through its pipe and charged to the shard it
  was running; the pool carries on.  A SIGKILL the supervisor did not
  send is classified ``oom`` and quarantined at once — a same-seed
  retry would be killed the same way;
* **retry with backoff + reseed** — failed attempts are re-queued up to
  ``max_attempts`` with exponential backoff.  Payload failures
  (exceptions, corrupted results) retry under a shifted RNG stream via
  :attr:`~repro.exec.shards.ShardSpec.attempt_offset`, reusing the
  retry-with-reseed stride; infrastructure failures (crash, timeout)
  retry under the *same* seed, so a recovered shard is byte-identical
  to an undisturbed one;
* **poison-shard quarantine** — a shard that fails every attempt is
  salvaged into a failed result (for campaigns: a
  :class:`~repro.exec.shards.ShardOutcome` with stage-``"executor"``
  ledger entries) and, when ``quarantine_dir`` is set, its spec is
  pickled next to a JSON sidecar for offline replay
  (``python -m repro.exec.supervisor <dir>/<shard>.spec.pkl``);
* **graceful drain** — SIGINT/SIGTERM stops dispatch, kills in-flight
  workers and marks unfinished shards ``interrupted``; completed shards
  (and their worker-written checkpoints) are preserved and the call
  returns the partial result list instead of dying mid-reduction;
* **worker recycling** — ``max_tasks_per_child`` retires a worker after
  N tasks (leak containment), counted as ``exec/worker_restarts``.

Integrity: a worker records a SHA-256 content digest of its transfer
and signaling arrays inside the outcome; the parent recomputes it from
the shipped bundle, so a payload corrupted in transport (the chaos
harness's ``corrupt`` fault) is caught and retried rather than merged.

Telemetry (merged into the campaign's):  ``exec/retries``,
``exec/timeouts``, ``exec/crashes``, ``exec/oom``, ``exec/errors``,
``exec/corrupt``, ``exec/quarantined``, ``exec/interrupted``,
``exec/worker_restarts``.
Per-shard supervision records (label, deadline, per-attempt status,
outcome class) land on each :class:`ShardOutcome` and from there in the
run manifest's ``supervision`` block.

Determinism: on a clean run no retry fires, specs are untouched and
results are slotted by index — supervised output is byte-identical to
the serial backend (asserted by the parity suite).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing as mp
import pickle
import re
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, ExecutorError
from repro.obs.log import get_logger
from repro.obs.telemetry import Telemetry

_log = get_logger("exec.supervisor")

#: Failure kinds that indicate a *deterministic payload* problem; their
#: retries shift the shard's RNG stream (the in-shard reseed stride).
#: Crash and timeout are infrastructure faults and retry under the same
#: seed; an ``oom`` kill is never retried (the same seed dies the same way).
_RESEED_KINDS = ("error", "corrupt")

#: kind → telemetry counter.
_FAIL_COUNTERS = {
    "crash": "exec/crashes",
    "oom": "exec/oom",
    "timeout": "exec/timeouts",
    "error": "exec/errors",
    "corrupt": "exec/corrupt",
    "interrupted": "exec/interrupted",
}

#: How long a worker whose pipe hit EOF gets to finish exiting before its
#: exit status is read (a dead worker is reaped in microseconds).
_EXIT_GRACE_S = 1.0

#: Ceiling on the supervision poll interval; readiness events wake the
#: loop immediately, this only bounds how late a deadline can fire.
_POLL_CAP_S = 0.5


@dataclass(frozen=True, slots=True)
class SupervisionPolicy:
    """How hard to try, how long to wait, where to park the poison.

    Parameters
    ----------
    shard_timeout_s:
        Fixed per-attempt wall-clock deadline.  None derives one from
        the shard's simulated duration: ``max(min_timeout_s,
        timeout_factor × duration_s)``.
    timeout_factor / min_timeout_s:
        The derived-deadline rule.  The engine simulates much faster
        than real time, so ``3 × duration`` is a generous budget that
        still catches a wedged worker within minutes.
    max_attempts:
        Total executor-level attempts per shard (≥ 1) before quarantine.
        Orthogonal to :attr:`CampaignConfig.max_retries`, which retries
        *inside* a healthy worker.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential backoff between attempts of one shard
        (``base × factor^(attempt-1)``, capped).
    quarantine_dir:
        When set, a shard that exhausts its attempts serializes its spec
        (pickle) and supervision record (JSON) here for offline replay.
    max_tasks_per_child:
        Retire a worker process after this many tasks (None = never) —
        the leak-containment knob of pool executors.
    drain_signals:
        Install SIGINT/SIGTERM drain handlers for the duration of a
        pool run (main thread only; restored afterwards).
    """

    shard_timeout_s: float | None = None
    timeout_factor: float = 3.0
    min_timeout_s: float = 60.0
    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    quarantine_dir: str | None = None
    max_tasks_per_child: int | None = None
    drain_signals: bool = True

    def __post_init__(self) -> None:
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ConfigurationError("shard_timeout_s must be positive")
        if self.timeout_factor <= 0 or self.min_timeout_s <= 0:
            raise ConfigurationError("timeout derivation parameters must be positive")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1 or self.backoff_max_s < 0:
            raise ConfigurationError("invalid backoff parameters")
        if self.max_tasks_per_child is not None and self.max_tasks_per_child < 1:
            raise ConfigurationError("max_tasks_per_child must be at least 1")

    def deadline_for(self, spec: Any) -> float:
        """Wall-clock budget for one attempt of ``spec``."""
        if self.shard_timeout_s is not None:
            return float(self.shard_timeout_s)
        duration = getattr(getattr(spec, "config", None), "duration_s", None)
        if duration is None:
            duration = getattr(spec, "duration_s", None)
        if duration is None:
            return self.min_timeout_s
        return max(self.min_timeout_s, self.timeout_factor * float(duration))

    def backoff_s(self, attempt: int) -> float:
        """Sleep before ``attempt`` (attempt 0 starts immediately)."""
        if attempt <= 0 or self.backoff_base_s == 0.0:
            return 0.0
        return min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )


# ------------------------------------------------------------------ worker side
def _worker_main(conn) -> None:
    """Supervised worker loop: recv task → run (under chaos) → send result.

    SIGINT is ignored — drain is the parent's decision, delivered as a
    kill.  The chaos plan, if any, comes from the environment so it
    reaches fork- and spawn-started workers alike.  Recycling
    (``max_tasks_per_child``) is enforced parent-side after reaping a
    result — a worker that retired itself could race a fresh assignment.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from repro.exec.chaos import plan_from_env

    plan = plan_from_env()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            return
        _, index, attempt, fn, spec, label = msg
        try:
            if plan is not None:
                plan.inject_before(label, attempt)
            result = fn(spec)
            if plan is not None:
                result = plan.inject_after(label, attempt, result)
            reply = ("ok", index, attempt, result)
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            reply = ("err", index, attempt, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        except Exception as exc:  # unpicklable result
            conn.send(("err", index, attempt, f"unpicklable result: {exc}"))


@dataclass
class _Task:
    index: int
    spec: Any
    attempt: int
    label: str
    deadline_s: float
    started_at: float


class _Worker:
    """One supervised worker process and its command pipe."""

    def __init__(self, ctx) -> None:
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self.process.start()
        child.close()
        self.task: _Task | None = None
        self.completed = 0

    @property
    def busy(self) -> bool:
        return self.task is not None

    def assign(self, fn, index: int, spec, attempt: int, label: str, deadline_s: float) -> None:
        self.task = _Task(index, spec, attempt, label, deadline_s, time.monotonic())
        self.conn.send(("run", index, attempt, fn, spec, label))

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join()

    def stop(self) -> None:
        """Polite shutdown of an idle worker; escalates to kill."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2.0)
        self.kill()


@dataclass
class _Pending:
    index: int
    spec: Any
    attempt: int
    not_before: float


def _shard_label(spec: Any, index: int) -> str:
    key = getattr(spec, "key", None)
    if key is not None:
        return str(key)
    return f"{type(spec).__name__}[{index}]"


def _new_record(label: str, deadline_s: float) -> dict:
    return {
        "label": label,
        "deadline_s": round(deadline_s, 6),
        "attempts": [],
        "outcome": None,
    }


def _reseed(spec: Any, attempt: int) -> Any:
    """Shift a spec's RNG stream for a payload-failure retry.

    Specs that carry an ``attempt_offset`` field (campaign
    :class:`~repro.exec.shards.ShardSpec`) get it set to the executor
    attempt number, which the worker folds into ``seed_for`` — the same
    stride the in-shard retry loop uses.  Other specs retry unchanged.
    """
    if dataclasses.is_dataclass(spec) and any(
        f.name == "attempt_offset" for f in dataclasses.fields(spec)
    ):
        return dataclasses.replace(spec, attempt_offset=attempt)
    return spec


def _default_validate(spec: Any, result: Any) -> str | None:
    """Integrity gate on a completed attempt; returns an error string.

    For campaign shards: type, shard-key and content-digest checks (the
    digest recomputation is what catches a corrupted
    :class:`TraceBundle`).  Other result types only reject the chaos
    ``CORRUPTED`` sentinel.
    """
    from repro.exec.chaos import CORRUPTED
    from repro.exec.shards import ShardOutcome, ShardSpec

    if isinstance(result, str) and result == CORRUPTED:
        return "chaos-corrupted payload"
    if not isinstance(spec, ShardSpec):
        return None
    if not isinstance(result, ShardOutcome):
        return f"expected ShardOutcome, got {type(result).__name__}"
    if result.key != spec.key:
        return f"shard key mismatch: sent {spec.key}, received {result.key}"
    if result.ok and result.content_digest:
        from repro.trace.store import trace_digest

        if result.bundle is not None:
            got = trace_digest(result.bundle.transfers, result.bundle.signaling)
        elif result.result is not None:
            got = trace_digest(result.result.transfers, result.result.signaling)
        else:  # pragma: no cover - ok implies one of the two
            got = None
        if got is not None and got != result.content_digest:
            return "content digest mismatch (payload corrupted in transport)"
    return None


def _default_salvage(spec: Any, record: dict) -> Any:
    """Failed-result factory once every attempt is spent.

    Campaign shards become a failed :class:`ShardOutcome` whose ledger
    entries carry stage ``"executor"`` — the campaign completes degraded
    instead of aborting.  Specs without a registered salvage cannot be
    absorbed, so the last error propagates as :class:`ExecutorError`.
    """
    from repro.exec.shards import ShardOutcome, ShardSpec

    if isinstance(spec, ShardSpec):
        import repro.experiments.campaign as campaign_mod

        failures = tuple(
            campaign_mod.CampaignFailure(
                spec.key.app,
                "executor",
                a["attempt"],
                spec.key.base_seed,
                f"{a['status']}: {a.get('error', '')}",
            )
            for a in record["attempts"]
        )
        outcome = ShardOutcome(key=spec.key, failures=failures)
        outcome.supervision = record
        return outcome
    last = record["attempts"][-1] if record["attempts"] else {}
    raise ExecutorError(
        f"shard {record['label']} exhausted {len(record['attempts'])} attempt(s): "
        f"{last.get('status', 'interrupted')}: {last.get('error', '')}"
    )


@dataclass
class SupervisedExecutor:
    """Run shards under supervision — deadlines, isolation, quarantine.

    With ``inline=False`` (default) shards fan out over a pool of
    supervised worker processes.  With ``inline=True`` the same retry /
    validation / quarantine machinery wraps in-process execution (the
    serial backend under supervision); deadlines and crash isolation
    need a process boundary and do not apply inline.

    ``salvage(spec, record)`` and ``validate(spec, result)`` customise
    failure absorption and result integrity per spec family; the
    defaults understand campaign :class:`ShardSpec`.  ``telemetry`` and
    ``records`` are rebuilt on every :meth:`map_shards` call and expose
    the last run's supervision counters and per-shard records.
    """

    workers: int = 2
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    inline: bool = False
    salvage: Callable[[Any, dict], Any] | None = None
    validate: Callable[[Any, Any], str | None] | None = None
    telemetry: Telemetry = field(default_factory=Telemetry)
    records: list[dict] = field(default_factory=list)
    drained: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("process backend needs at least one worker")

    # ----------------------------------------------------------------- public
    def map_shards(self, fn: Callable, specs: Sequence) -> list:
        self.telemetry = Telemetry()
        self.drained = False
        self.records = [
            _new_record(_shard_label(spec, i), self.policy.deadline_for(spec))
            for i, spec in enumerate(specs)
        ]
        if not specs:
            return []
        with self.telemetry.timer("exec/supervise"):
            if self.inline:
                return self._map_inline(fn, specs)
            return self._map_pool(fn, specs)

    # --------------------------------------------------------------- plumbing
    def _validate_result(self, spec: Any, result: Any) -> str | None:
        check = self.validate if self.validate is not None else _default_validate
        return check(spec, result)

    def _salvage_result(self, spec: Any, record: dict) -> Any:
        make = self.salvage if self.salvage is not None else _default_salvage
        return make(spec, record)

    def _finalize(self, result: Any, record: dict) -> Any:
        record["outcome"] = "ok"
        if hasattr(result, "supervision"):
            result.supervision = record
        return result

    def _record_failure(
        self, record: dict, attempt: int, kind: str, error: str, wall_s: float
    ) -> None:
        record["attempts"].append(
            {
                "attempt": attempt,
                "status": kind,
                "error": error,
                "wall_s": round(wall_s, 6),
            }
        )
        counter = _FAIL_COUNTERS.get(kind)
        if counter:
            self.telemetry.count(counter)
        _log.warning(
            "shard-attempt-failed",
            shard=record["label"],
            attempt=attempt,
            kind=kind,
            error=error,
        )

    def _quarantine(self, index: int, spec: Any, interrupted: bool = False) -> Any:
        record = self.records[index]
        record["outcome"] = "interrupted" if interrupted else "quarantined"
        if not interrupted:
            self.telemetry.count("exec/quarantined")
            if self.policy.quarantine_dir:
                path = write_quarantine(self.policy.quarantine_dir, spec, record)
                record["quarantine"] = str(path)
                _log.warning("shard-quarantined", shard=record["label"], spec=str(path))
        return self._salvage_result(spec, record)

    # ----------------------------------------------------------- inline mode
    def _map_inline(self, fn: Callable, specs: Sequence) -> list:
        results: list = [None] * len(specs)
        for i, spec in enumerate(specs):
            record = self.records[i]
            attempt, current = 0, spec
            while True:
                start = time.monotonic()
                kind = error = None
                result = None
                try:
                    result = fn(current)
                    error = self._validate_result(current, result)
                    if error is not None:
                        kind = "corrupt"
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    kind, error = "error", f"{type(exc).__name__}: {exc}"
                wall = time.monotonic() - start
                if kind is None:
                    record["attempts"].append(
                        {"attempt": attempt, "status": "ok", "wall_s": round(wall, 6)}
                    )
                    results[i] = self._finalize(result, record)
                    break
                self._record_failure(record, attempt, kind, error, wall)
                if attempt + 1 >= self.policy.max_attempts:
                    results[i] = self._quarantine(i, current)
                    break
                self.telemetry.count("exec/retries")
                backoff = self.policy.backoff_s(attempt + 1)
                if backoff:
                    time.sleep(backoff)
                attempt += 1
                if kind in _RESEED_KINDS:
                    current = _reseed(spec, attempt)
        return results

    # ------------------------------------------------------------- pool mode
    def _map_pool(self, fn: Callable, specs: Sequence) -> list:
        ctx = (
            mp.get_context("fork")
            if "fork" in mp.get_all_start_methods()
            else mp.get_context()
        )
        n = len(specs)
        results: list = [None] * n
        done = [False] * n
        pending: deque[_Pending] = deque(
            _Pending(i, specs[i], 0, 0.0) for i in range(n)
        )
        workers: list[_Worker] = []
        self._drain_flag = False
        saved_handlers = self._install_drain_handlers()
        try:
            while not all(done):
                if self._drain_flag:
                    self._drain(pending, workers, specs, results, done)
                    break
                now = time.monotonic()
                self._dispatch(fn, ctx, pending, workers, now, results, done)
                timeout = self._wait_timeout(pending, workers, now)
                busy = [w.conn for w in workers if w.busy]
                if busy:
                    ready = mp_connection.wait(busy, timeout)
                else:
                    time.sleep(timeout)
                    ready = []
                for worker in [w for w in workers if w.busy and w.conn in ready]:
                    self._reap(worker, workers, pending, results, done)
                self._enforce_deadlines(workers, pending, results, done)
        finally:
            for worker in workers:
                worker.stop()
            self._restore_drain_handlers(saved_handlers)
        return results

    def _dispatch(self, fn, ctx, pending, workers, now: float, results, done) -> None:
        for worker in list(workers):
            if not worker.busy and not worker.process.is_alive():
                # An idle worker died on its own — unusual, but harmless
                # to the shards; replace it on the next assignment.
                workers.remove(worker)
                worker.kill()
                self.telemetry.count("exec/worker_restarts")
        ready = [p for p in pending if p.not_before <= now]
        for item in ready:
            idle = next((w for w in workers if not w.busy), None)
            if idle is None:
                if len(workers) >= self.workers:
                    break
                idle = _Worker(ctx)
                workers.append(idle)
            pending.remove(item)
            label = self.records[item.index]["label"]
            deadline = self.records[item.index]["deadline_s"]
            try:
                idle.assign(fn, item.index, item.spec, item.attempt, label, deadline)
            except Exception as exc:  # unpicklable spec / dead pipe
                idle.task = None
                workers.remove(idle)
                idle.kill()
                self._attempt_failed(
                    item.index, item.spec, item.attempt, "error",
                    f"dispatch failed: {exc}", 0.0, pending, results, done,
                )

    def _wait_timeout(self, pending, workers, now: float) -> float:
        candidates = [_POLL_CAP_S]
        for worker in workers:
            if worker.busy:
                candidates.append(
                    worker.task.started_at + worker.task.deadline_s - now
                )
        for item in pending:
            if item.not_before > now:
                candidates.append(item.not_before - now)
        return min(_POLL_CAP_S, max(0.01, min(candidates)))

    def _reap(self, worker: _Worker, workers, pending, results, done) -> None:
        task = worker.task
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            # Worker died mid-task: the crash-isolation path.  Its exit
            # status is read before worker.kill() can signal it, so a
            # SIGKILL seen here came from outside — the OOM killer.
            wall = time.monotonic() - task.started_at
            worker.task = None
            workers.remove(worker)
            worker.process.join(timeout=_EXIT_GRACE_S)
            oom = worker.process.exitcode == -signal.SIGKILL
            worker.kill()
            self.telemetry.count("exec/worker_restarts")
            if oom:
                kind, error = "oom", "worker process killed by SIGKILL (out of memory?)"
            else:
                kind, error = "crash", "worker process died"
            self._attempt_failed(
                task.index, task.spec, task.attempt, kind, error, wall,
                pending, results, done,
            )
            return
        kind, index, attempt, payload = msg
        wall = time.monotonic() - task.started_at
        worker.task = None
        worker.completed += 1
        max_tasks = self.policy.max_tasks_per_child
        if max_tasks is not None and worker.completed >= max_tasks:
            # Parent-side recycling: retire the worker *now*, before any
            # new assignment could race its shutdown.
            workers.remove(worker)
            worker.stop()
            self.telemetry.count("exec/worker_restarts")
        if kind == "ok":
            error = self._validate_result(task.spec, payload)
            if error is None:
                record = self.records[index]
                record["attempts"].append(
                    {"attempt": attempt, "status": "ok", "wall_s": round(wall, 6)}
                )
                results[index] = self._finalize(payload, record)
                done[index] = True
                return
            self._attempt_failed(
                index, task.spec, attempt, "corrupt", error, wall, pending, results, done
            )
            return
        self._attempt_failed(
            index, task.spec, attempt, "error", payload, wall, pending, results, done
        )

    def _enforce_deadlines(self, workers, pending, results, done) -> None:
        now = time.monotonic()
        for worker in list(workers):
            if not worker.busy:
                continue
            task = worker.task
            overdue = now - task.started_at
            if overdue <= task.deadline_s:
                continue
            worker.task = None
            workers.remove(worker)
            worker.kill()
            self.telemetry.count("exec/worker_restarts")
            self._attempt_failed(
                task.index, task.spec, task.attempt, "timeout",
                f"deadline exceeded ({task.deadline_s:.1f}s)", overdue,
                pending, results, done,
            )

    def _attempt_failed(
        self, index, spec, attempt, kind, error, wall_s, pending, results, done
    ) -> None:
        record = self.records[index]
        self._record_failure(record, attempt, kind, error, wall_s)
        retryable = kind != "oom" and not self._drain_flag
        if retryable and attempt + 1 < self.policy.max_attempts:
            self.telemetry.count("exec/retries")
            next_attempt = attempt + 1
            next_spec = _reseed(spec, next_attempt) if kind in _RESEED_KINDS else spec
            pending.append(
                _Pending(
                    index,
                    next_spec,
                    next_attempt,
                    time.monotonic() + self.policy.backoff_s(next_attempt),
                )
            )
            return
        results[index] = self._quarantine(index, spec)
        done[index] = True

    # ------------------------------------------------------------------ drain
    def _install_drain_handlers(self):
        if not self.policy.drain_signals:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None

        def _on_signal(signum, frame):  # pragma: no branch - trivial
            self._drain_flag = True

        saved = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                saved[sig] = signal.signal(sig, _on_signal)
            except (ValueError, OSError):  # pragma: no cover
                pass
        return saved

    def _restore_drain_handlers(self, saved) -> None:
        if not saved:
            return
        for sig, handler in saved.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _drain(self, pending, workers, specs, results, done) -> None:
        """Signal-initiated shutdown: keep the finished, mark the rest."""
        self.drained = True
        _log.warning(
            "drain-requested",
            completed=sum(done),
            in_flight=sum(1 for w in workers if w.busy),
            pending=len(pending),
        )
        for worker in list(workers):
            task = worker.task
            worker.task = None
            workers.remove(worker)
            worker.kill()
            if task is not None and not done[task.index]:
                self._record_failure(
                    self.records[task.index], task.attempt, "interrupted",
                    "campaign drain requested (signal)",
                    time.monotonic() - task.started_at,
                )
                results[task.index] = self._quarantine(
                    task.index, task.spec, interrupted=True
                )
                done[task.index] = True
        while pending:
            item = pending.popleft()
            if done[item.index]:
                continue
            self._record_failure(
                self.records[item.index], item.attempt, "interrupted",
                "campaign drain requested (signal)", 0.0,
            )
            results[item.index] = self._quarantine(
                item.index, item.spec, interrupted=True
            )
            done[item.index] = True


# -------------------------------------------------------------- quarantine I/O
def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", label)


def write_quarantine(directory: str | Path, spec: Any, record: dict) -> Path:
    """Park a poison shard: pickled spec + JSON supervision sidecar.

    Returns the spec path.  The sidecar names the spec file and keeps
    the full attempt history so the failure is inspectable without
    unpickling anything.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    safe = _safe_name(record["label"])
    spec_path = directory / f"{safe}.spec.pkl"
    with open(spec_path, "wb") as fh:
        pickle.dump(spec, fh)
    sidecar = dict(record)
    sidecar["spec_file"] = spec_path.name
    sidecar["spec_type"] = f"{type(spec).__module__}.{type(spec).__qualname__}"
    (directory / f"{safe}.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True, default=str) + "\n"
    )
    return spec_path


def load_quarantined_spec(path: str | Path) -> Any:
    """Unpickle a quarantined shard spec written by :func:`write_quarantine`."""
    path = Path(path)
    if not path.exists():
        raise ExecutorError(f"quarantined spec not found: {path}")
    with open(path, "rb") as fh:
        return pickle.load(fh)


def replay_quarantined(path: str | Path) -> Any:
    """Re-run a quarantined shard inline (the offline debugging workflow).

    Accepts the ``.spec.pkl`` path (or its ``.json`` sidecar) and runs
    the shard in the current process with no supervision — a crash or
    hang reproduces *here*, under a debugger if you want one.
    """
    path = Path(path)
    if path.suffix == ".json":
        sidecar = json.loads(path.read_text())
        path = path.parent / sidecar["spec_file"]
    spec = load_quarantined_spec(path)
    from repro.exec.shards import ShardSpec

    if isinstance(spec, ShardSpec):
        from repro.exec.worker import run_shard

        return run_shard(spec)
    from repro.experiments.robustness import SeverityShard, run_severity_shard

    if isinstance(spec, SeverityShard):
        return run_severity_shard(spec)
    raise ExecutorError(f"no replay handler for spec type {type(spec).__name__}")


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.exec.supervisor <quarantined.spec.pkl>``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.supervisor",
        description="Replay a quarantined shard spec inline (no supervision)",
    )
    parser.add_argument("spec", help="a .spec.pkl (or .json sidecar) from a quarantine dir")
    args = parser.parse_args(argv)
    outcome = replay_quarantined(args.spec)
    ok = bool(getattr(outcome, "ok", True))
    print(f"replayed {args.spec}: {'ok' if ok else 'FAILED'}")
    failures = getattr(outcome, "failures", ())
    for failure in failures:
        print(f"  {failure}")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
