"""Execution-layer chaos harness: deterministic worker-fault injection.

The supervised runtime (:mod:`repro.exec.supervisor`) claims that a
worker crash, a hang or a corrupted payload becomes a failed shard
outcome — never a campaign abort.  This module makes that claim
testable against the real process pool (the ``process`` backend): a
seeded :class:`ChaosPlan` names which shards misbehave and how, travels
to worker processes through the ``REPRO_CHAOS_PLAN`` environment
variable (so fork- and spawn-started workers both see it), and is
consulted by the pool's worker loop around every shard attempt.

Fault kinds:

* ``crash``   — the worker process dies mid-task (``os._exit``), like a
  segfault;
* ``oom``     — the worker process SIGKILLs itself, exactly as the OOM
  killer would; the supervisor quarantines it without a retry;
* ``hang``    — the worker sleeps past any reasonable deadline
  (``hang_s``, default one hour), like a wedged syscall;
* ``raise``   — the shard function appears to throw
  (:class:`~repro.errors.ChaosError`), like an unhandled worker bug;
* ``corrupt`` — the shard *completes* but its payload is damaged in
  transport (a :class:`~repro.trace.store.TraceBundle` with truncated
  arrays), which the supervisor's content-digest check must catch.

Determinism: whether a given (shard label, attempt) pair triggers is a
pure function of the plan — substring match, attempt filter and a
seeded hash draw for ``probability < 1`` — so a chaos run replays
exactly.  Faults target *attempts*, which is how the harness proves
retry semantics: ``attempts=(0,)`` fails the first try and lets the
retry recover; ``attempts=None`` poisons every attempt and forces
quarantine.

The harness is exec-layer only: plans are read inside the supervised
worker loop, never by :func:`~repro.exec.worker.run_shard` itself, so
fault injection *inside* the simulation (:mod:`repro.faults`) and fault
injection *around* it compose without touching each other.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass

from repro.errors import ChaosError, ConfigurationError

#: Environment variable carrying a JSON-encoded plan into worker processes.
ENV_CHAOS = "REPRO_CHAOS_PLAN"

#: Recognised fault kinds.
CHAOS_KINDS = ("crash", "oom", "hang", "raise", "corrupt")

#: Exit status of a chaos-crashed worker (distinctive in process tables).
CHAOS_EXIT_CODE = 86

#: Sentinel returned by ``corrupt`` for results the harness cannot damage
#: surgically; the supervisor's default validation rejects it.
CORRUPTED = "__chaos_corrupted__"


@dataclass(frozen=True, slots=True)
class ChaosFault:
    """One targeted misbehaviour.

    Parameters
    ----------
    match:
        Substring of the shard label (``""`` matches every shard).
        Campaign shard labels are ``str(ShardKey)`` —
        ``s42/r0/pplive#0`` — so ``"pplive"`` targets every PPLive shard.
    kind:
        One of :data:`CHAOS_KINDS`.
    attempts:
        Executor-level attempts to fault (``None`` = all of them).
    probability:
        Chance the fault fires on a matching (label, attempt); draws are
        seeded by the plan, so the outcome is reproducible.
    """

    match: str
    kind: str
    attempts: tuple[int, ...] | None = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ConfigurationError(
                f"unknown chaos kind {self.kind!r}; choose from {CHAOS_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("chaos probability must be within [0, 1]")
        if self.attempts is not None:
            object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))

    def applies(self, label: str, attempt: int, seed: int) -> bool:
        if self.match not in label:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if self.probability >= 1.0:
            return True
        return _draw(seed, self.match, self.kind, label, attempt) < self.probability


def _draw(seed: int, *parts: object) -> float:
    """Deterministic uniform [0, 1) draw keyed on the plan seed."""
    key = "|".join(str(p) for p in (seed, *parts))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """A seeded set of targeted worker faults."""

    faults: tuple[ChaosFault, ...] = ()
    seed: int = 0
    #: How long a ``hang`` sleeps — far past any sane shard deadline.
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.hang_s <= 0:
            raise ConfigurationError("chaos hang_s must be positive")

    @property
    def is_noop(self) -> bool:
        return not self.faults

    def fault_for(self, label: str, attempt: int) -> ChaosFault | None:
        """The first fault that fires for this (label, attempt), if any."""
        for fault in self.faults:
            if fault.applies(label, attempt, self.seed):
                return fault
        return None

    # ----------------------------------------------------- worker-side hooks
    def inject_before(self, label: str, attempt: int) -> None:
        """Pre-execution faults: crash, oom, hang, raise.

        Called by the supervised worker loop before running the shard
        function.  ``crash`` and ``oom`` never return; ``hang`` sleeps
        long enough for the parent's deadline to fire first.
        """
        fault = self.fault_for(label, attempt)
        if fault is None or fault.kind == "corrupt":
            return
        if fault.kind == "crash":
            os._exit(CHAOS_EXIT_CODE)
        if fault.kind == "oom":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault.kind == "hang":
            time.sleep(self.hang_s)
            return
        raise ChaosError(f"injected failure for {label} (attempt {attempt})")

    def inject_after(self, label: str, attempt: int, result: object) -> object:
        """Post-execution fault: corrupt the completed payload."""
        fault = self.fault_for(label, attempt)
        if fault is None or fault.kind != "corrupt":
            return result
        return corrupt_result(result)

    # --------------------------------------------------------- env transport
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "hang_s": self.hang_s,
                "faults": [
                    {
                        "match": f.match,
                        "kind": f.kind,
                        "attempts": list(f.attempts) if f.attempts is not None else None,
                        "probability": f.probability,
                    }
                    for f in self.faults
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{ENV_CHAOS} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"{ENV_CHAOS} must be a JSON object")
        faults = tuple(
            ChaosFault(
                match=str(f.get("match", "")),
                kind=str(f.get("kind", "")),
                attempts=(
                    tuple(f["attempts"]) if f.get("attempts") is not None else None
                ),
                probability=float(f.get("probability", 1.0)),
            )
            for f in data.get("faults", ())
        )
        return cls(
            faults=faults,
            seed=int(data.get("seed", 0)),
            hang_s=float(data.get("hang_s", 3600.0)),
        )

    def env(self) -> dict[str, str]:
        """The environment entry that enables this plan (for subprocesses)."""
        return {ENV_CHAOS: self.to_json()}


def corrupt_result(result: object) -> object:
    """Damage a completed shard payload the way a bad transport would.

    A :class:`~repro.exec.shards.ShardOutcome` carrying a trace bundle
    has the bundle's arrays truncated — the shape of a partial pickle or
    a torn write — while its recorded content digest is left alone, so
    the supervisor's integrity check sees the mismatch.  Anything else
    is replaced wholesale by the :data:`CORRUPTED` sentinel.
    """
    from repro.exec.shards import ShardOutcome

    if isinstance(result, ShardOutcome) and result.bundle is not None:
        bundle = result.bundle
        bundle.transfers = bundle.transfers[: len(bundle.transfers) // 2]
        bundle.signaling = bundle.signaling[: len(bundle.signaling) // 2]
        return result
    return CORRUPTED


def plan_from_env(environ: dict | None = None) -> ChaosPlan | None:
    """The plan encoded in ``REPRO_CHAOS_PLAN``, or None when unset/noop."""
    raw = (environ if environ is not None else os.environ).get(ENV_CHAOS, "").strip()
    if not raw:
        return None
    plan = ChaosPlan.from_json(raw)
    return None if plan.is_noop else plan

