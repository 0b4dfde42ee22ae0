"""Campaign runner: the three applications on one synthetic Internet.

The paper's campaign ran PPLive, SopCast and TVAnts on the *same* testbed
watching the *same* channel.  :func:`run_campaign` mirrors that: one
:class:`World` and Table I testbed configuration shared across
applications, one simulation per application, analysis applied uniformly.

Execution is *sharded* (see :mod:`repro.exec`): each application is an
independent shard — its own pristine copy of the world, its own
RNG streams derived from the shard key — so shards can run inline
(``backend="serial"``) or fan out over a process pool
(``backend="process"``, ``workers=N``) and merge back into an identical
:class:`Campaign` either way.

The runner is *resilient* the way the real campaign had to be: a failing
experiment does not abort the campaign.  Per-application failures land in
an error ledger (:class:`CampaignFailure`), failed simulations can retry
under a reseeded RNG, completed runs checkpoint to disk as trace bundles
so an interrupted campaign resumes without re-simulating, and runs can be
gated through :func:`~repro.validation.validate_result` so physics
violations surface in the ledger instead of flowing silently into the
analysis.  The returned :class:`Campaign` is usable even when partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.supervisor import SupervisionPolicy

# The shard worker (repro.exec.worker) resolves simulate/build_flow_table/
# AwarenessAnalyzer *through this module* so test doubles installed here
# (monkeypatching campaign.simulate etc.) govern shard execution too.
from repro.core.framework import AwarenessAnalyzer, AwarenessReport  # noqa: F401
from repro.core.quality import QualityFlag
from repro.core.views import adopt_views
from repro.errors import ConfigurationError, TraceError
from repro.exec.backends import SerialExecutor, resolve_executor
from repro.exec.context import campaign_context
from repro.exec.shards import RESEED_STRIDE, ShardKey, ShardOutcome, ShardSpec
from repro.exec.worker import run_shard
from repro.faults.plan import ImpairmentLog, ImpairmentPlan
from repro.obs.log import get_logger
from repro.obs.telemetry import Telemetry
from repro.streaming.engine import EngineConfig, SimulationResult, simulate  # noqa: F401
from repro.streaming.profiles import get_profile
from repro.streaming.schedulers import default_scheduler, get_scheduler
from repro.topology.testbed import Testbed
from repro.topology.world import World
from repro.trace.flows import FlowTable, build_flow_table  # noqa: F401
from repro.trace.store import TraceBundle, load_trace_bundle, save_trace_bundle

#: The applications of the paper, in its reporting order.
PAPER_APPS = ("pplive", "sopcast", "tvants")

_log = get_logger("experiments.campaign")

__all__ = [
    "PAPER_APPS",
    "RESEED_STRIDE",
    "Campaign",
    "CampaignConfig",
    "CampaignFailure",
    "ExperimentRun",
    "campaign_profile",
    "run_campaign",
]


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """One campaign: which apps, how long, at what scale.

    Parameters
    ----------
    apps:
        Profile names to run.
    duration_s:
        Capture length per experiment (the paper ran 1-hour experiments;
        the preference indices converge far earlier).
    seed:
        Master seed; world, populations and engines derive from it.
    scale:
        Swarm scale factor (1.0 = profile defaults), for quick runs.
    max_retries:
        Extra simulation attempts per app after a failure, each under a
        reseeded engine (``seed + attempt * RESEED_STRIDE``).
    validate:
        Gate every simulation through
        :func:`~repro.validation.validate_result`; a run with violations
        is excluded from ``runs`` and its violations recorded in the
        error ledger.
    checkpoint_dir:
        When set, completed runs are saved there as trace bundles and
        later campaigns with the same configuration resume from them
        without re-simulating.
    impairment:
        Optional :class:`~repro.faults.plan.ImpairmentPlan`; each app
        runs under the plan reseeded per app (``plan.seed + app index``).
    scheduler:
        Chunk-scheduling policy applied to every app in the campaign
        (see :mod:`repro.streaming.schedulers`).  Defaults to the
        ``REPRO_SCHEDULER`` environment variable when set, else
        mesh-pull — so CI can run entire suites under an alternative
        policy without code changes.
    """

    apps: tuple[str, ...] = PAPER_APPS
    duration_s: float = 600.0
    seed: int = 42
    scale: float = 1.0
    max_retries: int = 0
    validate: bool = False
    checkpoint_dir: str | None = None
    impairment: ImpairmentPlan | None = None
    scheduler: str = field(default_factory=default_scheduler)

    def __post_init__(self) -> None:
        if not self.apps:
            raise ConfigurationError("campaign needs at least one app")
        if not (0 < self.duration_s < math.inf and 0 < self.scale < math.inf):
            raise ConfigurationError(
                "duration and scale must be positive and finite, got "
                f"duration={self.duration_s}, scale={self.scale}"
            )
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        get_scheduler(self.scheduler)  # unknown names raise here


@dataclass(frozen=True, slots=True)
class CampaignFailure:
    """One ledger entry: what failed, where, under which seed.

    Checkpoint-stage entries record the shard's *base* seed (``campaign
    seed + app index``) regardless of retries or checkpoint contents, so
    the ledger identifies the failing shard deterministically.
    """

    app: str
    stage: str  # "checkpoint" | "simulate" | "validate" | "analyze"
    attempt: int
    seed: int
    error: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.app}/{self.stage} (attempt {self.attempt}, seed {self.seed}): {self.error}"


@dataclass
class ExperimentRun:
    """One application's simulation + analysis artifacts."""

    app: str
    result: SimulationResult
    flows: FlowTable
    report: AwarenessReport
    from_checkpoint: bool = False


@dataclass
class Campaign:
    """All runs of a campaign, keyed by application name.

    ``failures`` is the error ledger: every trapped per-app failure, in
    occurrence order.  A campaign with failures is still usable — tables
    and figures render over whatever ``runs`` holds.
    """

    config: CampaignConfig
    world: World
    testbed: Testbed
    runs: dict[str, ExperimentRun] = field(default_factory=dict)
    failures: list[CampaignFailure] = field(default_factory=list)
    impairment_logs: dict[str, ImpairmentLog] = field(default_factory=dict)
    #: Campaign-level timers plus the order-independent merge of every
    #: shard's counters/gauges (pure accounting; never compared by the
    #: determinism suite).
    telemetry: Telemetry = field(default_factory=Telemetry)
    #: Raw per-shard telemetry, keyed by application (kept for the run
    #: manifest's per-shard stage timings).
    shard_telemetry: dict[str, Telemetry] = field(default_factory=dict)
    #: Per-shard supervision records (attempts, deadline, outcome class)
    #: when the campaign ran under the supervised executor (the process
    #: pool, or a serial run given a policy); empty on plain serial runs.
    supervision: dict[str, dict] = field(default_factory=dict)
    #: Degradation markers: a quarantined or drain-interrupted shard
    #: flags the campaign so downstream reporting knows the numbers are
    #: partial (codes ``exec-quarantined`` / ``exec-interrupted``).
    flags: list[QualityFlag] = field(default_factory=list)

    def __getitem__(self, app: str) -> ExperimentRun:
        return self.runs[app]

    @property
    def apps(self) -> list[str]:
        return list(self.runs)

    @property
    def failed_apps(self) -> list[str]:
        """Configured apps that produced no usable run."""
        return [app for app in self.config.apps if app not in self.runs]

    @property
    def ok(self) -> bool:
        """Every configured app completed and nothing hit the ledger."""
        return not self.failed_apps and not self.failures

    def failures_for(self, app: str) -> list[CampaignFailure]:
        return [f for f in self.failures if f.app == app]


def campaign_profile(cfg: CampaignConfig, app: str):
    """The profile one shard simulates: built-in, scaled, policy applied."""
    profile = get_profile(app)
    if cfg.scale != 1.0:
        profile = profile.scaled(cfg.scale)
    if cfg.scheduler != profile.scheduler:
        profile = replace(profile, scheduler=cfg.scheduler)
    return profile


# --------------------------------------------------------------- checkpoints
def _checkpoint_path(cfg: CampaignConfig, app: str) -> Path:
    return Path(cfg.checkpoint_dir) / f"{app}.npz"


def _save_checkpoint(cfg: CampaignConfig, app: str, result: SimulationResult) -> None:
    bundle = TraceBundle.from_result(result)
    bundle.meta["campaign_scale"] = cfg.scale
    if cfg.impairment is not None:
        bundle.meta["impairment_seed"] = cfg.impairment.seed
    save_trace_bundle(_checkpoint_path(cfg, app), bundle)


def _load_checkpoint(
    cfg: CampaignConfig, app: str, world: World, testbed: Testbed
) -> SimulationResult:
    """Rebuild a SimulationResult from a checkpointed trace bundle.

    Raises :class:`TraceError` when the checkpoint does not match the
    campaign configuration (stale directory reuse) — the caller then
    falls back to simulating.
    """
    bundle = load_trace_bundle(_checkpoint_path(cfg, app))
    meta = bundle.meta
    profile = campaign_profile(cfg, app)
    if meta.get("profile") != profile.name:
        raise TraceError(f"checkpoint profile {meta.get('profile')!r} != {profile.name!r}")
    if float(meta.get("duration_s", -1.0)) != cfg.duration_s:
        raise TraceError("checkpoint duration mismatch")
    if float(meta.get("campaign_scale", -1.0)) != cfg.scale:
        raise TraceError("checkpoint scale mismatch")
    if meta.get("scheduler", "mesh-pull") != cfg.scheduler:
        raise TraceError(
            f"checkpoint scheduler {meta.get('scheduler', 'mesh-pull')!r} "
            f"!= {cfg.scheduler!r}"
        )
    if int(meta.get("world_seed", -1)) != world.config.seed:
        raise TraceError("checkpoint world mismatch")
    expected_plan = None if cfg.impairment is None else cfg.impairment.seed
    if meta.get("impairment_seed") != expected_plan:
        raise TraceError("checkpoint impairment mismatch")
    return _result_from_bundle(bundle, cfg, world, testbed, profile)


def _result_from_bundle(
    bundle: TraceBundle, cfg: CampaignConfig, world: World, testbed: Testbed, profile
) -> SimulationResult:
    """Rehydrate a bundled simulation of one campaign shard.

    Both bundle sources go through here: a checkpoint resumed by the
    worker (against the shard's world copy) and a process-backend
    outcome merged by the parent (against the campaign's).  Every world
    copy is a byte-identical replica of one pristine construction, so
    paths resolve identically; addresses resolve through
    :func:`~repro.exec.context.analysis_registry`, which reads the
    bundle's own host table rather than the world's prefix plan.
    """
    return SimulationResult(
        transfers=bundle.transfers,
        signaling=bundle.signaling,
        hosts=bundle.hosts,
        testbed=testbed,
        world=world,
        profile=profile,
        config=EngineConfig(
            duration_s=cfg.duration_s, seed=int(bundle.meta.get("seed", 0))
        ),
        events_processed=int(bundle.meta.get("events", 0)),
    )


# ----------------------------------------------------------------- sharding
def campaign_shards(
    cfg: CampaignConfig, *, replica: int = 0, keep_result: bool = False
) -> list[ShardSpec]:
    """One shard per configured application, in reporting order."""
    return [
        ShardSpec(
            key=ShardKey(cfg.seed, app, i, replica=replica),
            config=cfg,
            keep_result=keep_result,
        )
        for i, app in enumerate(cfg.apps)
    ]


def merge_outcome(campaign: Campaign, outcome: ShardOutcome) -> None:
    """Fold one shard outcome into a campaign.

    Bookkeeping — no RNG, no re-simulation or re-analysis — so the
    reduction is deterministic as long as outcomes are merged in shard
    (= reporting) order, which :func:`run_campaign` guarantees regardless
    of the order workers finished in.  A run's report views are adopted
    into its flow table's memo, which an unpickled table arrives without.
    """
    app = outcome.key.app
    campaign.failures.extend(outcome.failures)
    if outcome.telemetry is not None:
        campaign.shard_telemetry[app] = outcome.telemetry
        campaign.telemetry.merge(outcome.telemetry)
    if outcome.impairment_log is not None:
        campaign.impairment_logs[app] = outcome.impairment_log
    record = getattr(outcome, "supervision", None)
    if record is not None:
        campaign.supervision[app] = record
        if record.get("outcome") == "quarantined":
            campaign.flags.append(
                QualityFlag(
                    "exec-quarantined",
                    detail=(
                        f"shard {record.get('label', app)} exhausted "
                        f"{len(record.get('attempts', ()))} attempt(s)"
                    ),
                )
            )
        elif record.get("outcome") == "interrupted":
            campaign.flags.append(
                QualityFlag(
                    "exec-interrupted",
                    detail=f"shard {record.get('label', app)} interrupted by drain",
                )
            )
    if not outcome.ok:
        return
    result = outcome.result
    if result is None:
        cfg = campaign.config
        profile = campaign_profile(cfg, app)
        result = _result_from_bundle(outcome.bundle, cfg, campaign.world, campaign.testbed, profile)
    adopt_views(outcome.flows, outcome.report.views)
    campaign.runs[app] = ExperimentRun(
        app=app,
        result=result,
        flows=outcome.flows,
        report=outcome.report,
        from_checkpoint=outcome.from_checkpoint,
    )


# --------------------------------------------------------------------- runner
def run_campaign(
    config: CampaignConfig | None = None,
    *,
    workers: int | None = None,
    backend: str | None = None,
    policy: "SupervisionPolicy | None" = None,
) -> Campaign:
    """Run and analyse every experiment of a campaign.

    Parameters
    ----------
    config:
        The campaign configuration (default: the paper's three apps).
    workers:
        Process-pool size for the ``process`` backend; ``workers > 1``
        alone implies ``backend="process"``.
    backend:
        ``"serial"`` (default) runs shards inline; ``"process"`` fans
        them out over the supervised process pool (deadlines, crash
        isolation, retry, quarantine — see :mod:`repro.exec.supervisor`).
        Both produce identical campaigns on a clean run — same transfer
        logs, reports, ledgers and impairment logs (the determinism
        tests assert it).  Unset values fall back to
        ``REPRO_EXEC_BACKEND`` / ``REPRO_EXEC_WORKERS``.
    policy:
        A :class:`~repro.exec.supervisor.SupervisionPolicy` (shard
        deadlines, attempt budget, quarantine directory) for the process
        pool; on the serial backend it switches on inline supervision.

    Never raises on a per-application failure: inspect
    ``campaign.failures`` (and ``campaign.failed_apps``) for anything the
    runner had to swallow; a shard the supervised runtime had to
    quarantine additionally lands in ``campaign.flags`` and
    ``campaign.supervision``.
    """
    cfg = config or CampaignConfig()
    executor = resolve_executor(backend, workers, policy)
    tel = Telemetry()
    _log.info(
        "campaign-start",
        apps=list(cfg.apps),
        seed=cfg.seed,
        duration_s=cfg.duration_s,
        backend=type(executor).__name__,
    )
    with tel.timer("campaign"):
        with tel.timer("context"):
            world, testbed = campaign_context()
        campaign = Campaign(
            config=cfg, world=world, testbed=testbed, telemetry=tel
        )
        specs = campaign_shards(cfg, keep_result=isinstance(executor, SerialExecutor))
        with tel.timer("shards"):
            for outcome in executor.map_shards(run_shard, specs):
                merge_outcome(campaign, outcome)
        # Supervised executors account for retries/timeouts/quarantines
        # in their own telemetry; fold it into the campaign's.
        exec_tel = getattr(executor, "telemetry", None)
        if isinstance(exec_tel, Telemetry):
            campaign.telemetry.merge(exec_tel)
    _log.info(
        "campaign-done",
        ok=campaign.ok,
        runs=len(campaign.runs),
        failures=len(campaign.failures),
        wall_s=round(tel.stage("campaign").wall_s, 6),
    )
    return campaign
