"""Impairment plans: seeded composition of the fault primitives.

An :class:`ImpairmentPlan` bundles the four impairment families — bursty
request loss, churn events, sniffer outages, clock skew — under one fault
seed.  Every materialisation draws from a *named* stream of a fresh
:class:`~repro.config.RngBundle` built from that seed, so applying the
same plan to the same simulation twice yields byte-identical impaired
logs (the determinism tests assert exactly that).

Two application points mirror where each fault physically lives:

* :meth:`ImpairmentPlan.engine_config` wires the *in-protocol* faults
  (loss schedule, churn transform) into an :class:`EngineConfig` before
  the simulation runs;
* :func:`impair_result` applies the *measurement* faults (capture gaps,
  clock skew) to the finished transfer log, post hoc.

:func:`simulate_impaired` chains both around :func:`~repro.streaming.
engine.simulate` and is the entry point the robustness experiment uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import RngBundle
from repro.errors import FaultInjectionError
from repro.faults.capture import CaptureGap, CaptureOutageConfig, apply_capture_gaps, draw_capture_gaps
from repro.faults.churn import ChurnStorm, FlashCrowd, apply_churn_events
from repro.faults.clock import ClockSkewConfig, apply_clock_skew, draw_clock_skew
from repro.faults.loss import GilbertElliottConfig, materialize_loss_schedule
from repro.streaming.engine import EngineConfig, SimulationResult, simulate


@dataclass(frozen=True)
class ImpairmentPlan:
    """One seeded, composable description of everything that goes wrong."""

    seed: int = 0
    loss: GilbertElliottConfig | None = None
    storms: tuple[ChurnStorm, ...] = ()
    flash_crowds: tuple[FlashCrowd, ...] = ()
    capture: CaptureOutageConfig | None = None
    clock: ClockSkewConfig | None = None

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing."""
        return (
            self.loss is None
            and not self.storms
            and not self.flash_crowds
            and self.capture is None
            and self.clock is None
        )

    def with_seed(self, seed: int) -> "ImpairmentPlan":
        """The same impairments under a different fault seed."""
        return replace(self, seed=int(seed))

    @classmethod
    def preset(
        cls, severity: float, *, seed: int = 0, duration_s: float = 600.0
    ) -> "ImpairmentPlan":
        """A plan scaled by one ``severity`` knob in ``[0, 1]``.

        ``severity = 0`` is a no-op plan; ``1`` combines heavy bursty
        loss, a mid-experiment churn storm plus flash crowd, likely
        sniffer outages and visible clock skew.  The robustness sweep
        (:mod:`repro.experiments.robustness`) walks this dial.
        """
        if not 0.0 <= severity <= 1.0:
            raise FaultInjectionError("severity must be in [0, 1]")
        if severity == 0.0:
            return cls(seed=seed)
        return cls(
            seed=seed,
            loss=GilbertElliottConfig(
                mean_good_s=max(duration_s / 8.0, 10.0),
                mean_bad_s=max(duration_s / 40.0, 2.0) * (1.0 + severity),
                loss_good=0.0,
                loss_bad=0.7 * severity,
            ),
            storms=(
                ChurnStorm(
                    at_s=duration_s * 0.4,
                    duration_s=max(duration_s * 0.05, 5.0),
                    leave_fraction=0.6 * severity,
                ),
            ),
            flash_crowds=(
                FlashCrowd(
                    at_s=duration_s * 0.6,
                    join_fraction=0.6 * severity,
                    mean_stay_s=max(duration_s * 0.2, 30.0),
                ),
            ),
            capture=CaptureOutageConfig(
                outage_prob=0.5 * severity,
                mean_outage_s=max(duration_s * 0.08, 5.0),
            ),
            clock=ClockSkewConfig(
                max_offset_s=0.3 * severity,
                max_drift_ppm=250.0 * severity,
                jitter_std_s=0.0005 * severity,
            ),
        )

    # ------------------------------------------------------------ application
    def engine_config(self, base: EngineConfig) -> EngineConfig:
        """``base`` with this plan's in-protocol faults wired in.

        The loss schedule is materialised here (from the ``fault_loss``
        stream of this plan's seed) with the GOOD-state floor lifted to
        the engine's own ``request_loss_prob``; the churn transform is
        applied lazily by the engine from its ``fault_churn`` stream.
        """
        overrides: dict = {}
        if self.loss is not None:
            cfg = self.loss
            if base.request_loss_prob > cfg.loss_good:
                cfg = replace(cfg, loss_good=base.request_loss_prob)
            overrides["request_loss_schedule"] = materialize_loss_schedule(
                base.duration_s, cfg, RngBundle(self.seed)["fault_loss"]
            )
        if self.storms or self.flash_crowds:
            storms, crowds = self.storms, self.flash_crowds
            overrides["churn_transform"] = lambda churn, rng: apply_churn_events(
                churn, storms, crowds, rng
            )
        return replace(base, **overrides) if overrides else base


@dataclass
class ImpairmentLog:
    """What one plan actually did to one run (for reports and tests)."""

    plan_seed: int
    capture_gaps: tuple[CaptureGap, ...] = ()
    records_before: int = 0
    records_after: int = 0
    clock_skew_applied: bool = False
    bad_time_fraction: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def dropped_fraction(self) -> float:
        """Share of transfer records lost to capture gaps."""
        if self.records_before == 0:
            return 0.0
        return 1.0 - self.records_after / self.records_before


def impair_result(
    result: SimulationResult, plan: ImpairmentPlan
) -> tuple[SimulationResult, ImpairmentLog]:
    """Apply a plan's measurement faults to a finished simulation.

    Returns a shallow copy of ``result`` with the impaired transfer log
    (the original is untouched) plus the log of applied impairments; the
    log is also stashed in ``result.extras["impairment"]``.
    """
    rngs = RngBundle(plan.seed)
    log = ImpairmentLog(plan_seed=plan.seed, records_before=len(result.transfers))
    transfers = result.transfers

    if plan.capture is not None:
        gaps = draw_capture_gaps(
            result.probe_ips, result.duration_s, plan.capture, rngs["fault_capture"]
        )
        if gaps:
            transfers = apply_capture_gaps(transfers, result.probe_ips, gaps)
            log.capture_gaps = gaps
            log.notes.append(f"{len(gaps)} sniffer outage(s)")

    if plan.clock is not None:
        skew = draw_clock_skew(result.probe_ips, plan.clock, rngs["fault_clock"])
        transfers = apply_clock_skew(transfers, skew, rngs["fault_clock"])
        log.clock_skew_applied = True
        log.notes.append("clock skew applied")

    sched = getattr(result.config, "request_loss_schedule", None)
    if sched is not None:
        log.bad_time_fraction = sched.bad_time_fraction

    log.records_after = len(transfers)
    impaired = replace(result, transfers=transfers)
    impaired.extras = dict(result.extras)
    impaired.extras["impairment"] = log
    return impaired, log


def simulate_impaired(
    profile,
    plan: ImpairmentPlan,
    *,
    duration_s: float = 600.0,
    seed: int = 7,
    world=None,
    testbed=None,
    engine_config: EngineConfig | None = None,
) -> tuple[SimulationResult, ImpairmentLog]:
    """Run one experiment under an impairment plan.

    A pure function of ``(world seed, profile, engine seed, plan seed)``:
    identical arguments produce byte-identical impaired transfer logs.
    """
    base = engine_config or EngineConfig(duration_s=duration_s, seed=seed)
    result = simulate(
        profile,
        world=world,
        testbed=testbed,
        engine_config=plan.engine_config(base),
    )
    return impair_result(result, plan)
