"""Robustness analysis: how do the indices degrade under impairment?

The paper's conclusions rest on clean hour-long captures.  Real campaigns
are messier: bursty request loss, churn storms, sniffer outages, skewed
probe clocks.  This experiment sweeps an :class:`ImpairmentPlan` severity
knob from pristine to heavily damaged and recomputes the headline
preference indices at each point, alongside the degradation telemetry
(records dropped, time spent in the bursty-loss BAD state, quality flags
raised by the analyzer).

A robust methodology shows indices drifting gently and flags appearing
*before* the numbers become garbage — the flags are the early-warning
system this experiment calibrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.supervisor import SupervisionPolicy

import repro.experiments.campaign as campaign_mod
from repro.core.quality import QualityFlag
from repro.errors import AnalysisError, ExecutorError
from repro.exec.backends import resolve_executor
from repro.exec.shards import ShardSpec
from repro.faults.plan import ImpairmentPlan
from repro.obs.telemetry import Telemetry

#: Default severity sweep: pristine → heavily impaired.
DEFAULT_SEVERITIES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True, slots=True)
class RobustnessPoint:
    """One severity setting and everything measured under it."""

    severity: float
    bw_byte_pct: float
    as_byte_pct_nonprobe: float
    hop_byte_pct_nonprobe: float
    records: int
    dropped_fraction: float
    bad_time_fraction: float
    flags: tuple[QualityFlag, ...] = ()
    #: Per-point stage timers/counters.  Excluded from equality so the
    #: serial ≡ process parity suite compares scientific content only
    #: (wall-clock necessarily differs between backends).
    telemetry: Telemetry | None = field(default=None, compare=False)

    @property
    def flag_count(self) -> int:
        return len(self.flags)


@dataclass
class RobustnessReport:
    """The full severity sweep for one application."""

    app: str
    points: list[RobustnessPoint] = field(default_factory=list)
    #: Order-independent merge of every point's telemetry.
    telemetry: Telemetry = field(default_factory=Telemetry)

    @property
    def baseline(self) -> RobustnessPoint:
        """The pristine (lowest-severity) point."""
        if not self.points:
            raise AnalysisError("empty robustness sweep")
        return min(self.points, key=lambda p: p.severity)

    def drift(self, field_name: str) -> float:
        """Max absolute excursion of one index from its pristine value."""
        base = getattr(self.baseline, field_name)
        deltas = [
            abs(getattr(p, field_name) - base)
            for p in self.points
            if not np.isnan(getattr(p, field_name))
        ]
        if not deltas or np.isnan(base):
            raise AnalysisError(f"no finite values for {field_name}")
        return max(deltas)


def _headline(report) -> tuple[float, float, float]:
    return (
        report["BW"].download.B,
        report["AS"].download.B_prime,
        report["HOP"].download.B_prime,
    )


@dataclass(frozen=True, slots=True)
class SeverityShard:
    """One severity point of a sweep: a one-app campaign shard under the
    severity's impairment preset, as a picklable unit of work."""

    severity: float
    spec: ShardSpec

    @property
    def config(self) -> "campaign_mod.CampaignConfig":
        """The shard's campaign config (supervision derives deadlines from it)."""
        return self.spec.config


def run_severity_shard(shard: SeverityShard) -> RobustnessPoint:
    """Run one severity point through :func:`~repro.exec.worker.run_shard`.

    The outcome is reduced to a :class:`RobustnessPoint` here, inside the
    worker, so neither the simulation nor its flow table outlives the
    point.  A point the shard pipeline could not complete raises
    :class:`~repro.errors.ExecutorError` naming the severity and the
    shard's ledger entries.
    """
    outcome = campaign_mod.run_shard(shard.spec)
    if not outcome.ok:
        ledger = "; ".join(str(f) for f in outcome.failures) or "no ledger entries"
        raise ExecutorError(f"severity {shard.severity:g} failed: {ledger}")
    log = outcome.impairment_log  # None for the no-op severity-0 plan
    bw, as_np, hop_np = _headline(outcome.report)
    return RobustnessPoint(
        severity=shard.severity,
        bw_byte_pct=bw,
        as_byte_pct_nonprobe=as_np,
        hop_byte_pct_nonprobe=hop_np,
        records=len(outcome.result.transfers),
        dropped_fraction=0.0 if log is None else log.dropped_fraction,
        bad_time_fraction=0.0 if log is None else log.bad_time_fraction,
        flags=tuple(outcome.report.flags),
        telemetry=outcome.telemetry,
    )


def sweep_robustness(
    app: str = "tvants",
    *,
    severities: tuple[float, ...] = DEFAULT_SEVERITIES,
    duration_s: float = 300.0,
    seed: int = 7,
    fault_seed: int = 1,
    scale: float = 1.0,
    scheduler: str | None = None,
    workers: int | None = None,
    backend: str | None = None,
    policy: "SupervisionPolicy | None" = None,
) -> RobustnessReport:
    """Sweep impairment severity over one application.

    Each severity point is the one shard of a one-app campaign under
    ``ImpairmentPlan.preset(severity)`` (its own pristine world copy, the
    same engine seed at every point), so the sweep and ``repro campaign
    --impair`` compute their indices on one path.  Points fan out over
    the selected executor backend; the report lists them in the
    requested severity order regardless of completion order.  On the
    process pool the points run with deadlines and retries (serially, a
    supervision ``policy`` adds inline retries); a point that exhausts
    every attempt raises :class:`~repro.errors.ExecutorError` (severity
    sweeps have no degraded-completion mode — a hole in the curve would
    be misleading).
    """
    executor = resolve_executor(backend, workers, policy)
    base = dict(apps=(app,), duration_s=duration_s, seed=seed, scale=scale)
    if scheduler is not None:
        base["scheduler"] = scheduler
    shards = []
    for severity in severities:
        plan = ImpairmentPlan.preset(severity, seed=fault_seed, duration_s=duration_s)
        cfg = campaign_mod.CampaignConfig(**base, impairment=plan)
        [spec] = campaign_mod.campaign_shards(cfg, keep_result=True)
        shards.append(SeverityShard(severity, spec))
    report = RobustnessReport(app=app)
    report.points.extend(executor.map_shards(run_severity_shard, shards))
    for point in report.points:
        if point.telemetry is not None:
            report.telemetry.merge(point.telemetry)
    exec_tel = getattr(executor, "telemetry", None)
    if isinstance(exec_tel, Telemetry):
        report.telemetry.merge(exec_tel)
    return report


def render_robustness(report: RobustnessReport) -> str:
    """Monospace rendering: per-severity indices plus drift summary."""
    from repro.report.tables import render_table

    rows = [
        [
            f"{p.severity:.2f}",
            f"{p.bw_byte_pct:.1f}",
            f"{p.as_byte_pct_nonprobe:.1f}",
            f"{p.hop_byte_pct_nonprobe:.1f}",
            f"{p.records}",
            f"{p.dropped_fraction:.1%}",
            f"{p.bad_time_fraction:.1%}",
            f"{p.flag_count}",
        ]
        for p in report.points
    ]
    out = render_table(
        ["severity", "BW B%", "AS B'%", "HOP B'%", "records", "dropped", "bad time", "flags"],
        rows,
        title=f"ROBUSTNESS — {report.app}: indices under increasing impairment",
    )
    drifts = []
    for label, fname in (
        ("BW", "bw_byte_pct"),
        ("AS", "as_byte_pct_nonprobe"),
        ("HOP", "hop_byte_pct_nonprobe"),
    ):
        try:
            drifts.append(f"{label} ±{report.drift(fname):.1f}")
        except AnalysisError:
            drifts.append(f"{label} n/a")
    out += "\n\nmax drift from pristine:  " + "   ".join(drifts)
    flagged = [p for p in report.points if p.flags]
    if flagged:
        out += "\nflags raised:"
        for p in flagged:
            for f in p.flags:
                out += f"\n  severity {p.severity:.2f}: {f}"
    else:
        out += "\nno quality flags raised at any severity"
    return out
