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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.supervisor import SupervisionPolicy

from repro.core.framework import AwarenessAnalyzer
from repro.core.quality import QualityFlag
from repro.errors import AnalysisError
from repro.exec.backends import resolve_executor
from repro.exec.context import analysis_registry, shard_context
from repro.faults.plan import ImpairmentPlan, simulate_impaired
from repro.obs.telemetry import Telemetry
from repro.streaming.profiles import get_profile
from repro.streaming.schedulers import default_scheduler, get_scheduler
from repro.trace.flows import build_flow_table

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
    """One severity point of a sweep, as a picklable unit of work."""

    app: str
    severity: float
    duration_s: float
    seed: int
    fault_seed: int
    scale: float
    scheduler: str = "mesh-pull"


def run_severity_shard(shard: SeverityShard) -> RobustnessPoint:
    """Measure one severity point on a pristine copy of the world.

    Every shard simulates on its own fresh world copy under the same
    engine seed, so the only thing varying between points is the
    impairment — the drift in the indices is attributable to damage, not
    to seed noise or to allocator state left behind by earlier points.
    """
    tel = Telemetry()
    with tel.timer("severity_shard"):
        world, testbed = shard_context()
        profile = get_profile(shard.app)
        if shard.scale != 1.0:
            profile = profile.scaled(shard.scale)
        if shard.scheduler != profile.scheduler:
            profile = replace(profile, scheduler=shard.scheduler)
        plan = ImpairmentPlan.preset(
            shard.severity, seed=shard.fault_seed, duration_s=shard.duration_s
        )
        with tel.timer("simulate"):
            result, log = simulate_impaired(
                profile,
                plan,
                duration_s=shard.duration_s,
                seed=shard.seed,
                world=world,
                testbed=testbed,
            )
        with tel.timer("analyze"):
            flows = build_flow_table(
                result.transfers,
                result.signaling,
                result.hosts,
                world.paths,
                telemetry=tel,
            )
            registry = analysis_registry(result.hosts, world)
            analysis = AwarenessAnalyzer(registry).analyze(flows, telemetry=tel)
    bw, as_np, hop_np = _headline(analysis)
    return RobustnessPoint(
        severity=shard.severity,
        bw_byte_pct=bw,
        as_byte_pct_nonprobe=as_np,
        hop_byte_pct_nonprobe=hop_np,
        records=len(result.transfers),
        dropped_fraction=log.dropped_fraction,
        bad_time_fraction=log.bad_time_fraction,
        flags=tuple(analysis.flags),
        telemetry=tel,
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

    Severity points are independent shards (each on its own pristine
    world copy, same engine seed) and fan out over the selected executor
    backend; the report lists them in the requested severity order
    regardless of completion order.  On the process pool the points run
    with deadlines and retries (serially, a supervision ``policy`` adds
    inline retries); a point that exhausts every attempt raises
    :class:`~repro.errors.ExecutorError` (severity sweeps
    have no degraded-completion mode — a hole in the curve would be
    misleading).
    """
    executor = resolve_executor(backend, workers, policy)
    policy_name = scheduler if scheduler is not None else default_scheduler()
    get_scheduler(policy_name)  # unknown names raise before any work
    shards = [
        SeverityShard(
            app=app,
            severity=severity,
            duration_s=duration_s,
            seed=seed,
            fault_seed=fault_seed,
            scale=scale,
            scheduler=policy_name,
        )
        for severity in severities
    ]
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
