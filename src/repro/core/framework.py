"""The analyzer: orchestrating views, partitions and preference indices.

:class:`AwarenessAnalyzer` turns one experiment's flow table into a
Table-IV-shaped :class:`AwarenessReport`: for every network property and
both directions, the preference indices over all contributors (P, B) and
over contributors excluding the probes (P′, B′).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AnalysisError, ReproError
from repro.heuristics.contributors import ContributorCriteria
from repro.heuristics.registry import IpRegistry
from repro.core.bias import exclude_probe_peers, self_bias, SelfBias
from repro.core.partitions import PreferentialPartition, default_partitions
from repro.core.preference import PreferenceCounts, preference_counts
from repro.core.quality import QualityFlag
from repro.core.views import Direction, ViewPair, build_views
from repro.trace.flows import FlowTable


@dataclass(frozen=True, slots=True)
class DirectionScores:
    """P/B over all contributors and over non-probe contributors."""

    all_peers: PreferenceCounts | None
    non_probe: PreferenceCounts | None

    @property
    def P(self) -> float:  # noqa: N802 - paper notation
        return self.all_peers.peer_percent if self.all_peers else float("nan")

    @property
    def B(self) -> float:  # noqa: N802
        return self.all_peers.byte_percent if self.all_peers else float("nan")

    @property
    def P_prime(self) -> float:  # noqa: N802
        return self.non_probe.peer_percent if self.non_probe else float("nan")

    @property
    def B_prime(self) -> float:  # noqa: N802
        return self.non_probe.byte_percent if self.non_probe else float("nan")


@dataclass(frozen=True, slots=True)
class MetricScores:
    """One Table IV row group: one property, both directions."""

    metric: str
    download: DirectionScores
    upload: DirectionScores

    def get(self, direction: Direction) -> DirectionScores:
        return self.download if direction is Direction.DOWNLOAD else self.upload


@dataclass
class AwarenessReport:
    """Full analysis output for one experiment.

    ``flags`` carries degraded-mode annotations (see
    :mod:`repro.core.quality`): an empty list means every index was
    computed from healthy input; a flagged report is still usable, but
    the flagged cells should be read as low-confidence.
    """

    metrics: dict[str, MetricScores]
    views: ViewPair
    self_bias_contributors: dict[str, SelfBias] = field(default_factory=dict)
    self_bias_all_peers: dict[str, SelfBias] = field(default_factory=dict)
    flags: list[QualityFlag] = field(default_factory=list)

    def __getitem__(self, metric: str) -> MetricScores:
        try:
            return self.metrics[metric]
        except KeyError as exc:
            raise AnalysisError(
                f"metric {metric!r} not analysed; have {sorted(self.metrics)}"
            ) from exc

    @property
    def metric_names(self) -> list[str]:
        return list(self.metrics)

    @property
    def degraded(self) -> bool:
        """True when any index rests on degenerate input."""
        return bool(self.flags)

    def flags_for(self, metric: str | None = None) -> list[QualityFlag]:
        """Flags scoped to one metric (report-wide flags included)."""
        return [f for f in self.flags if f.metric is None or f.metric == metric]


class AwarenessAnalyzer:
    """Applies the paper's methodology to one experiment's traffic."""

    def __init__(
        self,
        registry: IpRegistry,
        partitions: list[PreferentialPartition] | None = None,
        criteria: ContributorCriteria | None = None,
        *,
        min_contributors: int = 3,
    ) -> None:
        """
        Parameters
        ----------
        registry:
            Address → AS/CC resolver (the whois/GeoIP stand-in).
        partitions:
            Properties to score; defaults to the paper's five (BW, AS, CC,
            NET, HOP).  Pass your own list to extend the framework with
            new properties — see ``examples/custom_metric.py``.
        criteria:
            Contributor-identification thresholds.
        min_contributors:
            Minimum distinct contributors per direction below which the
            report is flagged ``few-contributors`` (the degraded-trace
            analogue of the paper's P′/B′ bias control; the indices are
            still computed, just marked low-confidence).
        """
        self.registry = registry
        self.partitions = (
            partitions if partitions is not None else default_partitions(registry)
        )
        if not self.partitions:
            raise AnalysisError("need at least one partition")
        names = [p.name for p in self.partitions]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate partition names: {names}")
        self.criteria = criteria
        if min_contributors < 1:
            raise AnalysisError("min_contributors must be at least 1")
        self.min_contributors = min_contributors

    def analyze(self, table: FlowTable, *, telemetry=None) -> AwarenessReport:
        """Run the full methodology on one experiment.

        Degenerate inputs — an empty contributor set, a partition that
        cannot be evaluated, a single-class split — degrade gracefully:
        affected cells come back NaN and the report carries
        :class:`~repro.core.quality.QualityFlag` entries describing why,
        instead of the analysis raising.

        ``telemetry`` (an optional
        :class:`~repro.obs.telemetry.Telemetry`) collects contributor
        tallies from the view builder plus per-partition indicator sums
        (``analysis/<metric>/<direction>_preferred``) — pure accounting;
        the report is identical with or without it.

        The contributor views come from :func:`~repro.core.views.
        build_views`, so the report's ``views`` are the table's shared
        contributor views that the report tables read afterwards.
        """
        probe_ips = np.asarray(table.probe_ips, dtype=np.uint32)
        views = build_views(
            table, self.criteria, contributors_only=True, telemetry=telemetry
        )
        all_views = build_views(table, self.criteria, contributors_only=False)
        flags: list[QualityFlag] = []

        for direction in Direction:
            view = views.get(direction)
            distinct = view.distinct_peers()
            if distinct == 0:
                flags.append(
                    QualityFlag(
                        "no-contributors",
                        "no contributing peers in this direction",
                        direction=direction.value,
                    )
                )
            elif distinct < self.min_contributors:
                flags.append(
                    QualityFlag(
                        "few-contributors",
                        f"only {distinct} distinct contributors "
                        f"(threshold {self.min_contributors})",
                        direction=direction.value,
                    )
                )
            if len(view) and not len(exclude_probe_peers(view, probe_ips)):
                flags.append(
                    QualityFlag(
                        "no-nonprobe-contributors",
                        "every contributor is a probe; P'/B' undefined",
                        direction=direction.value,
                    )
                )

        metrics: dict[str, MetricScores] = {}
        for partition in self.partitions:
            per_direction: dict[Direction, DirectionScores] = {}
            for direction in Direction:
                view = views.get(direction)
                if not partition.supports(direction):
                    per_direction[direction] = DirectionScores(None, None)
                    continue
                try:
                    indicator = np.asarray(partition.indicator(view), dtype=bool)
                except ReproError as exc:
                    flags.append(
                        QualityFlag(
                            "metric-error",
                            str(exc),
                            metric=partition.name,
                            direction=direction.value,
                        )
                    )
                    per_direction[direction] = DirectionScores(None, None)
                    continue
                if len(view) and (indicator.all() or not indicator.any()):
                    cls = "preferred" if indicator.all() else "non-preferred"
                    flags.append(
                        QualityFlag(
                            "single-class",
                            f"every pair fell in the {cls} class",
                            metric=partition.name,
                            direction=direction.value,
                        )
                    )
                if telemetry is not None:
                    telemetry.count(
                        f"analysis/{partition.name}/{direction.value}_pairs",
                        int(indicator.size),
                    )
                    telemetry.count(
                        f"analysis/{partition.name}/{direction.value}_preferred",
                        int(indicator.sum()),
                    )
                full = preference_counts(view, indicator)
                pruned_view = exclude_probe_peers(view, probe_ips)
                keep = ~np.isin(view.peer_ip, probe_ips)
                pruned = preference_counts(pruned_view, indicator[keep])
                per_direction[direction] = DirectionScores(full, pruned)
            metrics[partition.name] = MetricScores(
                metric=partition.name,
                download=per_direction[Direction.DOWNLOAD],
                upload=per_direction[Direction.UPLOAD],
            )

        report = AwarenessReport(metrics=metrics, views=views, flags=flags)
        for direction in Direction:
            key = direction.value
            report.self_bias_contributors[key] = self_bias(
                views.get(direction), probe_ips
            )
            report.self_bias_all_peers[key] = self_bias(
                all_views.get(direction), probe_ips
            )
        return report
