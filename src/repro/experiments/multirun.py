"""Replicated campaigns: aggregate indices over repeated experiments.

The paper's dataset is "several 1-hour long experiments" per application;
Table IV reports aggregates.  A single simulated run carries seed noise,
so this module repeats campaigns across seeds and reports mean ± std for
every Table IV cell, plus per-claim pass rates for the shape checks —
the statistically honest version of the headline table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.supervisor import SupervisionPolicy

from repro.errors import ConfigurationError
from repro.exec.backends import SerialExecutor, resolve_executor
from repro.exec.context import campaign_context
from repro.exec.worker import run_shard
from repro.experiments.campaign import (
    Campaign,
    CampaignConfig,
    campaign_shards,
    merge_outcome,
)
from repro.experiments.table4 import Table4, build_table4
from repro.obs.telemetry import Telemetry
from repro.report.compare import ShapeCheck, check_campaign_shape


@dataclass(frozen=True, slots=True)
class CellStats:
    """Mean ± std of one Table IV cell across replications."""

    metric: str
    app: str
    direction: str
    field: str  # "B", "P", "B_prime", "P_prime"
    mean: float
    std: float
    n: int

    def __str__(self) -> str:  # pragma: no cover - display helper
        if math.isnan(self.mean):
            return "-"
        return f"{self.mean:.1f}±{self.std:.1f}"


@dataclass
class ReplicatedCampaign:
    """Aggregated results of N seed-replicated campaigns."""

    base_config: CampaignConfig
    seeds: list[int]
    tables: list[Table4] = field(default_factory=list)
    check_runs: list[list[ShapeCheck]] = field(default_factory=list)
    #: Order-independent merge of shard telemetry across all replications.
    telemetry: Telemetry = field(default_factory=Telemetry)

    # ------------------------------------------------------------ aggregates
    def cell_stats(
        self, metric: str, app: str, direction: str, value: str
    ) -> CellStats:
        """Mean ± std of one cell's field over replications.

        NaN cells (unmeasurable, e.g. BW upload) stay NaN; replications
        must agree on measurability.
        """
        values = [
            getattr(t.cell(metric, app, direction), value) for t in self.tables
        ]
        finite = [v for v in values if not math.isnan(v)]
        if finite and len(finite) != len(values):
            raise ConfigurationError(
                f"cell ({metric},{app},{direction}).{value} measurable in only "
                f"{len(finite)}/{len(values)} replications"
            )
        if not finite:
            return CellStats(metric, app, direction, value, float("nan"), float("nan"), 0)
        return CellStats(
            metric,
            app,
            direction,
            value,
            float(np.mean(finite)),
            float(np.std(finite)),
            len(finite),
        )

    def check_pass_rates(self) -> dict[str, float]:
        """Per-claim pass rate over replications."""
        if not self.check_runs:
            return {}
        rates: dict[str, float] = {}
        for i, check in enumerate(self.check_runs[0]):
            passes = sum(run[i].passed for run in self.check_runs)
            rates[check.name] = passes / len(self.check_runs)
        return rates

    @property
    def n_replications(self) -> int:
        return len(self.tables)


def run_replicated_campaign(
    base_config: CampaignConfig | None = None,
    seeds: list[int] | None = None,
    *,
    with_checks: bool = True,
    workers: int | None = None,
    backend: str | None = None,
    policy: "SupervisionPolicy | None" = None,
) -> ReplicatedCampaign:
    """Run one campaign per seed and aggregate.

    Replication is the natural fan-out axis: every (app × seed-replica)
    pair is an independent shard, so all ``len(apps) × len(seeds)``
    experiments go through one executor together and the per-seed
    campaigns are reassembled afterwards — identical to running the
    replications back to back (the determinism tests assert it).

    Parameters
    ----------
    base_config:
        Template configuration; each replication overrides its seed.
    seeds:
        Replication seeds (default: three).
    with_checks:
        Also evaluate the qualitative shape checks per replication.
    workers / backend / policy:
        Executor selection and supervision — see
        :func:`~repro.experiments.campaign.run_campaign`.
    """
    base = base_config or CampaignConfig()
    seeds = list(seeds) if seeds is not None else [101, 202, 303]
    if not seeds:
        raise ConfigurationError("need at least one replication seed")
    if len(set(seeds)) != len(seeds):
        # A repeated seed is the same replica twice: it would count twice
        # in every mean and shrink every spread.
        raise ConfigurationError(f"replication seeds must be distinct, got {seeds}")
    executor = resolve_executor(backend, workers, policy)
    keep = isinstance(executor, SerialExecutor)

    configs = [replace(base, seed=seed) for seed in seeds]
    specs = []
    for r, cfg in enumerate(configs):
        specs.extend(campaign_shards(cfg, replica=r, keep_result=keep))
    outcomes = executor.map_shards(run_shard, specs)

    out = ReplicatedCampaign(base_config=base, seeds=seeds)
    exec_tel = getattr(executor, "telemetry", None)
    if isinstance(exec_tel, Telemetry):
        out.telemetry.merge(exec_tel)
    for r, cfg in enumerate(configs):
        world, testbed = campaign_context()
        campaign = Campaign(config=cfg, world=world, testbed=testbed)
        for spec, outcome in zip(specs, outcomes):
            if spec.key.replica == r:
                merge_outcome(campaign, outcome)
        out.tables.append(build_table4(campaign))
        out.telemetry.merge(campaign.telemetry)
        if with_checks and set(base.apps) >= {"pplive", "sopcast", "tvants"}:
            out.check_runs.append(check_campaign_shape(campaign))
    return out


def render_replicated_table4(rep: ReplicatedCampaign) -> str:
    """Table IV layout with mean ± std cells."""
    from repro.report.tables import render_table

    rows = []
    metrics = rep.tables[0].metrics
    apps = rep.tables[0].apps
    for metric in metrics:
        for app in apps:
            cells = [
                str(rep.cell_stats(metric, app, direction, value))
                for direction in ("download", "upload")
                for value in ("B_prime", "P_prime", "B", "P")
            ]
            rows.append([metric, app] + cells)
    return render_table(
        ["Net", "App",
         "B'D%", "P'D%", "BD%", "PD%",
         "B'U%", "P'U%", "BU%", "PU%"],
        rows,
        title=(
            f"TABLE IV over {rep.n_replications} replications "
            f"(mean ± std, seeds {rep.seeds})"
        ),
    )
