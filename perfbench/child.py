"""One campaign in a fresh process: set-up, the timed campaign, its outputs.

``run.py`` starts this script once per measured campaign, so every
campaign gets its own ``ru_maxrss`` and pays its own set-up.  It writes
one JSON record to ``--out``: timings, digests of every layer's output,
the simulated stream-health and accuracy figures and, when traced, the
spans and the per-layer metrics derived from them.

Everything here reads the program's public results; nothing is recorded
inside ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import time

from tracing import NullTracer, Tracer, peak_rss_mb, self_times, traced_layers
from workloads import campaign_seed, get_workload

#: Handler kinds the engine reports in ``engine_stats["dispatch_by_kind"]``.
DISPATCH_KINDS = (
    "chunk_arrival",
    "demand_rebalance",
    "discovery",
    "partner_refresh",
    "remote_pull",
    "tick",
    "tick_cohort",
)
#: Layers whose self time the traced run reports.  Topology is built in
#: set-up only, where ``topology.build_s`` already covers it.
SELF_TIME_LAYERS = (
    "experiments", "exec", "population", "streaming", "trace", "heuristics", "core", "report",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_digest(report) -> str:
    """Fingerprint of an :class:`AwarenessReport`'s indices and flags."""
    return _sha(
        repr(
            (
                report.metrics,
                report.self_bias_contributors,
                report.self_bias_all_peers,
                report.flags,
            )
        )
    )


def delivery_ratios(run, duration_s: float):
    """Per probe: video bytes received ÷ bytes the channel rate delivers."""
    import numpy as np

    from repro.trace.records import PacketKind

    result = run.result
    probes = np.sort(result.hosts.probe_ips)
    video = result.transfers[result.transfers["kind"] == int(PacketKind.VIDEO)]
    idx = np.searchsorted(probes, video["dst"])
    idx[idx == len(probes)] = 0
    to_probe = probes[idx] == video["dst"]
    received = np.bincount(
        idx[to_probe], weights=video["bytes"][to_probe].astype(np.float64),
        minlength=len(probes),
    )
    return received / (result.profile.video.rate_bps / 8.0 * duration_s)


def host_probe_s() -> float:
    """Seconds a fixed, benchmark-owned mix of interpreter and numpy work takes.

    The host's speed drifts by tens of percent over minutes.  Timing this
    kernel in the campaign's own process, just before the campaign, lets
    ``run.py`` rescale the campaign's times to one reference speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(3):
        table = {}
        for i in range(100_000):
            table[i * 7919 % 100_003] = i
        sorted(table.items())
        values = rng.random(400_000)
        np.sort(values)
        np.unique((values * 1000).astype(np.int64))
    return time.perf_counter() - start


def render_report(campaign, tracer) -> str:
    """Tables II-IV and Figure 2, built and rendered as the paper reports them."""
    from repro.experiments.figure2 import build_figure2
    from repro.experiments.table2 import build_table2
    from repro.experiments.table3 import build_table3
    from repro.experiments.table4 import build_table4
    from repro.report.figures import render_figure2
    from repro.report.tables import render_table2, render_table3, render_table4

    parts = []
    for build, render in (
        (build_table2, render_table2),
        (build_table3, render_table3),
        (build_table4, render_table4),
        (build_figure2, render_figure2),
    ):
        table = tracer.wrap(f"report.{build.__name__}", build)(campaign)
        parts.append(tracer.wrap(f"report.{render.__name__}", render)(table))
    return "\n".join(parts)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer time and memory from one campaign's spans."""
    own = self_times(spans)

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def rss_step(name: str) -> float:
        return sum(s["rss_end_mb"] - s["rss_start_mb"] for s in spans if s["name"] == name)

    metrics = {
        "topology.build_s": total("topology.world", "topology.testbed"),
        "exec.context_s": total("exec.context"),
        "population.generate_s": total("population.generate"),
        "streaming.init_s": total("streaming.init"),
        "streaming.init_rss_step_mb": rss_step("streaming.init"),
        "streaming.run_s": total("streaming.run"),
        "streaming.run_rss_step_mb": rss_step("streaming.run"),
        "trace.flow_table_s": total("trace.flow_table"),
        "trace.flow_table_rss_step_mb": rss_step("trace.flow_table"),
        "trace.load_s": total("trace.load"),
        "trace.save_s": total("trace.save"),
        "heuristics.registry_s": total("heuristics.registry"),
        "core.analyze_s": total("core.analyze"),
        "report.tables_s": sum(
            s["end"] - s["start"] for s in spans if s["name"].startswith("report.")
        ),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, own) if s["name"].split(".")[0] == layer
        )
    return metrics


def campaign_counts(campaign) -> dict[str, float]:
    """Engine and trace counts; they repeat exactly for a fixed seed."""
    counts = {"streaming.events": 0, "streaming.transfer_records": 0,
              "streaming.signaling_intervals": 0, "trace.records_in": 0, "trace.flows": 0}
    counts.update({f"streaming.dispatch.{kind}": 0 for kind in DISPATCH_KINDS})
    for app, run in campaign.runs.items():
        stats = run.result.extras.get("engine_stats") or {}
        counts["streaming.events"] += stats.get("events", 0)
        counts["streaming.transfer_records"] += stats.get("transfer_records", 0)
        counts["streaming.signaling_intervals"] += stats.get("signaling_intervals", 0)
        for kind, n in (stats.get("dispatch_by_kind") or {}).items():
            if kind in DISPATCH_KINDS:
                counts[f"streaming.dispatch.{kind}"] += n
        tel = campaign.shard_telemetry[app]
        counts["trace.records_in"] += tel.counter("trace/transfer_records") + tel.counter(
            "trace/signaling_records"
        )
        counts["trace.flows"] += len(run.flows)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkpoint-dir")
    parser.add_argument("--prepare", action="store_true",
                        help="write the checkpoints a resume workload starts from")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    workload = get_workload(args.workload, smoke=args.smoke)
    tracer = Tracer() if args.trace else NullTracer()
    with traced_layers(tracer) if args.trace else contextlib.nullcontext():
        from repro.exec.context import shard_context
        from repro.experiments.campaign import CampaignConfig, run_campaign

        with tracer.span("bench.setup"):
            shard_context()  # builds the pristine world and testbed
        cfg = CampaignConfig(
            apps=workload.apps,
            duration_s=workload.duration_s,
            seed=campaign_seed(args.seed),
            scale=workload.scale,
            checkpoint_dir=args.checkpoint_dir,
        )
        setup_s = time.time() - args.spawned_at
        probe_s = host_probe_s()
        render = workload.renders_tables and not args.prepare
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span("bench.timed"):
            campaign = tracer.wrap("experiments.run_campaign", run_campaign)(
                cfg, backend="serial"
            )
            report_text = render_report(campaign, tracer) if render else None
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss_mb(),
        "apps": list(workload.apps),
        "ledger": {app: [str(f) for f in campaign.failures_for(app)]
                   for app in workload.apps},
        "failed_apps": campaign.failed_apps,
        "from_checkpoint": any(run.from_checkpoint for run in campaign.runs.values()),
        "digests": {},
        "delivery_ratios": [],
    }
    from repro.trace.store import trace_digest

    for app, run in campaign.runs.items():
        record["digests"][f"{app}/transfers"] = trace_digest(
            run.result.transfers, run.result.signaling
        )
        record["digests"][f"{app}/flows"] = trace_digest(run.flows.flows)
        record["digests"][f"{app}/analysis"] = analysis_digest(run.report)
        record["delivery_ratios"] += delivery_ratios(run, cfg.duration_s).tolist()
    counts = campaign_counts(campaign)
    if render:
        from repro.report.compare import check_campaign_shape

        record["digests"]["report"] = _sha(report_text)
        counts["report.shape_checks_passed"] = sum(
            c.passed for c in check_campaign_shape(campaign)
        )
    else:
        counts["report.shape_checks_passed"] = 0
    record["counts"] = counts
    if args.trace:
        record["spans"] = tracer.spans
        record["layers"] = layer_metrics(tracer.spans)
        events = counts["streaming.events"]
        record["layers"]["streaming.us_per_event"] = (
            record["layers"]["streaming.run_s"] * 1e6 / events if events else 0.0
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
