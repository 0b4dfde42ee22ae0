"""Benchmark: sharded campaign execution, serial vs. process pool.

Measures the same three-application campaign through both executor
backends and reports the speedup as ``extra_info``.  The shards are
embarrassingly parallel (one app per shard), so on a machine with at
least as many cores as apps the process backend should approach the
slowest single app's runtime — empirically >1.5x over serial at 4
workers on 4+ physical cores.  On starved runners (CI containers with
one core) the pool degrades gracefully to roughly serial speed plus
fork/pickle overhead; the parity of the *results* is asserted here and
the speedup is recorded rather than gated.
"""

import multiprocessing as mp
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.exec import campaign_context, resolve_executor, run_shard
from repro.experiments.campaign import CampaignConfig, campaign_shards, run_campaign
from repro.streaming.schedulers import SCHEDULER_NAMES
from repro.experiments.table4 import build_table4
from repro.report.tables import render_table4

#: Tolerated supervised-over-raw wall-time overhead on a clean campaign.
#: Supervision adds an event loop, deadlines and telemetry around the
#: same worker function; with no faults to handle it must stay cheap.
MAX_SUPERVISION_OVERHEAD = 0.05

#: Paired rounds of the overhead check; each round runs both pools, the
#: order alternating, and the medians are compared.
OVERHEAD_ROUNDS = 10

#: Shorter than the shared bench campaign: this file runs the campaign
#: several times (rounds x backends), not once per session.
PARALLEL_BENCH_CONFIG = CampaignConfig(duration_s=60.0, seed=42, scale=0.5)

#: Single-app campaign for the per-policy entries below — one per
#: scheduler, so kept deliberately small.
SCHEDULER_BENCH_CONFIG = dict(
    apps=("tvants",), duration_s=30.0, seed=42, scale=0.5
)


def _run(backend: str, workers: int | None = None):
    return run_campaign(PARALLEL_BENCH_CONFIG, backend=backend, workers=workers)


def _record_telemetry(benchmark, campaign) -> None:
    """Surface the campaign's own stage timers as benchmark extra_info.

    The same :class:`~repro.obs.telemetry.Telemetry` the run manifest
    reports — no ad-hoc clocks around the benchmark body.
    """
    tel = campaign.telemetry
    benchmark.extra_info["stage_wall_s"] = {
        path: round(stats.wall_s, 4) for path, stats in sorted(tel.timers.items())
    }
    benchmark.extra_info["engine_events"] = tel.counter("engine/events")
    benchmark.extra_info["peak_queue_depth"] = tel.peak("engine/peak_queue_depth")


def test_campaign_serial(benchmark):
    campaign = benchmark.pedantic(_run, args=("serial",), rounds=2, iterations=1)
    assert campaign.ok
    benchmark.extra_info["backend"] = "serial"
    _record_telemetry(benchmark, campaign)


def test_campaign_process_pool(benchmark):
    campaign = benchmark.pedantic(
        _run, args=("process", 4), rounds=2, iterations=1
    )
    assert campaign.ok
    benchmark.extra_info["backend"] = "process"
    benchmark.extra_info["workers"] = 4
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    _record_telemetry(benchmark, campaign)

    # The speedup claim is only meaningful when results are identical:
    # assert parity against a serial run before reporting numbers.
    serial = _run("serial")
    assert render_table4(build_table4(campaign)) == render_table4(
        build_table4(serial)
    )
    for app in serial.runs:
        assert np.array_equal(
            serial[app].result.transfers, campaign[app].result.transfers
        )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_NAMES))
def test_campaign_scheduler(benchmark, scheduler):
    """Campaign wall time under each chunk-scheduling policy.

    Recorded, not gated: these entries land in the summary artifact for
    trend-watching but are absent from the committed baseline, so the
    regression gate never compares the alternative policies against
    mesh-pull throughput.
    """
    config = CampaignConfig(scheduler=scheduler, **SCHEDULER_BENCH_CONFIG)

    def run():
        return run_campaign(config, backend="serial")

    campaign = benchmark.pedantic(run, rounds=2, iterations=1)
    assert campaign.ok
    assert campaign["tvants"].result.profile.scheduler == scheduler
    benchmark.extra_info["backend"] = "serial"
    benchmark.extra_info["scheduler"] = scheduler
    _record_telemetry(benchmark, campaign)


def _raw_pool_map(specs, workers: int) -> list:
    """Reference for the supervision tax: a bare process-pool map.

    The same shard function over the same specs on fork-started workers,
    as the supervised pool uses — but no deadlines, retries or payload
    validation.  Lives here only; the library has one process pool.
    """
    with ProcessPoolExecutor(
        max_workers=min(workers, len(specs)), mp_context=mp.get_context("fork")
    ) as pool:
        return list(pool.map(run_shard, specs))


def test_campaign_supervised_overhead(benchmark):
    """Supervision tax on a clean campaign: supervised pool vs raw pool.

    With no faults injected, the supervised runtime's extra machinery
    (hand-rolled pool, deadline bookkeeping, digest validation) must cost
    less than :data:`MAX_SUPERVISION_OVERHEAD` of a bare process-pool
    map's wall time — resilience is not allowed to tax the happy path.
    Both sides map :func:`run_shard` over the same campaign shards; each
    round runs both, alternating which goes first, and the check
    compares the medians of :data:`OVERHEAD_ROUNDS` rounds.
    """
    workers = 4
    campaign_context()  # build the shared world once; both pools fork it
    specs = campaign_shards(PARALLEL_BENCH_CONFIG)
    executor = resolve_executor("process", workers)
    sides = {
        "raw": lambda: _raw_pool_map(specs, workers),
        "supervised": lambda: executor.map_shards(run_shard, specs),
    }
    walls: dict[str, list[float]] = {side: [] for side in sides}
    outcomes: dict[str, list] = {}

    def paired_round():
        first_raw = len(walls["raw"]) % 2 == 0
        for side in ("raw", "supervised") if first_raw else ("supervised", "raw"):
            start = time.perf_counter()
            outcomes[side] = sides[side]()
            walls[side].append(time.perf_counter() - start)

    benchmark.pedantic(paired_round, rounds=OVERHEAD_ROUNDS, iterations=1)
    # Clean run: every shard ok, no retries, no degradation marks.
    assert all(o.ok for o in outcomes["supervised"])
    assert {r["outcome"] for r in executor.records} == {"ok"}
    assert executor.telemetry.counter("exec/retries") == 0

    raw_median = statistics.median(walls["raw"])
    supervised_median = statistics.median(walls["supervised"])
    overhead = supervised_median / raw_median - 1.0
    benchmark.extra_info["backend"] = "process"
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["rounds"] = len(walls["raw"])
    benchmark.extra_info["raw_pool_wall_s_median"] = round(raw_median, 4)
    benchmark.extra_info["supervised_wall_s_median"] = round(supervised_median, 4)
    benchmark.extra_info["supervision_overhead"] = round(overhead, 4)
    assert overhead < MAX_SUPERVISION_OVERHEAD, (
        f"supervised pool median is {overhead:.1%} slower than a raw process "
        f"pool on a clean campaign (tolerated {MAX_SUPERVISION_OVERHEAD:.0%})"
    )

    # Supervision must also not *change* anything on the happy path.
    for raw, supervised in zip(outcomes["raw"], outcomes["supervised"]):
        assert raw.key == supervised.key
        assert np.array_equal(raw.bundle.transfers, supervised.bundle.transfers)
