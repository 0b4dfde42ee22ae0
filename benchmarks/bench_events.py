"""Performance benchmarks: the event-queue schedulers in isolation.

Schedule/dispatch throughput of the calendar queue (:class:`EventQueue`)
against the binary-heap reference (:class:`HeapEventQueue`) it replaced,
on a workload shaped like the engine's: a steady population of periodic
ticks interleaved with short-horizon one-shot events (chunk arrivals,
remote pulls).  The summary in ``BENCH_engine.json`` tracks both, so the
calendar queue's advantage — and any future regression of it — is
visible without running the full engine.

The per-policy engine benchmark below records event throughput under
each chunk scheduler.  Those entries are *recorded, not gated*: the CI
regression gate compares only benchmarks present in the committed
``BENCH_engine.json``, so the alternative policies' numbers accumulate
in the summary artifact without being held to the mesh-pull baseline.
"""

from dataclasses import replace

import pytest

from repro.streaming.engine import EngineConfig, simulate
from repro.streaming.events import EventQueue, HeapEventQueue
from repro.streaming.profiles import get_profile
from repro.streaming.schedulers import SCHEDULER_NAMES

#: Workload shape, roughly the tvants engine mix: ~100 periodic sources
#: ticking at 0.3 s, each tick scheduling ~1.5 one-shot follow-ups that
#: fire within a second.
N_SOURCES = 100
TICK_INTERVAL_S = 0.3
HORIZON_S = 120.0


def _drive(queue) -> int:
    """Run the synthetic tick/follow-up workload to the horizon."""
    fired = [0, 0]

    def on_arrival(i: int) -> None:
        fired[1] += 1

    def on_tick(i: int) -> None:
        fired[0] += 1
        t = queue.now
        # Deterministic pseudo-jitter (no RNG in the inner loop): two
        # follow-ups on most ticks, one on every third.
        queue.schedule(t + 0.05 + 0.001 * (i % 7), on_arrival, i)
        if i % 3:
            queue.schedule(t + 0.4 + 0.002 * (i % 11), on_arrival, i)
        queue.schedule(t + TICK_INTERVAL_S, on_tick, i)

    for i in range(N_SOURCES):
        queue.schedule(0.001 * i, on_tick, i)
    events = queue.run_until(HORIZON_S)
    assert events == fired[0] + fired[1]
    return events


@pytest.mark.parametrize(
    "impl", [EventQueue, HeapEventQueue], ids=["calendar", "heap"]
)
def test_event_queue_throughput(benchmark, impl):
    """Events dispatched per second through each scheduler."""

    def run():
        return _drive(impl())

    events = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["simulated_s"] = HORIZON_S


#: Shared workload for the per-policy engine benchmark: small enough to
#: afford one run per scheduler, large enough that the policies' extra
#: work (rarest's counting scan, push's forwarding) actually shows.
SCHEDULER_BENCH_DURATION_S = 30.0
SCHEDULER_BENCH_SCALE = 0.5


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_NAMES))
def test_engine_scheduler_throughput(benchmark, scheduler):
    """Engine event throughput under each chunk-scheduling policy.

    Recorded for trend-watching only — new policies are not gated
    against the mesh-pull baseline (see module docstring).
    """
    profile = replace(
        get_profile("tvants").scaled(SCHEDULER_BENCH_SCALE), scheduler=scheduler
    )
    config = EngineConfig(duration_s=SCHEDULER_BENCH_DURATION_S, seed=42)

    def run():
        return simulate(profile, engine_config=config)

    result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    benchmark.extra_info["scheduler"] = scheduler
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["transfers"] = len(result.transfers)
    benchmark.extra_info["simulated_s"] = SCHEDULER_BENCH_DURATION_S


#: Every paper application at full profile scale (pplive's 4000-peer
#: swarm is the largest population benchmarked here), at the NAPA-WINE
#: partner widths where the engine takes its narrow-set scan (see
#: ``docs/engine-internals.md``).
ENGINE_BENCH_DURATION_S = 30.0
ENGINE_BENCH_APPS = ("pplive", "sopcast", "tvants")


@pytest.mark.parametrize("app", ENGINE_BENCH_APPS)
def test_engine_profile_throughput(benchmark, app):
    """Engine event throughput per application at profile scale."""
    profile = get_profile(app)
    config = EngineConfig(duration_s=ENGINE_BENCH_DURATION_S, seed=42)

    def run():
        return simulate(profile, engine_config=config)

    result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["transfers"] = len(result.transfers)
    benchmark.extra_info["simulated_s"] = ENGINE_BENCH_DURATION_S
