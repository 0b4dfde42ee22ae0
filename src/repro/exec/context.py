"""Per-process cache of the shared experiment substrate.

Building the synthetic Internet and deploying the Table I testbed on it is
pure in the :class:`WorldConfig` — every process that replays the
construction gets the identical object graph.  This module builds that
*pristine* pair once per process and serves:

* :func:`shard_context` — a **fresh copy** of the world/testbed per shard
  (simulation mutates the world's subnet allocator while placing the
  remote swarm, so shards must not share one mutable world — that would
  make results depend on execution order, the one thing a parallel
  executor cannot promise);
* :func:`campaign_context` — a fresh copy for the returned
  :class:`~repro.experiments.campaign.Campaign` itself;
* :func:`analysis_registry` — the address registry one run's flows are
  analysed with.

The copy is ~15× cheaper than construction (measured: ≈5 ms vs ≈75 ms),
so a worker that executes many shards pays the build cost once.
"""

from __future__ import annotations

import copy

from repro.heuristics.registry import IpRegistry
from repro.trace.hosts import HostTable
from repro.topology.testbed import Testbed, build_napa_wine_testbed
from repro.topology.world import World, WorldConfig

#: Pristine (never simulated-on) substrate per world configuration,
#: filled lazily per process.  Worker processes inherit an empty cache on
#: spawn and a warm one on fork; either way entries are deterministic, so
#: sharing is safe.
_PRISTINE: dict[WorldConfig, tuple[World, Testbed]] = {}


def _pristine(config: WorldConfig | None) -> tuple[World, Testbed]:
    cfg = config or WorldConfig()
    cached = _PRISTINE.get(cfg)
    if cached is None:
        world = World(cfg)
        cached = (world, build_napa_wine_testbed(world))
        _PRISTINE[cfg] = cached
    return cached


def shard_context(config: WorldConfig | None = None) -> tuple[World, Testbed]:
    """A private world/testbed copy for one shard."""
    return copy.deepcopy(_pristine(config))


def campaign_context(config: WorldConfig | None = None) -> tuple[World, Testbed]:
    """A private world/testbed copy for a :class:`Campaign` object.

    Kept separate from the pristine cache entry so downstream consumers
    (e.g. what-if simulations on ``campaign.world``) cannot contaminate
    later campaigns.
    """
    return shard_context(config)


def analysis_registry(hosts: HostTable, world: World) -> IpRegistry:
    """The address registry to resolve one run's flows against.

    Built from the run's own host table (the GeoIP-style exact-address
    DB) rather than the world's prefix plan: swarm placement may attach
    overflow prefixes a pristine world has never seen (paper-scale
    populations exhaust per-AS /16s), and a checkpoint-resumed shard
    never replays that allocation at all.  Same AS/CC ground truth
    either way.
    """
    return IpRegistry.from_hosts(
        hosts, subnet_prefixlen=world.config.subnet_prefixlen
    )


def clear_context_cache() -> None:
    """Drop the pristine cache (tests use this to measure cold builds)."""
    _PRISTINE.clear()
