"""repro — reproduction of *Network Awareness of P2P Live Streaming
Applications* (Ciullo et al., IEEE IPDPS 2009).

The package has three layers (see DESIGN.md):

1. **Substrates** — a synthetic Internet (:mod:`repro.topology`), the
   Table I probe testbed, a swarm population (:mod:`repro.population`)
   and a probe-centric P2P-TV simulator (:mod:`repro.streaming`) standing
   in for the defunct proprietary applications;
2. **Measurement** — probe-side traces (:mod:`repro.trace`) and black-box
   inference heuristics (:mod:`repro.heuristics`);
3. **The paper's framework** — preferential partitions and the P/B
   preference indices with probe-bias control (:mod:`repro.core`), plus
   experiment drivers regenerating every table and figure
   (:mod:`repro.experiments`, :mod:`repro.report`).

Quickstart::

    from repro import run_experiment, analyze_experiment

    result = run_experiment("tvants", duration_s=120, seed=1)
    report = analyze_experiment(result)
    print(report["BW"].download.B)   # byte-wise bandwidth preference
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.config import RngBundle
from repro.core import (
    AwarenessAnalyzer,
    AwarenessReport,
    Direction,
    default_partitions,
)
from repro.heuristics import IpRegistry
from repro.streaming import (
    AppProfile,
    EngineConfig,
    PROFILES,
    SimulationResult,
    get_profile,
    simulate,
)
from repro.trace import FlowTable, TraceBundle, build_flow_table

__all__ = [
    "__version__",
    "RngBundle",
    "AwarenessAnalyzer",
    "AwarenessReport",
    "Direction",
    "default_partitions",
    "IpRegistry",
    "AppProfile",
    "EngineConfig",
    "PROFILES",
    "SimulationResult",
    "get_profile",
    "simulate",
    "FlowTable",
    "TraceBundle",
    "build_flow_table",
    "run_experiment",
    "analyze_experiment",
    "flow_table_of",
]


def run_experiment(
    profile_name: str,
    *,
    duration_s: float = 600.0,
    seed: int = 7,
    scheduler: str | None = None,
    **kw,
):
    """Simulate one application for one capture window (convenience).

    ``scheduler`` overrides the profile's chunk-scheduling policy (one of
    :data:`repro.streaming.schedulers.SCHEDULER_NAMES`).
    """
    profile = get_profile(profile_name)
    if scheduler is not None and scheduler != profile.scheduler:
        from dataclasses import replace

        profile = replace(profile, scheduler=scheduler)
    return simulate(profile, duration_s=duration_s, seed=seed, **kw)


def flow_table_of(result: SimulationResult) -> FlowTable:
    """Aggregate a simulation result into its probe-side flow table."""
    return build_flow_table(
        result.transfers, result.signaling, result.hosts, result.world.paths
    )


def analyze_experiment(result: SimulationResult, **analyzer_kw) -> AwarenessReport:
    """Apply the paper's methodology to a simulation result."""
    table = flow_table_of(result)
    registry = IpRegistry.from_world(result.world)
    analyzer = AwarenessAnalyzer(registry, **analyzer_kw)
    return analyzer.analyze(table)
