"""Regenerate the golden engine trace hashes.

``engine_trace_hashes.json`` pins the byte-exact output of
:func:`repro.streaming.engine.simulate` (transfers, signaling intervals,
host table) per application at one fixed seed.  Any change to the engine,
topology, population or transport layers that shifts a single byte — an
extra RNG draw, a reordered set iteration, a float computed differently —
fails the determinism test, by design.

**Never regenerate these hashes in the same PR as an engine refactor**:
the whole point is that the fixture is produced by the code *before* the
refactor, so passing the test proves the refactor is byte-identical.  Only
regenerate when the behaviour change is intentional:

    PYTHONPATH=src python tests/golden/regen_engine.py

``object_reference_hashes.json`` (``--object-reference``) holds the
digests of the cases the engine was once checked against a second,
object-based engine core with: the golden per-app and per-scheduler
runs (with their dispatch/schedule counters), a seeded randomized
app × scheduler sweep, the napa-scale feature set mid-scale (alias
discovery under reseeds, both tick schedules, eager and lazy peer
state), the mega-scale profile resized to 2500 peers and the lazy
peer-state counters.  The
fixture was recorded by that retired core, so each case keeps an
independent reference; the same never-in-an-engine-PR rule applies to
it (regenerating now records the current engine's output).
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
HASHES_PATH = GOLDEN_DIR / "engine_trace_hashes.json"
SCHEDULER_HASHES_PATH = GOLDEN_DIR / "scheduler_trace_hashes.json"
OBJECT_REFERENCE_PATH = GOLDEN_DIR / "object_reference_hashes.json"

#: One run per application, full profile scale, fixed seed.  All three
#: paper applications are pinned so scheduler/engine refactors are
#: byte-checked against every protocol parameterisation.
ENGINE_GOLDEN_APPS = ("pplive", "sopcast", "tvants")
ENGINE_GOLDEN_KWARGS = dict(duration_s=30.0, seed=1234)

#: One run per chunk-scheduling policy (``--schedulers``): the smallest
#: paper app at a reduced scale keeps the fixture quick while still
#: exercising remotes, churn and every request path.  The ``mesh-pull``
#: entry is redundant with ``engine_trace_hashes.json`` by construction
#: (same engine, different run length) — it pins the *policy dispatch*
#: layer the same way the legacy fixture pins the engine underneath.
SCHEDULER_GOLDEN_APP = "tvants"
SCHEDULER_GOLDEN_SCALE = 0.4
SCHEDULER_GOLDEN_KWARGS = dict(duration_s=20.0, seed=1234)


#: Napa-scale reference cases: name → (swarm size, seed, duration, extra
#: profile overrides).  The mid-scale swarm exercises sparse columns,
#: the cross-swarm audience, alias discovery and cohort ticking at once.
#: The ``lazy``/``eager`` names record which peer-state path (first-contact
#: or swarm-wide precompute) produced the digests when both existed; the
#: engine now has only the first, and must match both recordings.
NAPA_REFERENCE_CASES = {
    "napa-mid-2500": (2500, 7, 90.0, {}),
    "napa-alias-1200-seed3": (1200, 3, 45.0, {}),
    "napa-alias-1200-seed19": (1200, 19, 45.0, {}),
    "napa-cohort-1200": (1200, 7, 45.0, {"tick_cohort": True}),
    "napa-staggered-1200": (1200, 7, 45.0, {"tick_cohort": False}),
    "napa-lazy-1200": (1200, 7, 45.0, {}),
    "napa-eager-1200": (1200, 7, 45.0, {}),
    "napa-lazy-800": (800, 7, 60.0, {}),
    "mega-eager-2500": (2500, 7, 60.0, {"name": "mega-scale"}),
}


def random_cases(n: int = 6) -> list[tuple[str, str, int, float, float]]:
    """Seeded (app, scheduler, seed, duration, scale) draws — stable
    across runs, diverse across cases."""
    from repro.streaming.schedulers import SCHEDULER_NAMES

    rng = random.Random(20260808)
    cases = []
    for _ in range(n):
        cases.append(
            (
                rng.choice(ENGINE_GOLDEN_APPS),
                rng.choice(sorted(SCHEDULER_NAMES)),
                rng.randrange(1, 10_000),
                round(rng.uniform(8.0, 14.0), 1),
                round(rng.uniform(0.35, 0.6), 2),
            )
        )
    return cases


def random_case_key(case: tuple) -> str:
    return "-".join(str(v) for v in case)


def full_digests(result) -> dict:
    """Every digest the byte-identity contract covers, as one dict."""
    from repro.trace.store import trace_digest

    stats = result.extras["engine_stats"]
    return {
        "transfers": trace_digest(result.transfers),
        "signaling": trace_digest(result.signaling),
        "hosts": trace_digest(result.hosts.rows),
        "events": result.events_processed,
        "dispatch_by_kind": stats["dispatch_by_kind"],
        "schedule_by_kind": stats["schedule_by_kind"],
    }


def run_engine_golden(app: str):
    """The golden per-application run of ``engine_trace_hashes.json``."""
    from repro.streaming.engine import EngineConfig, simulate
    from repro.streaming.profiles import get_profile

    return simulate(
        get_profile(app), engine_config=EngineConfig(**ENGINE_GOLDEN_KWARGS)
    )


def run_scheduler_golden(name: str):
    """The golden per-policy run of ``scheduler_trace_hashes.json``."""
    from dataclasses import replace

    from repro.streaming.engine import EngineConfig, simulate
    from repro.streaming.profiles import get_profile

    profile = replace(
        get_profile(SCHEDULER_GOLDEN_APP).scaled(SCHEDULER_GOLDEN_SCALE),
        scheduler=name,
    )
    return simulate(profile, engine_config=EngineConfig(**SCHEDULER_GOLDEN_KWARGS))


def run_random_case(case: tuple):
    from dataclasses import replace

    from repro.streaming.engine import EngineConfig, simulate
    from repro.streaming.profiles import get_profile

    app, scheduler, seed, duration_s, scale = case
    profile = replace(get_profile(app).scaled(scale), scheduler=scheduler)
    config = EngineConfig(duration_s=duration_s, seed=seed)
    return simulate(profile, engine_config=config)


def run_napa_case(name: str):
    from dataclasses import replace

    from repro.streaming.engine import simulate
    from repro.streaming.profiles import get_profile

    size, seed, duration_s, overrides = NAPA_REFERENCE_CASES[name]
    profile = replace(get_profile("napa-scale").scaled_swarm(size), **overrides)
    return simulate(profile, seed=seed, duration_s=duration_s)


def compute_object_reference() -> dict:
    from repro.streaming.schedulers import SCHEDULER_NAMES

    engine_golden = {
        app: full_digests(run_engine_golden(app)) for app in ENGINE_GOLDEN_APPS
    }
    scheduler_golden = {
        name: full_digests(run_scheduler_golden(name)) for name in SCHEDULER_NAMES
    }
    randomized = {
        random_case_key(case): full_digests(run_random_case(case))
        for case in random_cases()
    }
    napa = {}
    lazy_stats = {}
    for name in NAPA_REFERENCE_CASES:
        result = run_napa_case(name)
        napa[name] = full_digests(result)
        lazy_stats[name] = result.extras["engine_stats"]["lazy"]
    return {
        "engine_golden": engine_golden,
        "scheduler_golden": scheduler_golden,
        "randomized": randomized,
        "napa": napa,
        "lazy_stats": lazy_stats,
    }


def compute_hashes() -> dict:
    from repro.trace.store import trace_digest

    hashes = {}
    for app in ENGINE_GOLDEN_APPS:
        result = run_engine_golden(app)
        hashes[app] = {
            "transfers": trace_digest(result.transfers),
            "signaling": trace_digest(result.signaling),
            "hosts": trace_digest(result.hosts.rows),
            "events": result.events_processed,
        }
    return {"config": dict(ENGINE_GOLDEN_KWARGS), "hashes": hashes}


def compute_scheduler_hashes() -> dict:
    from repro.streaming.schedulers import SCHEDULER_NAMES
    from repro.trace.store import trace_digest

    hashes = {}
    for name in SCHEDULER_NAMES:
        result = run_scheduler_golden(name)
        hashes[name] = {
            "transfers": trace_digest(result.transfers),
            "signaling": trace_digest(result.signaling),
            "hosts": trace_digest(result.hosts.rows),
            "events": result.events_processed,
        }
    return {
        "app": SCHEDULER_GOLDEN_APP,
        "scale": SCHEDULER_GOLDEN_SCALE,
        "config": dict(SCHEDULER_GOLDEN_KWARGS),
        "hashes": hashes,
    }


def regenerate() -> pathlib.Path:
    HASHES_PATH.write_text(json.dumps(compute_hashes(), indent=2, sort_keys=True) + "\n")
    return HASHES_PATH


def regenerate_schedulers() -> pathlib.Path:
    SCHEDULER_HASHES_PATH.write_text(
        json.dumps(compute_scheduler_hashes(), indent=2, sort_keys=True) + "\n"
    )
    return SCHEDULER_HASHES_PATH


def regenerate_object_reference() -> pathlib.Path:
    OBJECT_REFERENCE_PATH.write_text(
        json.dumps(compute_object_reference(), indent=2, sort_keys=True)
        + "\n"
    )
    return OBJECT_REFERENCE_PATH


if __name__ == "__main__":
    if "--schedulers" in sys.argv[1:]:
        print(f"wrote {regenerate_schedulers()}")
    elif "--object-reference" in sys.argv[1:]:
        print(f"wrote {regenerate_object_reference()}")
    else:
        print(f"wrote {regenerate()}")
