"""Differential suite against the object-core reference.

The engine once shipped two byte-identical cores; the object core was the
reference the struct-of-arrays kernels were checked against.  Its digests
for the golden per-app and per-scheduler runs and for a seeded randomized
sweep (app × scheduler × engine seed × duration × scale) are recorded in
``tests/golden/object_reference_hashes.json`` (see
``tests/golden/regen_engine.py``), so every case keeps an independent
reference: the transfer and signaling bytes, the host table, the event
count and the per-kind dispatch/schedule counters must all match.  The
golden replays add those counters to what ``test_determinism_golden``
pins for the same runs.

See ``docs/engine-internals.md`` for the determinism rules that make byte
identity possible.
"""

import json

import pytest

from repro.streaming.schedulers import SCHEDULER_NAMES

from tests.golden.regen_engine import (
    ENGINE_GOLDEN_APPS,
    OBJECT_REFERENCE_PATH,
    full_digests,
    random_case_key,
    random_cases,
    run_engine_golden,
    run_random_case,
    run_scheduler_golden,
)


@pytest.fixture(scope="module")
def reference():
    return json.loads(OBJECT_REFERENCE_PATH.read_text())


def test_reference_covers_the_sweep(reference):
    assert set(reference["randomized"]) == {random_case_key(c) for c in random_cases()}
    assert set(reference["engine_golden"]) == set(ENGINE_GOLDEN_APPS)
    assert set(reference["scheduler_golden"]) == set(SCHEDULER_NAMES)


@pytest.mark.parametrize("app", ENGINE_GOLDEN_APPS)
def test_soa_matches_engine_golden_hashes(app, reference):
    """The golden per-app run reproduces the object core's full digests."""
    assert full_digests(run_engine_golden(app)) == reference["engine_golden"][app], (
        f"{app}: the engine diverged from the object-core reference"
    )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_NAMES))
def test_soa_matches_scheduler_golden_hashes(scheduler, reference):
    """Every chunk-scheduling policy reproduces the object core's digests."""
    expected = reference["scheduler_golden"][scheduler]
    assert full_digests(run_scheduler_golden(scheduler)) == expected, (
        f"{scheduler}: the engine diverged from the object-core reference"
    )


@pytest.mark.parametrize(
    "app,scheduler,seed,duration_s,scale",
    random_cases(),
    ids=lambda v: str(v),
)
def test_randomized_soa_object_differential(
    app, scheduler, seed, duration_s, scale, reference
):
    """Same seed → the object core's bytes, events and dispatches."""
    case = (app, scheduler, seed, duration_s, scale)
    expected = reference["randomized"][random_case_key(case)]
    assert full_digests(run_random_case(case)) == expected, (
        f"{app}/{scheduler} seed={seed}: the engine diverged from the "
        "object-core reference"
    )
