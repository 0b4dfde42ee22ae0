"""Paper-scale differential suite: reference agreement at mid-scale.

Under the full napa-scale feature set (sparse columns, cross-swarm
audience, alias-sampled discovery, cohort ticking, the 1 Mbps HD channel)
the engine reproduces, mid-scale, every digest the retired object core
recorded for the same runs (``tests/golden/object_reference_hashes.json``),
lazy peer state included.  Checked through full digests: transfer rows,
signaling rows, host rows, total events processed and the per-kind
dispatch counters.

The availability-path cases (:class:`TestAvailabilityPathPins`) pin the
wide and narrow scheduler paths none of those recordings reach: the
ordering policies at napa scale under both tick schedules, and cohort
ticks over the narrow partner sets of the paper apps.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.population.demographics import crossswarm_audience
from repro.population.sparse import SparseSwarmConfig, generate_sparse_swarm
from repro.streaming.engine import EngineConfig, simulate
from repro.streaming.engine import Engine
from repro.streaming.profiles import get_profile
from repro.topology.testbed import build_napa_wine_testbed
from repro.config import RngBundle
from repro.topology.world import World

from tests.golden.regen_engine import (
    NAPA_REFERENCE_CASES,
    OBJECT_REFERENCE_PATH,
    full_digests,
    run_engine_golden,
    run_napa_case,
)


#: Recorded digests of the availability-path cases (see the file's note).
AVAILABILITY_PINS_PATH = (
    pathlib.Path(__file__).resolve().parent / "availability_path_digests.json"
)

#: Availability-path cases: name → (app, scheduler, tick_cohort).  The
#: napa cases resize ``napa-scale`` to 1200 peers and run 45 s at seed 7;
#: the paper apps run at profile scale for 30 s at seed 1234.
AVAILABILITY_PIN_CASES = {
    **{
        f"napa-1200-{sched}-{'cohort' if cohort else 'staggered'}": (
            "napa-scale",
            sched,
            cohort,
        )
        for sched in ("rarest", "edf", "push")
        for cohort in (True, False)
    },
    **{
        f"{app}-{sched}-cohort": (app, sched, True)
        for app in ("tvants", "pplive")
        for sched in ("mesh-pull", "rarest")
    },
}


def run_availability_case(name: str):
    app, scheduler, cohort = AVAILABILITY_PIN_CASES[name]
    if app == "napa-scale":
        profile = get_profile(app).scaled_swarm(1200)
        config = EngineConfig(duration_s=45.0, seed=7)
    else:
        profile = get_profile(app)
        config = EngineConfig(duration_s=30.0, seed=1234)
    profile = replace(profile, scheduler=scheduler, tick_cohort=cohort)
    return simulate(profile, engine_config=config)


def _napa(size):
    return get_profile("napa-scale").scaled_swarm(size)


@pytest.fixture(scope="module")
def reference():
    return json.loads(OBJECT_REFERENCE_PATH.read_text())


def _run_columns(profile, *, seed, duration_s):
    """Simulate with the population step made explicit.

    Rebuilds :func:`simulate`'s plumbing: the sparse swarm is drawn on a
    fresh world and its columns go straight into ``Engine(world, testbed,
    profile, population, config)``.
    """
    world = World()
    testbed = build_napa_wine_testbed(world)
    demo = crossswarm_audience(probe_as_fraction=profile.probe_as_fraction)
    population = generate_sparse_swarm(
        world,
        SparseSwarmConfig(size=profile.swarm_size, demographics=demo),
        RngBundle(seed)["population"],
    )
    config = EngineConfig(duration_s=duration_s, seed=seed)
    return Engine(world, testbed, profile, population, config).run()


class TestEngineIndependenceAtScale:
    """The engine ≡ the object-core reference under the full napa-scale
    feature set, mid-scale."""

    def test_napa_scale_mid_swarm_byte_identity(self, reference):
        name = "napa-mid-2500"
        assert full_digests(run_napa_case(name)) == reference["napa"][name]

    def test_napa_scale_alias_discovery_survives_reseed(self, reference):
        for name in ("napa-alias-1200-seed3", "napa-alias-1200-seed19"):
            assert full_digests(run_napa_case(name)) == reference["napa"][name], name

    @pytest.mark.parametrize("cohort", [True, False])
    def test_engines_agree_under_either_tick_schedule(self, cohort, reference):
        """Cohort ticking changes *when* probes tick (one shared clock vs
        staggered offsets) — a profile-level behaviour the engine must
        reproduce exactly.  Both schedules run the same per-probe tick
        kernel; the ``False`` leg pins the staggered event timing."""
        name = "napa-cohort-1200" if cohort else "napa-staggered-1200"
        assert full_digests(run_napa_case(name)) == reference["napa"][name]


class TestAvailabilityPathPins:
    """Every scheduler's availability reads, pinned under both tick
    schedules.

    Wide partner sets reach :meth:`Engine._availability` through the
    rarest, EDF and push (seeding) policies; cohort ticks over the paper
    apps' narrow sets run the mesh-pull scalar plan and the rarest matrix.
    The digests come from an engine that cached chunk thresholds and
    batched cohort ticks, so a match proves computing thresholds where
    they are read changes no byte.
    """

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(AVAILABILITY_PINS_PATH.read_text())["digests"]

    def test_case_table_matches_recording(self, pins):
        assert sorted(pins) == sorted(AVAILABILITY_PIN_CASES)

    @pytest.mark.parametrize("name", sorted(AVAILABILITY_PIN_CASES))
    def test_digests_match_recording(self, name, pins):
        assert full_digests(run_availability_case(name)) == pins[name]


class TestLazyPeerState:
    """First-contact peer state ≡ the retired swarm-wide precompute.

    The engine scores candidates on demand and materialises busy and
    latency state per touched peer, and computes chunk thresholds for
    just the chunks it scans.  Each piece must compute the very same
    IEEE doubles the old eager path precomputed up front — checked at
    test scale against the digests recorded under both peer-state
    paths, including the mega-scale profile resized down.

    The ``core`` parameter keeps its historical ids and names the
    reference side of a comparison: ``"object"`` is a run the retired
    object core recorded (``tests/golden/object_reference_hashes.json``),
    ``"soa"`` a recording or live run of the engine, the former
    struct-of-arrays core.
    """

    @pytest.mark.parametrize("core", ["object", "soa"])
    def test_lazy_equals_eager_both_engines(self, core, reference):
        recorded = "napa-eager-1200" if core == "object" else "napa-lazy-1200"
        run = full_digests(run_napa_case("napa-lazy-1200"))
        assert run == reference["napa"][recorded]

    def test_mega_scale_config_matches_eager_at_test_scale(self, reference):
        profile = get_profile("mega-scale").scaled_swarm(2500)
        res = simulate(profile, seed=7, duration_s=60.0)
        assert full_digests(res) == reference["napa"]["mega-eager-2500"]

    @pytest.mark.parametrize("core", ["object", "soa"])
    def test_lazy_sparse_equals_dense(self, core, reference):
        """Columns fed to ``Engine`` directly match the ``napa-lazy-800``
        case as the object core recorded it and as ``simulate`` runs it
        live.  (The name is historical: the engine once also took the
        population as one object per peer, and this compared the two.)"""
        assert NAPA_REFERENCE_CASES["napa-lazy-800"] == (800, 7, 60.0, {})
        run = full_digests(_run_columns(_napa(800), seed=7, duration_s=60.0))
        if core == "object":
            expected = reference["napa"]["napa-lazy-800"]
        else:
            expected = full_digests(run_napa_case("napa-lazy-800"))
        assert run == expected

    @pytest.mark.parametrize("core", ["object", "soa"])
    def test_lazy_stats_report_touched_subsets(self, core, reference):
        """The lazy counters expose the point of the whole layer: the
        resident per-remote state covers a strict subset of the swarm.
        They count protocol-level contacts, so the property holds for the
        retired core's recorded counters as for a live run's."""
        name = "napa-lazy-1200"
        if core == "object":
            lazy = reference["lazy_stats"][name]
        else:
            lazy = run_napa_case(name).extras["engine_stats"]["lazy"]
        n = NAPA_REFERENCE_CASES[name][0]
        assert 0 < lazy["max_touched_busy"] < n
        assert 0 < lazy["max_touched_lat"] < n
        assert lazy["score_row_misses"] >= lazy["score_rows_cached"] > 0

    def test_dense_legacy_run_holds_touched_state_only(self):
        """The legacy dense profiles take the same first-contact path:
        the golden tvants run keeps busy and latency state for a strict
        subset of its remote peers."""
        stats = run_engine_golden("tvants").extras["engine_stats"]
        n = stats["remote_peers"]
        assert 0 < stats["lazy"]["max_touched_busy"] < n
        assert 0 < stats["lazy"]["max_touched_lat"] < n

    def test_lazy_counters_engine_agnostic(self, reference):
        """The counters count protocol-level contacts, so they match the
        object core's recorded ones along with the trace digests."""
        name = "napa-lazy-1200"
        res = run_napa_case(name)
        assert res.extras["engine_stats"]["lazy"] == reference["lazy_stats"][name]
        assert full_digests(res) == reference["napa"][name]


class TestScaleValidation:
    def test_full_size_profile_is_sparse_and_cohorted(self):
        prof = get_profile("napa-scale")
        assert prof.swarm == "sparse"
        assert prof.discovery == "alias"
        assert prof.tick_cohort
        assert prof.swarm_size == 180_000

    def test_scaled_swarm_rejects_discovery_overflow(self):
        with pytest.raises(ConfigurationError, match="discovery reach"):
            _napa(100)

    def test_integer_duration_keeps_float_leave_times(self):
        """An ``int`` horizon runs the same experiment as the equal float:
        the session-bounds array is float, so the remotes' leave times are
        not truncated to whole seconds when they are written into it.
        Short sessions make many remotes leave inside the horizon."""
        profile = _napa(800)
        profile = replace(profile, churn=replace(profile.churn, mean_session_s=40.0))
        as_int = simulate(profile, seed=3, duration_s=20)
        as_float = simulate(profile, seed=3, duration_s=20.0)
        assert full_digests(as_int) == full_digests(as_float)
