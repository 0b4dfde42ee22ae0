"""Paper-scale differential suite: representation and reference invariance.

Two claims make the napa-scale profile trustworthy:

* **Representation independence** — a :class:`SparseSwarm` and its own
  ``peers()`` object view describe the same population, so an engine fed
  either must emit byte-identical traces.  This is the sparse ≡ dense
  contract at a size where the object directory is still affordable.
* **Reference agreement** — under the full napa-scale feature set
  (sparse columns, cross-swarm audience, alias-sampled discovery, cohort
  ticking, the 1 Mbps HD channel) the engine reproduces, mid-scale, every
  digest the retired object core recorded for the same runs
  (``tests/golden/object_reference_hashes.json``), lazy peer state
  included.

Both are checked through full digests: transfer rows, signaling rows,
host rows, total events processed and the per-kind dispatch counters.
"""

import json

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
from repro.trace.store import trace_digest

from tests.golden.regen_engine import (
    NAPA_REFERENCE_CASES,
    OBJECT_REFERENCE_PATH,
    full_digests,
    run_engine_golden,
    run_napa_case,
)


def _digest(res):
    return {
        "transfers": trace_digest(res.transfers),
        "signaling": trace_digest(res.signaling),
        "hosts": trace_digest(res.hosts.rows),
        "events": res.events_processed,
        "dispatch": res.extras["engine_stats"]["dispatch_by_kind"],
    }


def _napa(size):
    return get_profile("napa-scale").scaled_swarm(size)


@pytest.fixture(scope="module")
def reference():
    return json.loads(OBJECT_REFERENCE_PATH.read_text())


def _run_with_population(profile, representation, *, seed, duration_s):
    """Simulate with the population passed as columns or as objects.

    Rebuilds :func:`simulate`'s plumbing with the population step made
    explicit, so the two representations of one drawn swarm can be fed to
    otherwise-identical engines.  Worlds are rebuilt per run — IP
    assignment advances per-AS cursors, so sharing one would entangle the
    populations.
    """
    world = World()
    testbed = build_napa_wine_testbed(world)
    demo = crossswarm_audience(probe_as_fraction=profile.probe_as_fraction)
    swarm = generate_sparse_swarm(
        world,
        SparseSwarmConfig(size=profile.swarm_size, demographics=demo),
        RngBundle(seed)["population"],
    )
    population = swarm if representation == "sparse" else swarm.peers()
    config = EngineConfig(duration_s=duration_s, seed=seed)
    return Engine(world, testbed, profile, population, config).run()


class TestRepresentationIndependence:
    """SparseSwarm columns ≡ its RemotePeer view, byte for byte."""

    def test_sparse_equals_dense_small_n(self):
        profile = _napa(800)
        kw = dict(seed=7, duration_s=60.0)
        sparse = _digest(_run_with_population(profile, "sparse", **kw))
        dense = _digest(_run_with_population(profile, "dense", **kw))
        assert sparse == dense

    def test_representations_share_population_identity(self):
        """Both views come from one draw — same IPs, same link plans."""
        world = World()
        demo = crossswarm_audience(probe_as_fraction=0.005)
        swarm = generate_sparse_swarm(
            world,
            SparseSwarmConfig(size=500, demographics=demo),
            RngBundle(7)["population"],
        )
        cols = swarm.columns()
        peers = swarm.peers()
        assert [p.endpoint.ip for p in peers] == cols.ip.tolist()
        assert [p.endpoint.access.up_bps for p in peers] == cols.up_bps.tolist()


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
        reproduce exactly.  The multi-probe batching only exists under
        the cohort schedule, so the ``False`` leg pins the per-probe tick
        path too."""
        name = "napa-cohort-1200" if cohort else "napa-staggered-1200"
        assert full_digests(run_napa_case(name)) == reference["napa"][name]


class TestLazyPeerState:
    """First-contact peer state ≡ the retired swarm-wide precompute.

    The engine scores candidates on demand and materialises busy and
    latency state per touched peer; its threshold rows come from cached
    blocks.  Each piece must compute the very same IEEE doubles the old
    eager path precomputed up front — checked at test scale against the
    digests recorded under both peer-state paths, across both population
    representations, including the mega-scale profile resized down.

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
        """A live run over the object view matches the column run of
        either core (the recorded ``napa-lazy-800`` case ran on columns)."""
        assert NAPA_REFERENCE_CASES["napa-lazy-800"] == (800, 7, 60.0, {})
        profile = _napa(800)
        kw = dict(seed=7, duration_s=60.0)
        dense = full_digests(_run_with_population(profile, "dense", **kw))
        if core == "object":
            sparse = reference["napa"]["napa-lazy-800"]
        else:
            sparse = full_digests(_run_with_population(profile, "sparse", **kw))
        assert sparse == dense

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
