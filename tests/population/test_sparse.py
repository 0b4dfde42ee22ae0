"""Sparse swarm columns, seeded blocks and the score-row cache.

The sparse generator's contract has three legs:

* **determinism** — columns are a pure function of the single root draw
  (plus size and block size), drawn block by block in index order;
* **footprint** — the whole population costs tens of bytes per peer,
  not the ~1 kB of an object per peer;
* **fidelity** — the derived columns agree with the object model
  (``tests/population/endpoint_view.py``), and the drawn *distributions*
  match the dense generator's rules (access plans, campus placement, TTL
  mix) even though the streams differ.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.config import RngBundle
from repro.population.demographics import cctv1_audience, crossswarm_audience
from repro.population.sparse import (
    DEFAULT_BLOCK_SIZE,
    ScoreRowCache,
    SparseSwarmConfig,
    generate_sparse_swarm,
)
from repro.streaming.profiles import get_profile
from repro.topology.world import PROBE_AS_NUMBERS, World

from tests.population.endpoint_view import assert_derivations_match, endpoints


@pytest.fixture(scope="module")
def sparse_world():
    return World()


def _swarm(world, size=5000, seed=3, block_size=1024, **cfg_kw):
    return generate_sparse_swarm(
        world,
        SparseSwarmConfig(size=size, block_size=block_size, **cfg_kw),
        np.random.default_rng(seed),
    )


class TestConfig:
    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            SparseSwarmConfig(size=-1)

    def test_bad_unix_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            SparseSwarmConfig(size=10, unix_fraction=1.5)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            SparseSwarmConfig(size=10, block_size=0)

    def test_zero_size_ok(self, sparse_world):
        cols = _swarm(sparse_world, size=0)
        assert len(cols) == 0
        assert cols.ip.dtype == np.uint32


class TestDeterminism:
    def test_single_rng_draw_consumed(self, sparse_world):
        """The swarm consumes exactly one draw from the population stream."""
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        generate_sparse_swarm(
            sparse_world, SparseSwarmConfig(size=3000, block_size=512), rng_a
        )
        rng_b.integers(0, 2**63)
        # Both streams must now be in the same state.
        assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)

    def test_same_seed_same_columns(self):
        a = _swarm(World(), seed=7)
        b = _swarm(World(), seed=7)
        for name in type(a).__dataclass_fields__:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_leading_blocks_independent_of_size(self):
        """Per-block seeds and index-order drawing: a swarm's leading full
        blocks — addresses included — do not depend on how many blocks
        follow them."""
        # Fresh worlds: IP assignment advances per-AS subnet cursors, so
        # two swarms sharing one world would differ for that reason alone.
        big = _swarm(World(), seed=5, size=5000, block_size=1024)
        small = _swarm(World(), seed=5, size=3000, block_size=1024)
        for name in type(big).__dataclass_fields__:
            assert np.array_equal(
                getattr(big, name)[:2048], getattr(small, name)[:2048]
            ), name

    def test_block_size_is_part_of_identity(self):
        a = _swarm(World(), seed=5, block_size=512)
        b = _swarm(World(), seed=5, block_size=1024)
        assert not np.array_equal(a.up_bps, b.up_bps)


class TestLaziness:
    """The footprint the columns exist for (the class keeps its name from
    when blocks were drawn on first touch)."""

    def test_memory_per_peer_is_tens_of_bytes(self, sparse_world):
        cols = _swarm(sparse_world, size=20_000, block_size=DEFAULT_BLOCK_SIZE)
        per_peer = cols.nbytes / len(cols)
        assert per_peer < 100  # an object per peer costs ~1 kB


class TestFidelity:
    def test_object_view_matches_columns(self, sparse_world):
        cols = _swarm(sparse_world, size=600)
        assert len(cols) == 600
        assert_derivations_match(cols, sparse_world.config.subnet_prefixlen)

    def test_representations_share_population_identity(self):
        """The object view and the columns describe one draw — same IPs,
        same link plans (checked under the cross-swarm audience the
        napa-scale profile uses)."""
        world = World()
        demo = crossswarm_audience(probe_as_fraction=0.005)
        cols = generate_sparse_swarm(
            world,
            SparseSwarmConfig(size=500, demographics=demo),
            RngBundle(7)["population"],
        )
        view = endpoints(cols, world.config.subnet_prefixlen)
        assert [e.ip for e in view] == cols.ip.tolist()
        assert [e.access.up_bps for e in view] == cols.up_bps.tolist()
        assert_derivations_match(cols, world.config.subnet_prefixlen)

    def test_unique_ips(self, sparse_world):
        cols = _swarm(sparse_world, size=5000)
        assert len(np.unique(cols.ip)) == len(cols)

    def test_demographics_rules_hold(self, sparse_world):
        cols = _swarm(sparse_world, size=8000)
        cn = np.mean(cols.cc == "CN")
        assert cn > 0.5  # CCTV-1 audience is China-dominated
        unix = np.mean(cols.initial_ttl == 64)
        assert 0 < unix < 0.15
        campus_asns = {asn for asn, _ in PROBE_AS_NUMBERS.values()}
        in_campus = np.isin(cols.asn, sorted(campus_asns))
        assert in_campus.any()
        assert set(np.unique(cols.cc[in_campus])) <= {"IT", "FR", "HU", "PL"}

    def test_probe_as_fraction_zero_means_no_campus(self, sparse_world):
        demo = cctv1_audience(probe_as_fraction=0.0)
        cols = _swarm(sparse_world, size=4000, demographics=demo)
        campus_asns = {asn for asn, _ in PROBE_AS_NUMBERS.values()}
        assert not np.isin(cols.asn, sorted(campus_asns)).any()


class TestScoreRowCache:
    """On-demand score rows under a byte budget, LRU-evicted."""

    def test_builds_once_then_hits(self):
        built = []

        def build(k):
            built.append(k)
            return np.full(8, float(k))

        cache = ScoreRowCache(build, budget_bytes=1 << 20)
        a = cache.row(3)
        b = cache.row(3)
        assert a is b and built == [3]
        assert cache.hits == 1 and cache.misses == 1

    def test_evicts_least_recently_used_within_budget(self):
        row_bytes = np.zeros(8).nbytes
        cache = ScoreRowCache(
            lambda k: np.full(8, float(k)), budget_bytes=2 * row_bytes
        )
        cache.row(0)
        cache.row(1)
        cache.row(0)  # refresh 0 → 1 is now the LRU entry
        cache.row(2)  # over budget: evicts 1, keeps 0 and 2
        assert cache.evictions == 1
        assert cache.nbytes <= 2 * row_bytes
        cache.row(0)
        assert cache.misses == 3  # 0, 1, 2 — the refreshed 0 never rebuilt

    def test_single_row_kept_even_over_budget(self):
        cache = ScoreRowCache(lambda k: np.zeros(64), budget_bytes=1)
        row = cache.row(9)
        assert row.size == 64 and len(cache) == 1


class TestScaledSwarm:
    """The validating resize used by sparse paper-scale profiles."""

    def test_scaled_routes_sparse_profiles_through_validation(self):
        prof = get_profile("napa-scale")
        shrunk = prof.scaled(0.05)
        assert shrunk.swarm_size == 9000
        assert shrunk.tracker_initial == prof.tracker_initial  # saturates

    def test_discovery_reach_overflow_is_an_error(self):
        prof = get_profile("napa-scale")
        with pytest.raises(ConfigurationError, match="discovery reach"):
            prof.scaled_swarm(prof.tracker_initial - 1)

    def test_no_silent_floor(self):
        prof = get_profile("napa-scale")
        with pytest.raises(ConfigurationError):
            prof.scaled_swarm(0)
        with pytest.raises(ConfigurationError):
            prof.scaled(1e-9)  # rounds to zero peers: error, not a clamp

    def test_dense_profiles_keep_legacy_floors(self):
        prof = get_profile("pplive")
        tiny = prof.scaled(1e-9)
        assert tiny.swarm_size == 10  # the historical clamp, unchanged
