"""End-to-end path model: hops, asymmetry, TTL."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.access import dsl, lan
from repro.topology.host import INITIAL_TTL_UNIX
from repro.topology.paths import ACCESS_DEPTH, PathModel, access_depth
from repro.topology.testbed import build_napa_wine_testbed
from repro.topology.world import World


@pytest.fixture(scope="module")
def setup():
    world = World()
    testbed = build_napa_wine_testbed(world)
    cn_isps = world.access_isps("CN")
    remotes = [world.new_endpoint(cn_isps[0], dsl(4, 0.5)) for _ in range(5)]
    remotes += [world.new_endpoint(cn_isps[1], lan()) for _ in range(5)]
    return world, testbed, remotes


class TestScalarHops:
    def test_self_is_zero(self, setup):
        world, tb, _ = setup
        e = tb.host("BME-1").endpoint
        assert world.paths.hops(e, e) == 0

    def test_same_subnet_is_zero(self, setup):
        world, tb, _ = setup
        assert world.paths.hops(tb.host("PoliTO-1").endpoint, tb.host("PoliTO-2").endpoint) == 0

    def test_cross_site_positive(self, setup):
        world, tb, _ = setup
        h = world.paths.hops(tb.host("PoliTO-1").endpoint, tb.host("BME-1").endpoint)
        assert h >= 3

    def test_deterministic(self, setup):
        world, tb, remotes = setup
        a, b = remotes[0], tb.host("WUT-1").endpoint
        assert world.paths.hops(a, b) == world.paths.hops(a, b)

    def test_asymmetry_bounded_by_jitter(self, setup):
        world, tb, remotes = setup
        span = world.paths.config.jitter_span
        for r in remotes:
            for h in list(tb)[:6]:
                fwd = world.paths.hops(r, h.endpoint)
                rev = world.paths.hops(h.endpoint, r)
                assert abs(fwd - rev) <= span - 1

    def test_intercontinental_longer_than_regional(self, setup):
        world, tb, remotes = setup
        eu_pair = world.paths.hops(
            tb.host("PoliTO-1").endpoint, tb.host("BME-1").endpoint
        )
        cn_eu = world.paths.hops(remotes[0], tb.host("PoliTO-1").endpoint)
        assert cn_eu > eu_pair


class TestTTL:
    def test_windows_initial(self, setup):
        world, tb, remotes = setup
        dst = tb.host("MT-1").endpoint
        ttl = world.paths.ttl_at_receiver(remotes[0], dst)
        assert ttl == 128 - world.paths.hops(remotes[0], dst)

    def test_unix_initial(self, setup):
        world, tb, _ = setup
        cn = world.access_isps("CN")[0]
        src = world.new_endpoint(cn, dsl(4, 0.5), initial_ttl=INITIAL_TTL_UNIX)
        dst = tb.host("MT-1").endpoint
        assert world.paths.ttl_at_receiver(src, dst) == 64 - world.paths.hops(src, dst)

    def test_positive(self, setup):
        world, tb, remotes = setup
        for r in remotes:
            assert world.paths.ttl_at_receiver(r, tb.host("ENST-1").endpoint) > 0


class TestVectorised:
    def test_matches_scalar(self, setup):
        world, tb, remotes = setup
        probes = [h.endpoint for h in tb][:10]
        src = remotes[:5] * 2
        pairs = list(zip(src, probes))
        hops_vec = world.paths.hops_many(
            np.array([a.ip for a, _ in pairs], dtype=np.uint32),
            np.array([a.asn for a, _ in pairs]),
            np.array([a.subnet for a, _ in pairs], dtype=np.uint32),
            np.array([access_depth(a) for a, _ in pairs]),
            np.array([b.ip for _, b in pairs], dtype=np.uint32),
            np.array([b.asn for _, b in pairs]),
            np.array([b.subnet for _, b in pairs], dtype=np.uint32),
            np.array([access_depth(b) for _, b in pairs]),
        )
        for (a, b), h in zip(pairs, hops_vec):
            assert world.paths.hops(a, b) == int(h)

    def test_same_subnet_zero(self, setup):
        world, tb, _ = setup
        a = tb.host("PoliTO-1").endpoint
        b = tb.host("PoliTO-3").endpoint
        out = world.paths.hops_many(
            np.array([a.ip], dtype=np.uint32), np.array([a.asn]),
            np.array([a.subnet], dtype=np.uint32), np.array([access_depth(a)]),
            np.array([b.ip], dtype=np.uint32), np.array([b.asn]),
            np.array([b.subnet], dtype=np.uint32), np.array([access_depth(b)]),
        )
        assert out[0] == 0


def _columns(endpoints):
    """(ips, asns, subnets, access depths) arrays for ``endpoints``."""
    return (
        np.array([e.ip for e in endpoints], dtype=np.uint32),
        np.array([e.asn for e in endpoints], dtype=np.int32),
        np.array([e.subnet for e in endpoints], dtype=np.uint32),
        np.array([access_depth(e) for e in endpoints], dtype=np.uint8),
    )


class TestOneToMany:
    """Scalar source fields against destination arrays (a chooser's row)."""

    def test_scalar_source_matches_full_arrays_and_scalar(self, setup):
        world, tb, remotes = setup
        src = tb.host("PoliTO-1").endpoint
        # Itself (same host), its subnet mates, other sites and remotes.
        dsts = [h.endpoint for h in tb] + remotes
        dst_cols = _columns(dsts)
        n = len(dsts)
        one = world.paths.hops_many(
            np.uint32(src.ip), np.int32(src.asn), np.uint32(src.subnet),
            np.uint8(access_depth(src)), *dst_cols,
        )
        full = world.paths.hops_many(*_columns([src] * n), *dst_cols)
        scalar = [world.paths.hops(src, d) for d in dsts]
        assert one.dtype == full.dtype == np.int64
        assert one.tolist() == full.tolist() == scalar
        assert 0 in scalar and max(scalar) > 0

    def test_unseen_destination_asn_is_registered(self, setup):
        world, tb, remotes = setup
        src = tb.host("BME-1").endpoint
        paths = PathModel(world.asgraph, world.paths.config)
        # Materialise a matrix holding the source's AS alone.
        mates = [h.endpoint for h in tb if h.endpoint.asn == src.asn]
        paths.hops_many(src.ip, src.asn, src.subnet, access_depth(src), *_columns(mates))
        assert all(r.asn not in paths._asn_index for r in remotes)
        got = paths.hops_many(
            src.ip, src.asn, src.subnet, access_depth(src), *_columns(remotes)
        )
        assert all(r.asn in paths._asn_index for r in remotes)
        assert got.tolist() == [world.paths.hops(src, r) for r in remotes]

    def test_late_attachment_rebuilds_the_matrix(self):
        world = World()
        tb = build_napa_wine_testbed(world)
        cn = world.access_isps("CN")[0]
        src = world.new_endpoint(cn, dsl(4, 0.5))
        dsts = [h.endpoint for h in tb]
        args = (src.ip, src.asn, src.subnet, access_depth(src), *_columns(dsts))
        before = world.paths.hops_many(*args)
        # A late home AS in Italy, multi-homed to the Chinese ISP: a
        # shortcut between regions that leaves the built matrix stale.
        late = 999
        assert late not in world.registry
        world.add_home_as(late, "IT")
        world.asgraph.graph.add_edge(late, cn)
        world.asgraph.invalidate_routes()
        after = world.paths.hops_many(*args)
        fresh = PathModel(world.asgraph, world.paths.config)
        assert after.tolist() == [fresh.hops(src, d) for d in dsts]
        assert (after < before).any()


class TestConfigAndErrors:
    def test_unknown_as_raises(self, setup):
        world, _, _ = setup
        with pytest.raises(TopologyError):
            world.paths.ensure_asns([999_999])

    def test_access_depth_mapping_complete(self):
        from repro.topology.access import AccessClass

        assert set(ACCESS_DEPTH) == set(AccessClass)

    def test_seeded_paths_reproducible(self):
        w1, w2 = World(), World()
        t1, t2 = build_napa_wine_testbed(w1), build_napa_wine_testbed(w2)
        a1, b1 = t1.host("BME-1").endpoint, t1.host("WUT-9").endpoint
        a2, b2 = t2.host("BME-1").endpoint, t2.host("WUT-9").endpoint
        assert w1.paths.hops(a1, b1) == w2.paths.hops(a2, b2)
