"""Swarm generation on the synthetic Internet."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.population.demographics import Demographics, cctv1_audience
from repro.population.generator import (
    KIND_DSL,
    KIND_FTTH,
    KIND_LAN,
    PopulationConfig,
    SwarmColumns,
    generate_population,
)
from repro.topology.world import PROBE_AS_NUMBERS, World

from tests.population.endpoint_view import assert_derivations_match

CAMPUS_ASNS = sorted({asn for asn, _ in PROBE_AS_NUMBERS.values()})


@pytest.fixture(scope="module")
def pop_world():
    return World()


def _gen(world, size=600, seed=3, **demo_kw):
    demo = cctv1_audience(**demo_kw) if demo_kw else None
    return generate_population(
        world, PopulationConfig(size=size, demographics=demo),
        np.random.default_rng(seed),
    )


class TestConfig:
    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=-1)

    def test_bad_unix_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=10, unix_fraction=2.0)

    def test_zero_size_ok(self, pop_world):
        cols = _gen(pop_world, size=0)
        assert isinstance(cols, SwarmColumns)
        assert len(cols) == 0


class TestComposition:
    def test_size(self, pop_world):
        assert len(_gen(pop_world)) == 600

    def test_unique_ids_and_ips(self, pop_world):
        # Peer ids are row indices; addresses must not collide.
        cols = _gen(pop_world)
        assert len(np.unique(cols.ip)) == len(cols)

    def test_china_dominates(self, pop_world):
        cols = _gen(pop_world)
        assert np.mean(cols.cc == "CN") > 0.5

    def test_highbw_fraction_plausible(self, pop_world):
        cols = _gen(pop_world, size=1500)
        assert 0.2 < cols.highbw.mean() < 0.55

    def test_some_campus_civilians(self, pop_world):
        cols = _gen(pop_world, size=1500)
        in_campus = np.isin(cols.asn, CAMPUS_ASNS)
        assert in_campus.any()
        # Campus civilians belong to probe countries only.
        assert set(np.unique(cols.cc[in_campus])) <= {"IT", "FR", "HU", "PL"}

    def test_probe_as_fraction_zero_means_no_civilians(self, pop_world):
        cols = _gen(pop_world, size=800, probe_as_fraction=0.0)
        assert not np.isin(cols.asn, CAMPUS_ASNS).any()

    def test_ttl_mix(self, pop_world):
        cols = _gen(pop_world, size=1500)
        assert 128 in set(cols.initial_ttl.tolist())
        assert 0 < np.mean(cols.initial_ttl == 64) < 0.15

    def test_deterministic(self):
        a = _gen(World(), seed=9)
        b = _gen(World(), seed=9)
        for name in SwarmColumns.__dataclass_fields__:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_seed_changes_population(self):
        a = _gen(World(), seed=1)
        b = _gen(World(), seed=2)
        assert not np.array_equal(a.cc, b.cc)

    def test_country_without_isp_falls_back(self, pop_world):
        demo = Demographics(country_weights={"CN": 1.0, "BR": 50.0})
        cols = generate_population(
            pop_world, PopulationConfig(size=50, demographics=demo),
            np.random.default_rng(0),
        )
        assert len(cols) == 50  # BR has an ISP in the default world; no crash


class TestFidelity:
    def test_columns_match_object_model(self):
        world = World()
        cols = _gen(world, size=1500)
        assert_derivations_match(cols, world.config.subnet_prefixlen)
        # The dense access plans: LAN, NATed FTTH and DSL only.
        assert set(np.unique(cols.kind).tolist()) <= {KIND_LAN, KIND_DSL, KIND_FTTH}
        assert cols.nat[cols.kind == KIND_FTTH].all()
        assert not cols.firewalled.any()
