"""Whole-directory score rows ≡ on-demand scoring of the same candidates.

The engine keeps per-probe remote-policy rows over the whole directory
(``Engine._build_remote_row``) and scores every other candidate batch on
demand (``Engine._features``).  Both rest on the scores being
element-independent: a candidate's score is a function of the (chooser,
candidate) pair alone, so a row gathered at any subset is that subset
scored by itself, bit for bit.  The row's hop feature comes from the
one-to-many hop kernel and must agree with the scalar path model.

The full-width case (the 1.8×10^5-peer directory perfbench times) carries
the ``scale`` marker: deselected by default, run with ``-m scale``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RngBundle
from repro.population.demographics import crossswarm_audience
from repro.population.generator import SwarmColumns
from repro.population.sparse import SparseSwarmConfig, generate_sparse_swarm
from repro.streaming.engine import Engine, EngineConfig
from repro.streaming.profiles import get_profile
from repro.topology.testbed import build_napa_wine_testbed
from repro.topology.world import World

from tests.population.endpoint_view import endpoints


def _built_engine(app, size, seed=3):
    """A constructed, never-run engine plus the remote columns it holds."""
    profile = get_profile(app)
    if size is not None:
        profile = profile.scaled_swarm(size)
    world = World()
    testbed = build_napa_wine_testbed(world)
    cols = generate_sparse_swarm(
        world,
        SparseSwarmConfig(
            size=profile.swarm_size,
            demographics=crossswarm_audience(probe_as_fraction=profile.probe_as_fraction),
        ),
        RngBundle(seed)["population"],
    )
    engine = Engine(world, testbed, profile, cols, EngineConfig(duration_s=20.0, seed=seed))
    return engine, cols


def _endpoint(engine, cols, g):
    """The endpoint behind directory index ``g`` (remote or probe)."""
    if g >= engine.n_remote:
        return engine.testbed.hosts[g - engine.n_remote].endpoint
    one = SwarmColumns(
        **{name: getattr(cols, name)[g : g + 1] for name in SwarmColumns.__dataclass_fields__}
    )
    return endpoints(one, engine.world.config.subnet_prefixlen)[0]


@pytest.fixture(
    scope="module",
    params=[
        # (profile, remote peers); ``None`` keeps the profile's own size.
        pytest.param(("napa-scale", 3000), id="napa-scale-3000"),
        pytest.param(("tvants", None), id="tvants"),
        pytest.param(("napa-scale", 180_000), id="napa-scale-full", marks=pytest.mark.scale),
    ],
)
def built(request):
    return _built_engine(*request.param)


def _probes(engine):
    return sorted({0, engine.n_probe // 2, engine.n_probe - 1})


def test_row_gathers_equal_subset_scoring(built):
    engine, _ = built
    n = engine.n_remote + engine.n_probe
    rng = np.random.default_rng(11)
    for pi in _probes(engine):
        row = engine._build_remote_row(pi)
        assert row.shape == (n,)
        for size in (1, 64, 1024):
            cands = rng.choice(n, size=min(size, n), replace=False)
            scored = engine._remote_policy.scores(
                engine._features(engine.n_remote + pi, cands)
            )
            assert np.array_equal(row[cands].view(np.uint64), scored.view(np.uint64))


def test_row_hop_feature_equals_scalar_hops(built):
    engine, cols = built
    assert engine._need_hop == (engine.profile.name == "napa-scale")
    if not engine._need_hop:
        # No policy weights hops: the feature is all False, never computed.
        assert not engine._features(engine.n_remote, slice(None)).near.any()
        return
    paths = engine.world.paths
    threshold = engine.config.hop_near_threshold
    n = engine.n_remote + engine.n_probe
    rng = np.random.default_rng(12)
    for pi in _probes(engine):
        gidx = engine.n_remote + pi
        feats = engine._features(gidx, slice(None))
        row = engine._build_remote_row(pi)
        scored = engine._remote_policy.scores(feats)
        assert np.array_equal(row.view(np.uint64), scored.view(np.uint64))
        chooser = engine.testbed.hosts[pi].endpoint
        sample = np.concatenate([rng.choice(engine.n_remote, 200), np.arange(engine.n_remote, n)])
        hops = [paths.hops(chooser, _endpoint(engine, cols, int(g))) for g in sample]
        assert feats.near[sample].tolist() == [h < threshold for h in hops]
        assert min(hops) == 0 and max(hops) >= threshold  # both sides covered
