"""Whole-directory level rows ≡ on-demand scoring of the same candidates.

The engine keeps per-probe remote-policy rows over the whole directory
(``Engine._build_remote_row``), one ``uint8`` level index per peer, and
classifies every other candidate batch on demand (``Engine._classes``).
Both rest on the levels being element-independent: a candidate's level is
a function of the (chooser, candidate) pair alone, so a row gathered at
any subset is that subset classified by itself.  The row must also encode
the float scores exactly: ``levels[row[c]]`` is bit-equal to the
weighted-sum score of the candidates' five features.  The row's hop
feature comes from the one-to-many hop kernel and must agree with the
scalar path model.

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


def _float_scores(engine, chooser, cands):
    """The weighted-sum score of ``cands``, all five features, in float64."""
    w = engine._remote_policy.weights
    n = len(cands)
    near = engine._near(chooser, cands) if w.hop else np.zeros(n, dtype=bool)
    score = np.zeros(n, dtype=np.float64)
    for weight, feature in (
        (w.bw, engine._highbw[cands]),
        (w.as_, engine._asn[cands] == engine._asn[chooser]),
        (w.cc, engine._cc[cands] == engine._cc[chooser]),
        (w.net, engine._subnet[cands] == engine._subnet[chooser]),
        (w.hop, near),
    ):
        if weight:
            score += weight * feature
    return score


def test_row_gathers_equal_subset_scoring(built):
    engine, _ = built
    n = engine.n_remote + engine.n_probe
    policy = engine._remote_policy
    rng = np.random.default_rng(11)
    for pi in _probes(engine):
        gidx = engine.n_remote + pi
        row = engine._build_remote_row(pi)
        assert row.shape == (n,) and row.dtype == np.uint8
        for size in (1, 64, 1024):
            cands = rng.choice(n, size=min(size, n), replace=False)
            assert np.array_equal(row[cands], engine._classes(policy, gidx, cands))
            scored = _float_scores(engine, gidx, cands)
            assert np.array_equal(
                policy.levels[row[cands]].view(np.uint64), scored.view(np.uint64)
            )


def test_row_hop_feature_equals_scalar_hops(built):
    engine, cols = built
    policies = (engine._partner_policy, engine._provider_policy, engine._remote_policy)
    need_hop = any(policy.weights.hop for policy in policies)
    assert need_hop == (engine.profile.name == "napa-scale")
    if not need_hop:
        # No policy weights hops: the feature is never computed.
        return
    paths = engine.world.paths
    threshold = engine.config.hop_near_threshold
    n = engine.n_remote + engine.n_probe
    rng = np.random.default_rng(12)
    for pi in _probes(engine):
        gidx = engine.n_remote + pi
        near = engine._near(gidx, slice(None))
        row = engine._build_remote_row(pi)
        everyone = np.arange(n)
        assert np.array_equal(
            engine._remote_policy.levels[row].view(np.uint64),
            _float_scores(engine, gidx, everyone).view(np.uint64),
        )
        chooser = engine.testbed.hosts[pi].endpoint
        sample = np.concatenate([rng.choice(engine.n_remote, 200), np.arange(engine.n_remote, n)])
        hops = [paths.hops(chooser, _endpoint(engine, cols, int(g))) for g in sample]
        assert near[sample].tolist() == [h < threshold for h in hops]
        assert min(hops) == 0 and max(hops) >= threshold  # both sides covered
