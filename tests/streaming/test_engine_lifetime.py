"""Engine lifetime: a finished engine is freed without the cyclic GC,
and an engine runs once."""

from __future__ import annotations

import gc
import pathlib
import weakref
from dataclasses import replace

import pytest

import repro.streaming.soa as soa_mod
from repro.config import RngBundle
from repro.errors import SimulationError
from repro.population.demographics import crossswarm_audience
from repro.population.sparse import SparseSwarmConfig, generate_sparse_swarm
from repro.streaming.engine import Engine, EngineConfig, simulate
from repro.streaming.profiles import get_profile
from repro.topology.testbed import build_napa_wine_testbed
from repro.topology.world import World

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _profile(app: str, scheduler: str | None = None):
    profile = get_profile(app)
    profile = profile.scaled_swarm(1200) if app == "napa-scale" else profile.scaled(0.3)
    return profile if scheduler is None else replace(profile, scheduler=scheduler)


@pytest.fixture
def built_engines(monkeypatch):
    """Weak references to every engine ``simulate()`` constructs."""
    refs: list[weakref.ref] = []
    get_engine = soa_mod.get_engine

    def tracking_get_engine(name=None):
        cls = get_engine(name)

        def construct(*args, **kwargs):
            engine = cls(*args, **kwargs)
            refs.append(weakref.ref(engine))
            return engine

        return construct

    monkeypatch.setattr(soa_mod, "get_engine", tracking_get_engine)
    return refs


class TestFreedByRefcount:
    @pytest.mark.parametrize(
        "app, scheduler",
        [
            # Staggered per-probe ticks, scan discovery, every scheduler.
            ("tvants", "mesh-pull"),
            ("tvants", "rarest"),
            ("tvants", "edf"),
            ("tvants", "push"),
            # Cohort ticks and alias discovery.
            ("napa-scale", None),
        ],
    )
    def test_engine_dead_once_simulate_returns(self, built_engines, app, scheduler):
        profile = _profile(app, scheduler)
        assert profile.tick_cohort == (app == "napa-scale")
        assert (profile.discovery == "alias") == (app == "napa-scale")
        gc.disable()
        try:
            result = simulate(profile, duration_s=25.0, seed=3)
            assert len(built_engines) == 1
            assert built_engines[0]() is None
        finally:
            gc.enable()
        assert len(result.transfers) > 0

    def test_src_never_forces_a_collection(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if "gc.collect(" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


def _engine() -> Engine:
    profile = _profile("tvants")
    world = World()
    testbed = build_napa_wine_testbed(world)
    population = generate_sparse_swarm(
        world,
        SparseSwarmConfig(
            size=profile.swarm_size,
            demographics=crossswarm_audience(probe_as_fraction=profile.probe_as_fraction),
        ),
        RngBundle(5)["population"],
    )
    return Engine(world, testbed, profile, population, EngineConfig(duration_s=25.0, seed=5))


class TestRunsOnce:
    def test_second_run_fails_before_touching_state(self):
        engine = _engine()
        first = engine.run()
        rng_states = {
            name: engine._rngs[name].bit_generator.state for name in engine._rngs.streams
        }
        n_logged = len(engine._recorder)
        now = engine._queue.now
        with pytest.raises(SimulationError, match="runs once"):
            engine.run()
        assert len(engine._recorder) == n_logged
        assert engine._queue.now == now
        for name, state in rng_states.items():
            assert engine._rngs[name].bit_generator.state == state
        assert len(first.transfers) == n_logged

    def test_finished_engine_stays_inspectable(self):
        engine = _engine()
        result = engine.run()
        assert len(engine._queue) == 0
        probe = max(engine._probes, key=lambda p: len(p.partners))
        ctx = engine._partner_ctx(probe.pi, probe.partners_arr)
        assert len(ctx["plan_g"]) == len(probe.partners)
        assert engine._recorder.finalize().tobytes() == result.transfers.tobytes()
        stats = result.extras["engine_stats"]
        assert stats["transfer_log_bytes"] == result.transfers.nbytes > 0
