"""Session churn columns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.population.churn import ChurnConfig, draw_session_bounds


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"initial_fraction": -0.1},
            {"initial_fraction": 1.1},
            {"mean_session_s": 0},
            {"sigma": 0},
            {"mean_session_s": math.nan},
            {"mean_session_s": math.inf},
            {"sigma": math.inf},
            {"sigma": math.nan},
            {"initial_fraction": math.nan},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            ChurnConfig(**kw)


class TestGenerate:
    def _gen(self, n=500, horizon=600.0, seed=0, **kw):
        return draw_session_bounds(
            n, horizon, ChurnConfig(**kw), np.random.default_rng(seed)
        )

    def test_one_session_per_peer(self):
        joins, leaves = self._gen()
        assert joins.shape == leaves.shape == (500,)

    def test_sessions_inside_horizon(self):
        joins, leaves = self._gen()
        assert np.all((0.0 <= joins) & (joins <= leaves) & (leaves <= 600.0))

    def test_initial_fraction(self):
        joins, _ = self._gen(n=2000, initial_fraction=0.75)
        assert 0.68 < np.mean(joins == 0.0) < 0.82

    def test_all_initial(self):
        joins, _ = self._gen(n=100, initial_fraction=1.0)
        assert np.all(joins == 0.0)

    def test_none_initial(self):
        joins, _ = self._gen(n=100, initial_fraction=0.0)
        assert np.all(joins > 0.0)

    def test_mean_session_roughly_configured(self):
        joins, leaves = self._gen(n=4000, horizon=1e9, mean_session_s=1000.0, sigma=0.8)
        assert 800 < np.mean(leaves - joins) < 1250

    def test_online_queries_consistent(self):
        """Online at ``t`` means ``join <= t < leave``.  Because sessions
        never invert, the online count equals joins crossed minus leaves
        crossed — the boundary counting the engine's online mask relies
        on."""
        joins, leaves = self._gen(n=300)
        for t in (0.0, 150.0, 300.0, 599.0):
            online = (joins <= t) & (t < leaves)
            crossed = np.sum(joins <= t) - np.sum(leaves <= t)
            assert online.sum() == crossed

    def test_deterministic(self):
        a = self._gen(seed=4)
        b = self._gen(seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            self._gen(horizon=0.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ConfigurationError):
            self._gen(horizon=horizon)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(1, 200))
    def test_property_sessions_clipped(self, frac, n):
        _, leaves = draw_session_bounds(
            n, 100.0,
            ChurnConfig(initial_fraction=frac, mean_session_s=50.0),
            np.random.default_rng(1),
        )
        assert np.all(leaves <= 100.0)
