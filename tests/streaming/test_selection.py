"""Awareness-weighted peer selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.streaming.selection import (
    CandidateFeatures,
    SelectionPolicy,
    SelectionWeights,
)


def feats(highbw, same_as=None, same_cc=None, same_net=None, near=None):
    n = len(highbw)
    z = np.zeros(n, dtype=bool)
    return CandidateFeatures(
        highbw=np.asarray(highbw, dtype=bool),
        same_as=np.asarray(same_as, dtype=bool) if same_as is not None else z,
        same_cc=np.asarray(same_cc, dtype=bool) if same_cc is not None else z.copy(),
        same_net=np.asarray(same_net, dtype=bool) if same_net is not None else z.copy(),
        near=np.asarray(near, dtype=bool) if near is not None else z.copy(),
    )


class TestWeights:
    def test_no_awareness(self):
        assert not SelectionWeights().any_awareness()

    def test_any_awareness(self):
        assert SelectionWeights(bw=1.0).any_awareness()
        assert SelectionWeights(hop=0.5).any_awareness()


class TestScores:
    def test_zero_weights_flat(self, rng):
        policy = SelectionPolicy(SelectionWeights(), rng)
        s = policy.scores(feats([True, False, True]))
        assert np.all(s == 0)

    def test_additive(self, rng):
        policy = SelectionPolicy(SelectionWeights(bw=1.0, as_=2.0), rng)
        f = feats([True, False], same_as=[True, False])
        s = policy.scores(f)
        assert s[0] == pytest.approx(3.0)
        assert s[1] == pytest.approx(0.0)


class TestProbabilities:
    def test_sum_to_one(self, rng):
        policy = SelectionPolicy(SelectionWeights(bw=2.0), rng)
        p = policy.probabilities(feats([True, False, False, True]))
        assert p.sum() == pytest.approx(1.0)

    def test_uniform_when_weightless(self, rng):
        policy = SelectionPolicy(SelectionWeights(), rng)
        p = policy.probabilities(feats([True, False, True, False]))
        assert np.allclose(p, 0.25)

    def test_weight_ratio_is_exponential(self, rng):
        w = 1.5
        policy = SelectionPolicy(SelectionWeights(bw=w), rng)
        p = policy.probabilities(feats([True, False]))
        assert p[0] / p[1] == pytest.approx(math.exp(w))

    def test_temperature_flattens(self, rng):
        sharp = SelectionPolicy(SelectionWeights(bw=2.0), rng, temperature=0.5)
        flat = SelectionPolicy(SelectionWeights(bw=2.0), rng, temperature=4.0)
        f = feats([True, False])
        assert sharp.probabilities(f)[0] > flat.probabilities(f)[0]

    def test_empty_batch(self, rng):
        policy = SelectionPolicy(SelectionWeights(bw=1.0), rng)
        assert len(policy.probabilities(feats([]))) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_property_valid_distribution(self, flags, w):
        policy = SelectionPolicy(
            SelectionWeights(bw=w), np.random.default_rng(0)
        )
        p = policy.probabilities(feats(flags))
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0)


class TestChoose:
    def test_choose_distinct(self, rng):
        policy = SelectionPolicy(SelectionWeights(bw=1.0), rng)
        picked = policy.choose(feats([True] * 10), k=5)
        assert len(set(picked.tolist())) == 5

    def test_choose_caps_at_batch(self, rng):
        policy = SelectionPolicy(SelectionWeights(), rng)
        assert len(policy.choose(feats([True, False]), k=10)) == 2

    def test_choose_empty(self, rng):
        policy = SelectionPolicy(SelectionWeights(), rng)
        assert len(policy.choose(feats([]), k=3)) == 0
        assert policy.choose_one(feats([])) == -1

    def test_bias_observable_in_sampling(self):
        policy = SelectionPolicy(
            SelectionWeights(bw=2.5), np.random.default_rng(0)
        )
        f = feats([True] * 30 + [False] * 70)
        hits = sum(int(policy.choose_one(f)) < 30 for _ in range(800))
        # e^2.5 ≈ 12.2 weight: expected high-bw pick share ≈ 0.84.
        assert hits / 800 > 0.7

    def test_zero_temperature_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            SelectionPolicy(SelectionWeights(), rng, temperature=0.0)

    def test_deterministic_given_rng(self):
        f = feats([True, False] * 10)
        a = SelectionPolicy(SelectionWeights(bw=1.0), np.random.default_rng(5))
        b = SelectionPolicy(SelectionWeights(bw=1.0), np.random.default_rng(5))
        assert a.choose(f, 5).tolist() == b.choose(f, 5).tolist()


class TestCachedPathBitEquivalence:
    """The engine's cached selection paths must replay numpy's draws exactly.

    Byte-identical simulation output hinges on three equivalences, each
    checked here for both the returned index *and* the post-call RNG
    state: the k=1 fast path vs ``Generator.choice``, the memoised-CDF
    path vs the uncached one, and level-row sampling vs feature sampling.
    """

    @staticmethod
    def _policy(rng):
        return SelectionPolicy(SelectionWeights(bw=1.0, as_=0.7, hop=0.3), rng)

    @staticmethod
    def _levels(seed, n, policy):
        return np.random.default_rng(seed ^ 0xA5).integers(
            0, len(policy.levels), size=n, dtype=np.uint8
        )

    @given(seed=st.integers(0, 2**20), n=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_k1_fast_path_matches_generator_choice(self, seed, n):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        policy = self._policy(a)
        p = policy.probabilities_from_levels(self._levels(seed, n, policy))
        got = policy._sample(n, 1, p)
        want = b.choice(n, size=1, replace=False, p=p)
        assert got.tolist() == want.tolist()
        assert a.bit_generator.state == b.bit_generator.state

    @given(seed=st.integers(0, 2**20), n=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_cached_cdf_matches_uncached_choose(self, seed, n):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        cached = self._policy(a)
        uncached = self._policy(b)
        idx = self._levels(seed, n, cached)
        cdf = cached.cdf_from_levels(idx)  # consumes no draws
        assert cached.sample_index(cdf) == int(uncached.choose_levels(idx, 1)[0])
        assert a.bit_generator.state == b.bit_generator.state

    @given(seed=st.integers(0, 2**20), n=st.integers(1, 10), k=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_score_row_matches_feature_path(self, seed, n, k):
        rng_feats = np.random.default_rng(seed ^ 0x3C)
        f = feats(
            rng_feats.random(n) < 0.5,
            same_as=rng_feats.random(n) < 0.5,
            near=rng_feats.random(n) < 0.5,
        )
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        by_row = self._policy(a)
        by_feats = self._policy(b)
        row = by_row.classes(f)  # precomputed level row, as the engine caches
        assert by_row.choose_levels(row, k).tolist() == by_feats.choose(f, k).tolist()
        assert a.bit_generator.state == b.bit_generator.state


def _oracle_scores(w, f):
    """The float scoring formula the level tables must reproduce exactly."""
    score = np.zeros(len(f), dtype=np.float64)
    if w.bw:
        score += w.bw * f.highbw
    if w.as_:
        score += w.as_ * f.same_as
    if w.cc:
        score += w.cc * f.same_cc
    if w.net:
        score += w.net * f.same_net
    if w.hop:
        score += w.hop * f.near
    return score


def _oracle_probabilities(scores, temperature):
    """The array softmax: exponentiate every candidate's logit."""
    logits = scores / temperature
    logits -= logits.max()
    p = np.exp(logits)
    return p / p.sum()


#: Every feature combination, bit ``b`` of row ``i`` set iff ``i >> b & 1``.
_ALL_CODES = np.arange(32)
_ALL_FEATS = CandidateFeatures(*(((_ALL_CODES >> b) & 1).astype(bool) for b in range(5)))

# Weights drawn from a small pool so that zero, negative and equal weights
# (hence colliding sums) are common.
_weight = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 2.5, -0.3]),
    st.floats(-8.0, 8.0, allow_nan=False),
)
_weights = st.builds(SelectionWeights, _weight, _weight, _weight, _weight, _weight)
_temperature = st.one_of(
    st.sampled_from([1.0, 0.5, 3.0]),
    st.floats(1e-2, 1e2, allow_nan=False, allow_infinity=False),
)


class TestLevelTables:
    """The one-byte level encoding is exact, and so is its softmax."""

    @settings(max_examples=200, deadline=None)
    @given(w=_weights, temperature=_temperature)
    def test_levels_reproduce_float_scores_for_every_code(self, w, temperature):
        policy = SelectionPolicy(w, np.random.default_rng(0), temperature)
        assert len(policy.levels) <= 32
        assert np.all(np.diff(policy.levels) > 0)  # sorted and distinct
        idx = policy.classes(_ALL_FEATS)
        assert idx.dtype == np.uint8
        assert np.array_equal(
            policy.levels[idx].view(np.uint64), _oracle_scores(w, _ALL_FEATS).view(np.uint64)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        w=_weights,
        temperature=_temperature,
        seed=st.integers(0, 2**20),
        n=st.sampled_from([1, 7, 8, 9, 127, 128, 129, 100_000]),
    )
    def test_tabulated_softmax_equals_array_path(self, w, temperature, seed, n):
        policy = SelectionPolicy(w, np.random.default_rng(0), temperature)
        rng = np.random.default_rng(seed)
        # A random subset of the levels is present, often not the top one.
        present = rng.choice(len(policy.levels), size=rng.integers(1, len(policy.levels) + 1))
        idx = rng.choice(present, size=n).astype(np.uint8)
        want = _oracle_probabilities(policy.levels[idx], temperature)
        got = policy.probabilities_from_levels(idx)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        cdf = want.cumsum()
        cdf /= cdf[-1]
        assert np.array_equal(policy.cdf_from_levels(idx).view(np.uint64), cdf.view(np.uint64))

    def test_unweighted_features_are_not_read(self, rng):
        policy = SelectionPolicy(SelectionWeights(as_=1.0), rng)
        f = CandidateFeatures(highbw=np.array([True, False]), same_as=np.array([False, True]))
        assert policy.scores(f).tolist() == [0.0, 1.0]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["bw", "as_", "cc", "net", "hop"])
    def test_non_finite_weight_rejected(self, field, bad):
        with pytest.raises(ConfigurationError):
            SelectionWeights(**{field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_temperature_rejected(self, rng, bad):
        with pytest.raises(ConfigurationError):
            SelectionPolicy(SelectionWeights(bw=1.0), rng, temperature=bad)
