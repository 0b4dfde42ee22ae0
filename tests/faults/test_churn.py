"""Churn storms and flash crowds over drawn (join, leave) columns."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import FaultInjectionError
from repro.faults.churn import ChurnStorm, FlashCrowd, apply_churn_events
from repro.faults.plan import ImpairmentPlan
from repro.streaming.engine import EngineConfig, simulate
from repro.streaming.profiles import get_profile

from tests.golden.regen_engine import full_digests

HORIZON = 100.0


def make_churn() -> tuple[np.ndarray, np.ndarray]:
    """Ten peers: five online from the start, five joining late."""
    joins = np.array([0.0] * 5 + [80.0] * 5)
    return joins, np.full(10, HORIZON)


def apply(storms=(), crowds=(), rng=None):
    joins, leaves = make_churn()
    rng = rng if rng is not None else np.random.default_rng(0)
    return (joins, leaves), apply_churn_events(joins, leaves, HORIZON, storms, crowds, rng)


class TestValidation:
    def test_bad_storm_window(self):
        with pytest.raises(FaultInjectionError):
            ChurnStorm(at_s=10.0, duration_s=0.0)

    def test_bad_leave_fraction(self):
        with pytest.raises(FaultInjectionError):
            ChurnStorm(at_s=10.0, leave_fraction=2.0)

    def test_bad_crowd_stay(self):
        with pytest.raises(FaultInjectionError):
            FlashCrowd(at_s=10.0, mean_stay_s=-1.0)

    @pytest.mark.parametrize(
        "event, kw",
        [
            (ChurnStorm, {"at_s": math.nan}),
            (ChurnStorm, {"at_s": math.inf}),
            (ChurnStorm, {"at_s": 10.0, "duration_s": math.nan}),
            (ChurnStorm, {"at_s": 10.0, "duration_s": math.inf}),
            (ChurnStorm, {"at_s": 10.0, "leave_fraction": math.nan}),
            (FlashCrowd, {"at_s": math.nan}),
            (FlashCrowd, {"at_s": math.nan, "mean_stay_s": math.nan}),
            (FlashCrowd, {"at_s": 10.0, "mean_stay_s": math.nan}),
            (FlashCrowd, {"at_s": 10.0, "mean_stay_s": math.inf}),
            (FlashCrowd, {"at_s": 10.0, "join_fraction": math.nan}),
        ],
    )
    def test_non_finite_rejected(self, event, kw):
        with pytest.raises(FaultInjectionError):
            event(**kw)


class TestStorm:
    def test_full_storm_empties_online_set(self, rng):
        (joins, _), (_, out_leaves) = apply(
            (ChurnStorm(at_s=20.0, duration_s=10.0, leave_fraction=1.0),), rng=rng
        )
        # Every peer online at t=20 leaves inside [20, 30).
        hit = joins <= 20.0
        assert np.all((20.0 <= out_leaves[hit]) & (out_leaves[hit] < 30.0))
        # Late joiners (join=80) are untouched.
        assert np.all(out_leaves[~hit] == HORIZON)

    def test_storm_never_lengthens_sessions(self, rng):
        (joins, leaves), (out_joins, out_leaves) = apply(
            (ChurnStorm(at_s=20.0, duration_s=10.0, leave_fraction=0.7),), rng=rng
        )
        assert np.all(out_leaves <= leaves)
        assert np.array_equal(out_joins, joins)


class TestFlashCrowd:
    def test_crowd_pulls_joins_forward(self, rng):
        _, (out_joins, out_leaves) = apply(
            crowds=(FlashCrowd(at_s=40.0, join_fraction=1.0, mean_stay_s=30.0),), rng=rng
        )
        assert np.all(out_joins[5:] == 40.0)
        assert np.all(out_leaves >= out_joins)

    def test_noop_plan_returns_same_object(self, rng):
        joins, leaves = make_churn()
        out = apply_churn_events(joins, leaves, HORIZON, (), (), rng)
        assert out[0] is joins and out[1] is leaves


class TestInvariants:
    def test_sessions_never_inverted(self, rng):
        (joins, leaves), (out_joins, out_leaves) = apply(
            (ChurnStorm(at_s=10.0, duration_s=20.0, leave_fraction=0.9),),
            (FlashCrowd(at_s=50.0, join_fraction=0.9, mean_stay_s=10.0),),
            rng,
        )
        assert out_joins.shape == out_leaves.shape == joins.shape
        assert np.all((out_joins <= out_leaves) & (out_leaves <= HORIZON))
        # The inputs are left as drawn.
        assert np.array_equal((joins, leaves), make_churn())

    def test_deterministic(self):
        events = (
            (ChurnStorm(at_s=10.0, leave_fraction=0.5),),
            (FlashCrowd(at_s=50.0, join_fraction=0.5),),
        )
        _, a = apply(*events, np.random.default_rng(3))
        _, b = apply(*events, np.random.default_rng(3))
        assert np.array_equal(a, b)


#: Full digests of two engine runs under ``ImpairmentPlan.preset(1.0)``
#: (bursty loss plus a churn storm and a flash crowd), recorded when the
#: engine still replayed churn through one session object per peer.  The
#: column rewrite must reproduce them byte for byte.
IMPAIRED_CASES = {
    # name: (app, swarm size or None for the profile's own, duration, seed)
    "tvants-120": ("tvants", None, 120.0, 7),
    "napa-1200-60": ("napa-scale", 1200, 60.0, 7),
}
IMPAIRED_DIGESTS = {
    "napa-1200-60": {
        "dispatch_by_kind": {
            "chunk_arrival": 21039, "demand_rebalance": 4, "discovery": 685,
            "partner_refresh": 139, "remote_pull": 5781, "tick_cohort": 150,
        },
        "events": 27798,
        "hosts": "66f5f22a09162e79f042732749d03089fb5c8b68327c54d22b1b3ed8455f8cda",
        "schedule_by_kind": {
            "chunk_arrival": 21052, "demand_rebalance": 5, "discovery": 731,
            "partner_refresh": 185, "remote_pull": 5781, "tick_cohort": 151,
        },
        "signaling": "05273d41e6bda25fa7d25c034bef9293616d821270834af7847e5126a24e72aa",
        "transfers": "c2d82b050108f0d018d68ab9d7c2a89d8ed8aab7a76c2b4f15ea0aca6f600de2",
    },
    "tvants-120": {
        "dispatch_by_kind": {
            "chunk_arrival": 16223, "demand_rebalance": 7, "discovery": 460,
            "partner_refresh": 185, "remote_pull": 19346, "tick": 13795,
        },
        "events": 50016,
        "hosts": "9e9de8debf99d0df530b5ff512faeeb6fda0231bb330183fad1ed6bfd4d2427d",
        "schedule_by_kind": {
            "chunk_arrival": 16239, "demand_rebalance": 8, "discovery": 506,
            "partner_refresh": 231, "remote_pull": 19346, "tick": 13841,
        },
        "signaling": "f559a4861425c604c8ebdd698007c461fab50ac631b3e9a991a766332d887f58",
        "transfers": "903a4dae9dbb90ab8b33e433e9e6d6d03e78fcae6235342d5fad0504702c18db",
    },
}


class TestImpairedGolden:
    """Storms and flash crowds through the engine, dense and sparse."""

    @pytest.mark.parametrize("name", sorted(IMPAIRED_CASES))
    def test_impaired_run_matches_recorded_digests(self, name):
        app, size, duration_s, seed = IMPAIRED_CASES[name]
        profile = get_profile(app)
        if size is not None:
            profile = profile.scaled_swarm(size)
        plan = ImpairmentPlan.preset(1.0, duration_s=duration_s)
        config = plan.engine_config(EngineConfig(duration_s=duration_s, seed=seed))
        rewrote = []

        def spy(joins, leaves, horizon, rng):
            out = config.churn_transform(joins, leaves, horizon, rng)
            rewrote.append(
                not (np.array_equal(out[0], joins) and np.array_equal(out[1], leaves))
            )
            return out

        result = simulate(profile, engine_config=replace(config, churn_transform=spy))
        assert rewrote == [True]  # the events really moved sessions
        assert full_digests(result) == IMPAIRED_DIGESTS[name]
