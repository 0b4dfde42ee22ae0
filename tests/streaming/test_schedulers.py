"""Differential scheduler suite: cross-policy invariants on live runs.

Every policy runs a full (small) experiment under an *instrumented*
scheduler subclass that records each request decision as it is made, so
the invariants are checked against the actual protocol execution — not a
re-derivation:

* **all policies** — a request is only ever issued for a chunk the probe
  is missing (request set ⊆ hole set) and never for a chunk already in
  flight (no duplicate in-flight requests);
* **rarest**      — every requested chunk was advertised by the chosen
  provider's buffer map at request time;
* **edf**         — within one tick a probe's requests are monotone in
  playout deadline, and no request is issued past its deadline;
* **rarest, edf** — under a binding attempt budget, each tick's requests
  follow the policy's ordering oracle (``order_candidates``) within the
  budget;
* **push**        — a chunk is only pushed to a probe that neither holds
  it nor has it in flight (duplicate suppression).

The instrumented subclasses add observation only — every decision is
delegated to the real policy code — so the runs also double as living
documentation of the scheduler extension points.
"""

from dataclasses import replace

import pytest

from repro.streaming.engine import EngineConfig, simulate
from repro.streaming.profiles import get_profile
from repro.streaming.schedulers import (
    SCHEDULER_NAMES,
    SCHEDULERS,
    EdfScheduler,
    MeshPullScheduler,
    PushEpidemicScheduler,
    RarestFirstScheduler,
)
from repro.streaming.schedulers.edf import playout_deadline

SMALL = dict(duration_s=20.0, seed=1234)


def small_profile(scheduler: str):
    return replace(get_profile("tvants").scaled(0.4), scheduler=scheduler)


# ------------------------------------------------------- instrumentation
class _RecordingMixin:
    """Record every request the wrapped policy issues, as it issues it.

    Wraps ``engine._request_chunk`` for the duration of each
    ``schedule_requests`` call (schedulers look the method up dynamically,
    which is the designed test seam) and asserts the universal invariants
    inline, where the full decision context still exists.  Buffer and
    in-flight membership are read from the engine's shared bitmaps.
    """

    #: Every instance the engine constructs, newest last (the engine
    #: instantiates its scheduler internally; tests read the recording
    #: back through this class attribute).
    instances: list

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls.instances = []

    def __init__(self):
        type(self).instances.append(self)
        #: One entry per tick that issued requests:
        #: (t, probe_gidx, hole list, window_chunks, [(provider, chunk)]).
        self.ticks = []

    def check_request(self, probe, provider: int, chunk: int, t: float) -> None:
        """Per-policy extension point, called before each request."""

    def schedule_requests(self, probe, t, lookahead, partners, slots):
        eng = self._engine
        soa = eng._soa
        orig = eng._request_chunk
        holes = list(lookahead)
        hole_set = set(holes)
        issued = []

        def spy(p, provider, chunk, tt):
            assert p is probe
            assert chunk in hole_set, "requested a chunk that is not missing"
            assert not soa.inflight_has(p.pi, chunk), "duplicate in-flight request"
            assert not soa.has(p.pi, chunk), "requested a chunk already held"
            self.check_request(p, provider, chunk, tt)
            issued.append((provider, chunk))
            return orig(p, provider, chunk, tt)

        eng._request_chunk = spy
        try:
            super().schedule_requests(probe, t, lookahead, partners, slots)
        finally:
            del eng.__dict__["_request_chunk"]
        if issued:
            self.ticks.append((t, probe.gidx, holes, soa.window_chunks, issued))


class RecordingMesh(_RecordingMixin, MeshPullScheduler):
    pass


class RecordingRarest(_RecordingMixin, RarestFirstScheduler):
    def __init__(self):
        super().__init__()
        self._current_ads = {}

    def _snapshot_ads(self, probe, t, lookahead, partners):
        # The ground-truth buffer map this tick's decisions will see,
        # re-derived here without the engine's availability kernels:
        # remote partners through the diffusion oracle's scalar
        # ``has_chunk``, probe partners through their buffer bits.  Both
        # are pure reads (no RNG), so recomputing them cannot perturb the
        # run.
        eng = self._engine
        nr = eng.n_remote
        self._current_ads = {
            c: {
                g
                for g in partners.tolist()
                if (
                    eng.availability.has_chunk(g, c, t)
                    if g < nr
                    else eng._soa.has(g - nr, c)
                )
            }
            for c in lookahead
        }

    def schedule_requests(self, probe, t, lookahead, partners, slots):
        self._snapshot_ads(probe, t, lookahead, partners)
        super().schedule_requests(probe, t, lookahead, partners, slots)

    def check_request(self, probe, provider, chunk, t):
        assert provider in self._current_ads.get(chunk, ()), (
            f"rarest requested chunk {chunk} from {provider}, "
            "which did not advertise it"
        )


class RecordingEdf(_RecordingMixin, EdfScheduler):
    def check_request(self, probe, provider, chunk, t):
        eng = self._engine
        interval = eng._av_chunk_interval
        deadline = playout_deadline(chunk, interval, eng._soa.window_chunks)
        assert deadline > t, (
            f"edf requested chunk {chunk} after its playout deadline "
            f"({deadline:.3f} <= {t:.3f})"
        )


class RecordingPush(_RecordingMixin, PushEpidemicScheduler):
    def __init__(self):
        super().__init__()
        self.push_count = 0

    def on_chunk_received(self, probe, chunk, provider, t):
        soa = self._engine._soa
        before = [
            (st, soa.inflight_has(st.pi, chunk), soa.has(st.pi, chunk))
            for st in self._engine._probes
        ]
        super().on_chunk_received(probe, chunk, provider, t)
        for st, was_inflight, was_held in before:
            if st is probe or was_inflight:
                continue
            if soa.inflight_has(st.pi, chunk):  # newly pushed to this target
                assert not was_held, "pushed a chunk the target already held"
                self.push_count += 1


_RECORDERS = {
    "mesh-pull": RecordingMesh,
    "rarest": RecordingRarest,
    "edf": RecordingEdf,
    "push": RecordingPush,
}


def _recorded_run(name: str, recorder=None, **config):
    """Simulate one small experiment under the instrumented policy."""
    recorder = recorder or _RECORDERS[name]
    original = SCHEDULERS[name]
    SCHEDULERS[name] = recorder
    try:
        result = simulate(
            small_profile(name), engine_config=EngineConfig(**SMALL, **config)
        )
    finally:
        SCHEDULERS[name] = original
    return result, recorder.instances[-1]


@pytest.fixture(scope="module")
def runs():
    """Memoised access to one instrumented run per policy."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = _recorded_run(name)
        return cache[name]

    return get


@pytest.fixture(scope="module", params=sorted(SCHEDULER_NAMES))
def recorded(request, runs):
    """(policy name, result, recording) for each policy — run once each."""
    result, recording = runs(request.param)
    return request.param, result, recording


# ------------------------------------------------------------ invariants
def test_every_policy_name_has_a_recorder():
    assert set(_RECORDERS) == set(SCHEDULER_NAMES)


def test_policy_issues_requests_and_streams(recorded):
    """Inline asserts only bite if requests actually happen — prove they do."""
    name, result, recording = recorded
    assert recording.ticks, f"{name}: no pull requests were ever issued"
    assert len(result.transfers) > 1000, f"{name}: streaming collapsed"


def test_requests_are_subset_of_holes(recorded):
    """request set ⊆ hole set, re-checked from the recorded ticks."""
    name, _result, recording = recorded
    for _t, _probe, holes, _window, issued in recording.ticks:
        hole_set = set(holes)
        for _provider, chunk in issued:
            assert chunk in hole_set


def test_no_duplicate_requests_within_a_tick(recorded):
    name, _result, recording = recorded
    for _t, _probe, _holes, _window, issued in recording.ticks:
        chunks = [c for _p, c in issued]
        assert len(chunks) == len(set(chunks)), (
            f"{name}: same chunk requested twice in one tick"
        )


def test_edf_requests_are_deadline_monotone(runs):
    """Within a tick, EDF's request sequence never goes back in deadline."""
    _result, recording = runs("edf")
    checked = 0
    for _t, _probe, _holes, _window, issued in recording.ticks:
        chunks = [c for _p, c in issued]
        # deadline(c) is strictly increasing in c, so deadline order == id order
        assert chunks == sorted(chunks)
        checked += len(chunks)
    assert checked > 0


def test_push_actually_pushes(runs):
    _result, recording = runs("push")
    assert recording.push_count > 100, "push policy forwarded almost nothing"


# ------------------------------------------------- order under a budget
#: An attempt budget small enough to bind on a tvants-sized window.
BUDGET = 4


class _OracleOrderMixin:
    """Check each tick's requests against the policy's ordering oracle.

    A policy may skip a candidate (every advertiser at its pipelining
    cap, a stale buffer map) but never reorder candidates or reach past
    the first ``BUDGET`` of them, so a tick's issued chunks must be a
    subsequence of ``oracle(...)[:BUDGET]``.  ``bound`` counts the ticks
    the budget cut short: more candidates than the budget, yet fewer
    requests than free slots.
    """

    def __init__(self):
        super().__init__()
        self.checked = 0
        self.bound = 0

    def oracle(self, t: float, holes: list[int]) -> list[int]:
        raise NotImplementedError

    def schedule_requests(self, probe, t, lookahead, partners, slots):
        holes = list(lookahead)
        n_ticks = len(self.ticks)
        super().schedule_requests(probe, t, lookahead, partners, slots)
        issued = [c for _p, c in self.ticks[-1][4]] if len(self.ticks) > n_ticks else []
        candidates = self.oracle(t, holes)
        head = iter(candidates[:BUDGET])
        assert all(c in head for c in issued), (
            f"{self.name} at t={t:.3f} issued {issued}, not a subsequence of "
            f"its oracle's first {BUDGET} candidates {candidates[:BUDGET]}"
        )
        self.checked += bool(issued)
        self.bound += len(candidates) > BUDGET and len(issued) < slots


class BudgetRarest(_OracleOrderMixin, RecordingRarest):
    def oracle(self, t, holes):
        # The advertiser snapshot RecordingRarest took for this tick.
        counts = {c: len(ads) for c, ads in self._current_ads.items()}
        return RarestFirstScheduler.order_candidates(holes, counts)


class BudgetEdf(_OracleOrderMixin, RecordingEdf):
    def oracle(self, t, holes):
        eng = self._engine
        return EdfScheduler.order_candidates(
            holes, t, eng._av_chunk_interval, eng._soa.window_chunks
        )


@pytest.mark.parametrize("recorder", [BudgetRarest, BudgetEdf], ids=["rarest", "edf"])
def test_ordering_policies_follow_their_oracle_under_a_binding_budget(recorder):
    _result, recording = _recorded_run(
        recorder.name, recorder, max_probe_attempts=BUDGET
    )
    assert recording.checked > 100
    assert recording.bound > 0, "the attempt budget never bound"


# ------------------------------------------------- configuration errors
class TestConfigurationRejection:
    def test_get_scheduler_rejects_unknown_name(self):
        from repro.errors import ConfigurationError
        from repro.streaming.schedulers import get_scheduler

        with pytest.raises(ConfigurationError) as exc:
            get_scheduler("bittorrent")
        message = str(exc.value)
        assert "bittorrent" in message
        for name in SCHEDULER_NAMES:
            assert name in message

    def test_profile_rejects_unknown_scheduler(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="valid choices"):
            replace(get_profile("tvants"), scheduler="bittorrent")

    def test_campaign_config_rejects_unknown_scheduler(self):
        from repro.errors import ConfigurationError
        from repro.experiments.campaign import CampaignConfig

        with pytest.raises(ConfigurationError, match="valid choices"):
            CampaignConfig(scheduler="bittorrent")

    def test_campaign_config_env_default(self, monkeypatch):
        from repro.experiments.campaign import CampaignConfig
        from repro.streaming.schedulers import ENV_SCHEDULER

        monkeypatch.delenv(ENV_SCHEDULER, raising=False)
        assert CampaignConfig().scheduler == "mesh-pull"
        monkeypatch.setenv(ENV_SCHEDULER, "rarest")
        assert CampaignConfig().scheduler == "rarest"

    def test_every_profile_defaults_to_mesh_pull(self):
        from repro.streaming.profiles import PROFILES

        for name in PROFILES:
            assert get_profile(name).scheduler == "mesh-pull"


# ------------------------------------------------- awareness recovery
class TestAwarenessRecoveryUnderEveryPolicy:
    """The paper's framework is scheduler-independent.

    The P/B preference indices see only traffic, never the simulator's
    selection weights — so embedded awareness must be recovered (and
    absent awareness must score ≈ uniform) no matter which chunk
    scheduler moved the bytes.  This is the acceptance criterion of the
    scheduler extension: policies change *which* chunks flow when, not
    *who* the application prefers to exchange them with.
    """

    @staticmethod
    def _as_scores(profile, scheduler):
        from repro import analyze_experiment

        result = simulate(
            replace(profile, scheduler=scheduler), duration_s=100.0, seed=31
        )
        return analyze_experiment(result)["AS"].download

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_NAMES))
    def test_embedded_as_bias_recovered(self, scheduler):
        base = get_profile("random")
        from repro.streaming import SelectionWeights

        aware = replace(
            base,
            name="as-aware",
            partner_weights=SelectionWeights(bw=1.8, as_=1.2),
            provider_weights=SelectionWeights(bw=2.2, as_=2.4),
            discovery_as_bias=3.0,
        )
        scores = self._as_scores(aware, scheduler)
        # Observed across policies: B' in [15.7, 27.3], P' in [11.1, 14.8].
        assert scores.B_prime > 8.0, f"{scheduler}: AS bias went undetected"
        assert scores.B_prime > 1.2 * scores.P_prime, (
            f"{scheduler}: byte preference did not exceed peer preference"
        )

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULER_NAMES))
    def test_oblivious_app_stays_near_uniform(self, scheduler):
        scores = self._as_scores(get_profile("random"), scheduler)
        # Observed across policies: B' in [1.2, 3.9], B' − P' ≤ 2.2.
        assert scores.B_prime < 6.0, (
            f"{scheduler}: the scheduler itself induced a phantom AS preference"
        )
        assert abs(scores.B_prime - scores.P_prime) < 3.0
