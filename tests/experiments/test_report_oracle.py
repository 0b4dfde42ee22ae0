"""Report builders against their verbatim oracles, and view sharing.

``report_oracle.py`` keeps the per-probe Table II loop, Table III's pooled
bias and Figure 2's per-flow probe-pair test as they were.  The builders
in ``src/`` must equal them field for field, floats by bits, on every
run of a campaign, on a run where one probe has no flows and on an empty
flow table.  The sharing tests pin that one campaign's rendering builds
each run's views at most once, and that the shared views never travel
inside a shard outcome.
"""

import dataclasses
import pickle
import weakref

import numpy as np
import pytest

import repro.core.views as views_mod
from repro.core.views import adopt_views, build_views
from repro.exec.shards import ShardKey, ShardSpec
from repro.exec.worker import run_shard
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.figure2 import _probe_matrix, build_figure2
from repro.experiments.table2 import _per_probe_stats, build_table2
from repro.experiments.table3 import _pooled_bias, build_table3
from repro.experiments.table4 import build_table4
from repro.obs.telemetry import Telemetry
from repro.trace.flows import FlowTable
from repro.trace.records import FLOW_DTYPE
from tests.experiments.report_oracle import (
    oracle_per_probe_stats,
    oracle_pooled_bias,
    oracle_probe_matrix,
)


def _bits(value):
    """A value's identity for comparison: floats by their IEEE bits."""
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    return (type(value).__name__, value)


def _tables(campaign):
    """Every run's flow table, one with a probe that has no flows, and an
    empty table — each with its run's duration."""
    out = [(run.flows, run.result.duration_s) for run in campaign.runs.values()]
    run = next(iter(campaign.runs.values()))
    f = run.flows.flows
    silent = run.flows.probe_ips[0]
    quiet = FlowTable(f[(f["src"] != silent) & (f["dst"] != silent)], run.flows.hosts)
    assert len(quiet) < len(f) and silent in quiet.probe_ips
    out.append((quiet, run.result.duration_s))
    out.append((FlowTable(np.empty(0, dtype=FLOW_DTYPE), run.flows.hosts),
                run.result.duration_s))
    return out


class TestAgainstOracle:
    def test_table2_stats(self, campaign_small):
        for table, duration in _tables(campaign_small):
            got = _per_probe_stats(table, duration)
            want = oracle_per_probe_stats(table, duration)
            assert list(got) == list(want)
            assert {k: _bits(v) for k, v in got.items()} == {
                k: _bits(v) for k, v in want.items()
            }

    def test_table3_pooled_bias(self, campaign_small):
        for table, _ in _tables(campaign_small):
            probe_ips = np.asarray(table.probe_ips, dtype=np.uint32)
            for contributors_only in (True, False):
                views = build_views(table, contributors_only=contributors_only)
                got = _pooled_bias(views, probe_ips)
                want = oracle_pooled_bias(views, probe_ips)
                assert [_bits(v) for v in got] == [_bits(v) for v in want]

    def test_figure2_matrix(self, campaign_small):
        for table, _ in _tables(campaign_small):
            got, want = _probe_matrix(table), oracle_probe_matrix(table)
            assert got.as_numbers == want.as_numbers
            assert all(type(a) is int for a in got.as_numbers)
            for field in ("mean_bytes", "mean_bytes_local", "ratio_intra_inter"):
                assert _bits(getattr(got, field)) == _bits(getattr(want, field))


@pytest.fixture(scope="module")
def campaign_process():
    """A two-app campaign whose runs were analysed in worker processes."""
    cfg = CampaignConfig(apps=("sopcast", "tvants"), duration_s=20.0, scale=0.3, seed=3)
    return run_campaign(cfg, backend="process", workers=2)


class TestSharedViews:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_rendering_builds_each_runs_views_at_most_once(self, request, monkeypatch, backend):
        campaign = request.getfixturevalue(
            "campaign_small" if backend == "serial" else "campaign_process"
        )
        builds = []
        build = views_mod._build_views

        def counting(table, criteria):
            builds.append((id(table), criteria))
            return build(table, criteria)

        monkeypatch.setattr(views_mod, "_build_views", counting)
        for render in (build_table2, build_table3, build_table4, build_figure2):
            render(campaign)
        assert len(builds) == len(set(builds))
        # The contributor views are the ones the analyzer scored: its
        # report holds them, so rendering reuses them, also when the
        # report and its flow table were pickled back from a worker.
        assert all(criteria is None for _, criteria in builds)
        assert len(builds) == len(campaign.runs)
        for run in campaign.runs.values():
            assert build_views(run.flows) is run.report.views

    def test_memo_keeps_nothing_alive(self, flows_small):
        table = FlowTable(flows_small.flows, flows_small.hosts)
        everyone = build_views(table, contributors_only=False)
        assert build_views(table, contributors_only=False) is everyone
        dead = weakref.ref(everyone)
        del everyone
        assert dead() is None
        assert build_views(table, contributors_only=False) is not None

    def test_hit_still_tallies_contributors(self, flows_small):
        table = FlowTable(flows_small.flows, flows_small.hosts)
        first, second = Telemetry(), Telemetry()
        held = build_views(table, telemetry=first)
        assert build_views(table, telemetry=second) is held
        for name in ("heuristics/flows_classified", "heuristics/contributors"):
            assert second.counter(name) == first.counter(name) > 0

    def test_adopted_views_tally_like_built_ones(self, flows_small):
        first, second = Telemetry(), Telemetry()
        views = build_views(FlowTable(flows_small.flows, flows_small.hosts), telemetry=first)
        table = FlowTable(flows_small.flows, flows_small.hosts)
        adopt_views(table, views)
        assert build_views(table, telemetry=second) is views
        for name in ("heuristics/flows_classified", "heuristics/contributors"):
            assert second.counter(name) == first.counter(name) > 0

    def test_default_criteria_share_one_pair(self, flows_small):
        from repro.heuristics.contributors import ContributorCriteria

        table = FlowTable(flows_small.flows, flows_small.hosts)
        held = build_views(table)
        assert build_views(table, ContributorCriteria()) is held
        assert build_views(table, ContributorCriteria(min_payload_bytes=9000)) is not held


class TestOutcomePickle:
    @pytest.fixture(scope="class")
    def outcome(self):
        cfg = CampaignConfig(apps=("tvants",), duration_s=20.0, scale=0.3, seed=3)
        return run_shard(ShardSpec(key=ShardKey(3, "tvants", 0), config=cfg))

    def test_views_never_travel(self, outcome):
        flows = outcome.flows
        held = build_views(flows), build_views(flows, contributors_only=False)
        assert held[0] is outcome.report.views
        assert len(flows.views_memo) == 2
        # The table pickles as the bare (flows, hosts) state it always
        # had, so the outcome is as large as one holding a fresh table.
        assert set(flows.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2]) == {"flows", "hosts"}
        bare = dataclasses.replace(outcome, flows=FlowTable(flows.flows, flows.hosts))
        assert len(pickle.dumps(outcome)) == len(pickle.dumps(bare))
        restored = pickle.loads(pickle.dumps(outcome))
        assert restored.flows.views_memo == {}
        assert restored.flows.flows.tobytes() == flows.flows.tobytes()
