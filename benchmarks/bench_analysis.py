"""Performance benchmarks: the measurement/analysis pipeline.

Tracks the vectorised trace-processing throughput: flow aggregation from
the transfer log, packet-trace expansion, and the full awareness analysis
— the operations a user runs repeatedly over saved captures.
"""

import pytest

from repro.core.framework import AwarenessAnalyzer
from repro.heuristics.registry import IpRegistry
from repro.trace.flows import FlowTable, build_flow_table
from repro.trace.packets import PacketSynthesizer, signaling_counts


@pytest.fixture(scope="module")
def pplive_run(campaign):
    return campaign["pplive"]


def test_flow_aggregation(benchmark, pplive_run, campaign):
    """Transfer log → flow table (the fast analysis path)."""
    result = pplive_run.result
    table = benchmark(
        build_flow_table,
        result.transfers,
        result.signaling,
        result.hosts,
        campaign.world.paths,
    )
    benchmark.extra_info["transfers"] = len(result.transfers)
    # Records aggregated: transfers plus the datagrams the signaling
    # intervals stand for, so the summary's events/s is comparable across
    # aggregator designs (the CI regression gate tracks it).
    benchmark.extra_info["events"] = len(result.transfers) + int(
        signaling_counts(result.signaling).sum()
    )
    benchmark.extra_info["flows"] = len(table)


def test_awareness_analysis(benchmark, pplive_run, campaign):
    """Flow table → full Table IV row group (the paper's methodology)."""
    registry = IpRegistry.from_world(campaign.world)
    analyzer = AwarenessAnalyzer(registry)
    report = benchmark(analyzer.analyze, pplive_run.flows)
    benchmark.extra_info["flows"] = len(pplive_run.flows)
    benchmark.extra_info["metrics"] = len(report.metric_names)


def test_packet_expansion(benchmark, pplive_run, campaign):
    """Transfer log → packet trace (the pcap-equivalent path), on one
    probe's slice of the PPLive experiment."""
    result = pplive_run.result
    probe = int(result.probe_ips[0])
    mask = (result.transfers["src"] == probe) | (result.transfers["dst"] == probe)
    transfers = result.transfers[mask]
    synth = PacketSynthesizer(result.hosts, campaign.world.paths)
    packets = benchmark(synth.expand, transfers)
    benchmark.extra_info["transfers"] = len(transfers)
    benchmark.extra_info["packets"] = len(packets)


def test_flow_table_from_packets(benchmark, pplive_run, campaign):
    """Packet trace → flow table (the slow pcap-analyst path)."""
    result = pplive_run.result
    probe = int(result.probe_ips[0])
    mask = (result.transfers["src"] == probe) | (result.transfers["dst"] == probe)
    transfers = result.transfers[mask][:5000]
    synth = PacketSynthesizer(result.hosts, campaign.world.paths)
    packets = synth.expand(transfers)
    table = benchmark(FlowTable.from_packets, packets, result.hosts)
    benchmark.extra_info["packets"] = len(packets)
    benchmark.extra_info["flows"] = len(table)
