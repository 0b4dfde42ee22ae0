"""The per-probe report builders: differential oracles for Tables II–III and Figure 2.

:func:`repro.experiments.table2._per_probe_stats` computes Table II in one
grouped pass over the flow table, :func:`repro.experiments.figure2.
_probe_matrix` masks probe pairs with ``np.isin`` and Table III reads the
run's shared views.  These are the implementations they replaced, kept
verbatim: Table II scans the flow table twice per probe and runs
``np.unique`` per probe, and Figure 2 tests every flow's ``(src, dst)``
in Python.  ``tests/experiments/test_report_oracle.py`` requires the new
builders to equal them field for field, floats by bits.  Nothing in
``src/`` calls them.
"""

from __future__ import annotations

import numpy as np

from repro.core.views import ViewPair, build_views
from repro.experiments.figure2 import ASMatrix
from repro.trace.flows import FlowTable
from repro.units import to_kbps


def oracle_per_probe_stats(flows: FlowTable, duration_s: float) -> dict:
    probe_ips = flows.probe_ips
    contrib = build_views(flows)
    everyone = build_views(flows, contributors_only=False)

    rx_rates, tx_rates, n_peers = [], [], []
    contrib_rx, contrib_tx = [], []
    for ip in probe_ips:
        ip = int(ip)
        rx = flows.received_by(ip)
        tx = flows.sent_by(ip)
        rx_rates.append(to_kbps(rx["bytes"].sum() * 8.0 / duration_s))
        tx_rates.append(to_kbps(tx["bytes"].sum() * 8.0 / duration_s))
        n_peers.append(
            len(np.unique(np.concatenate([rx["src"], tx["dst"]])))
        )
        contrib_rx.append(int((contrib.download.probe_ip == np.uint32(ip)).sum()))
        contrib_tx.append(int((contrib.upload.probe_ip == np.uint32(ip)).sum()))

    total_observed = len(
        np.unique(
            np.concatenate(
                [everyone.download.peer_ip, everyone.upload.peer_ip]
            )
        )
    )
    return {
        "rx_kbps_mean": float(np.mean(rx_rates)),
        "rx_kbps_max": float(np.max(rx_rates)),
        "tx_kbps_mean": float(np.mean(tx_rates)),
        "tx_kbps_max": float(np.max(tx_rates)),
        "all_peers_mean": float(np.mean(n_peers)),
        "all_peers_max": int(np.max(n_peers)),
        "contrib_rx_mean": float(np.mean(contrib_rx)),
        "contrib_rx_max": int(np.max(contrib_rx)),
        "contrib_tx_mean": float(np.mean(contrib_tx)),
        "contrib_tx_max": int(np.max(contrib_tx)),
        "total_observed_peers": total_observed,
    }


def oracle_pooled_bias(views: ViewPair, probe_ips: np.ndarray) -> tuple[float, float]:
    peer_ip = np.concatenate([views.download.peer_ip, views.upload.peer_ip])
    nbytes = np.concatenate([views.download.bytes, views.upload.bytes])
    if len(peer_ip) == 0:
        return float("nan"), float("nan")
    probe_peer = np.isin(peer_ip, probe_ips)
    peer_pct = 100.0 * probe_peer.sum() / len(peer_ip)
    total = nbytes.sum()
    byte_pct = float("nan") if total == 0 else 100.0 * nbytes[probe_peer].sum() / total
    return float(peer_pct), float(byte_pct)


def oracle_probe_matrix(flows: FlowTable) -> ASMatrix:
    hosts = flows.hosts
    rows = hosts.rows
    hb_probes = rows[(rows["is_probe"]) & (rows["highbw"])]
    as_numbers = sorted(set(int(a) for a in hb_probes["asn"]))
    index = {a: i for i, a in enumerate(as_numbers)}
    n = len(as_numbers)
    totals = np.zeros((n, n))
    local = np.zeros((n, n))
    pairs = np.zeros((n, n))

    ips = hb_probes["ip"]
    asn_of = {int(r["ip"]): int(r["asn"]) for r in hb_probes}
    subnet_of = {int(r["ip"]): int(r["subnet"]) for r in hb_probes}

    # Count every ordered high-bw probe pair (for per-pair averaging).
    for a in ips:
        for b in ips:
            if a == b:
                continue
            pairs[index[asn_of[int(a)]], index[asn_of[int(b)]]] += 1

    f = flows.flows
    probe_set = set(int(i) for i in ips)
    both = np.array(
        [int(s) in probe_set and int(d) in probe_set for s, d in zip(f["src"], f["dst"])]
    ) if len(f) else np.zeros(0, dtype=bool)
    for row in f[both] if len(f) else []:
        s, d = int(row["src"]), int(row["dst"])
        i, j = index[asn_of[s]], index[asn_of[d]]
        totals[i, j] += row["bytes"]
        if subnet_of[s] == subnet_of[d]:
            local[i, j] += row["bytes"]

    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(pairs > 0, totals / np.maximum(pairs, 1), 0.0)
        mean_local = np.where(pairs > 0, local / np.maximum(pairs, 1), 0.0)

    diag = np.eye(n, dtype=bool)
    intra_pairs, inter_pairs = pairs[diag].sum(), pairs[~diag].sum()
    intra = totals[diag].sum() / intra_pairs if intra_pairs else float("nan")
    inter = totals[~diag].sum() / inter_pairs if inter_pairs else float("nan")
    ratio = intra / inter if inter and np.isfinite(inter) and inter > 0 else float("nan")

    return ASMatrix(
        app="",
        as_numbers=as_numbers,
        mean_bytes=mean,
        mean_bytes_local=mean_local,
        ratio_intra_inter=float(ratio),
    )
