"""Table II: stream rates, overall peer counts and contributor counts.

For each application the paper reports mean/max over probes of:

* received and transmitted stream rate (kb/s, all traffic incl. signaling);
* the number of distinct peers seen ("all peers");
* the number of contributing peers in each direction.

One grouped pass over each run's flows computes them: a flow lands in the
slot of the probe at each end, per-slot byte sums stay ``uint64`` and one
``np.unique`` of packed ``(slot, peer)`` keys counts distinct peers.
Slots follow ``probe_ips``, so means add in probe order.  Contributor
counts read the run's shared views (:func:`repro.core.views.build_views`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.views import build_views
from repro.experiments.campaign import Campaign
from repro.trace.flows import FlowTable
from repro.units import to_kbps


@dataclass(frozen=True, slots=True)
class Table2Row:
    """One application's row group."""

    app: str
    rx_kbps_mean: float
    rx_kbps_max: float
    tx_kbps_mean: float
    tx_kbps_max: float
    all_peers_mean: float
    all_peers_max: int
    contrib_rx_mean: float
    contrib_rx_max: int
    contrib_tx_mean: float
    contrib_tx_max: int
    total_observed_peers: int


@dataclass
class Table2:
    """The reproduced Table II."""

    rows: list[Table2Row]

    def row(self, app: str) -> Table2Row:
        for r in self.rows:
            if r.app == app:
                return r
        raise KeyError(app)


def _per_probe_stats(flows: FlowTable, duration_s: float) -> dict:
    probe_ips = np.asarray(flows.probe_ips, dtype=np.uint32)
    n = len(probe_ips)
    order = np.argsort(probe_ips)

    def slots(ips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which addresses are probes, and each such probe's slot."""
        hit = np.isin(ips, probe_ips)
        return hit, order[np.searchsorted(probe_ips[order], ips[hit])]

    f = flows.flows
    rx, rx_slot = slots(f["dst"])
    tx, tx_slot = slots(f["src"])
    rx_bytes, tx_bytes = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
    np.add.at(rx_bytes, rx_slot, f["bytes"][rx])
    np.add.at(tx_bytes, tx_slot, f["bytes"][tx])
    rx_rates = to_kbps(rx_bytes * 8.0 / duration_s)
    tx_rates = to_kbps(tx_bytes * 8.0 / duration_s)
    peers = np.concatenate((f["src"][rx], f["dst"][tx])).astype(np.uint64)
    pairs = np.unique(np.concatenate((rx_slot, tx_slot)).astype(np.uint64) << 32 | peers)
    n_peers = np.bincount((pairs >> 32).astype(np.intp), minlength=n)
    contrib = build_views(flows)
    contrib_rx = np.bincount(slots(contrib.download.probe_ip)[1], minlength=n)
    contrib_tx = np.bincount(slots(contrib.upload.probe_ip)[1], minlength=n)
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
        "total_observed_peers": len(np.unique(peers)),
    }


def build_table2(campaign: Campaign) -> Table2:
    """Compute Table II over every run of a campaign."""
    rows = []
    for app, run in campaign.runs.items():
        stats = _per_probe_stats(run.flows, run.result.duration_s)
        rows.append(Table2Row(app=app, **stats))
    return Table2(rows=rows)
