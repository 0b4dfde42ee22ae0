"""Figure 2: AS×AS exchanged traffic among high-bandwidth probes.

For each application the paper shows a matrix: the *average* amount of
data a high-bandwidth probe in AS-i transferred to a high-bandwidth probe
in AS-j, with the intra-AS diagonal highlighted.  The summary statistic is

    ``R = mean(intra-AS pair traffic) / mean(inter-AS pair traffic)``

with paper values R ≈ 1.93 (TVAnts), 0.98 (PPLive), 0.2 (SopCast), and an
intra-AS picture dominated by hop-0 (same-LAN) traffic for the
PPLive-Popular experiment.

An ``np.isin`` mask keeps the flows between two high-bandwidth probes and
``bincount`` sums their bytes per AS cell: byte counts are integers far
below 2^53, so the sums are exact in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.campaign import Campaign
from repro.trace.flows import FlowTable


@dataclass
class ASMatrix:
    """One application's probe-AS traffic matrix."""

    app: str
    as_numbers: list[int]
    #: mean bytes per ordered high-bw probe pair, AS_i → AS_j.
    mean_bytes: np.ndarray
    #: same matrix restricted to zero-hop (same-subnet) pairs.
    mean_bytes_local: np.ndarray
    ratio_intra_inter: float

    @property
    def local_share_intra(self) -> float:
        """Fraction of intra-AS traffic that is hop-0 (same subnet)."""
        intra = float(np.trace(self.mean_bytes))
        if intra == 0:
            return float("nan")
        return float(np.trace(self.mean_bytes_local)) / intra


@dataclass
class Figure2:
    """The reproduced Figure 2."""

    matrices: list[ASMatrix]

    def matrix(self, app: str) -> ASMatrix:
        for m in self.matrices:
            if m.app == app:
                return m
        raise KeyError(app)


def _probe_matrix(flows: FlowTable) -> ASMatrix:
    rows = flows.hosts.rows
    hb_probes = rows[(rows["is_probe"]) & (rows["highbw"])]
    as_arr, as_of_probe = np.unique(hb_probes["asn"], return_inverse=True)
    as_numbers = [int(a) for a in as_arr]
    n = len(as_numbers)

    # Ordered high-bw probe pairs per AS pair (for per-pair averaging):
    # every probe of AS-i with every probe of AS-j, less the self-pairs.
    per_as = np.bincount(as_of_probe, minlength=n).astype(np.float64)
    pairs = np.outer(per_as, per_as) - np.diag(per_as)

    ips = hb_probes["ip"]
    f = flows.flows[np.isin(flows.flows["src"], ips) & np.isin(flows.flows["dst"], ips)]
    order = np.argsort(ips)
    s, d = (order[np.searchsorted(ips[order], f[end])] for end in ("src", "dst"))
    cell = as_of_probe[s] * n + as_of_probe[d]
    nbytes = f["bytes"].astype(np.float64)
    same_subnet = hb_probes["subnet"][s] == hb_probes["subnet"][d]
    totals = np.bincount(cell, weights=nbytes, minlength=n * n).reshape(n, n)
    local = np.bincount(cell, weights=nbytes * same_subnet, minlength=n * n).reshape(n, n)

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


def build_figure2(campaign: Campaign) -> Figure2:
    """Compute Figure 2 over every run of a campaign."""
    matrices = []
    for app, run in campaign.runs.items():
        m = _probe_matrix(run.flows)
        m.app = app
        matrices.append(m)
    return Figure2(matrices=matrices)
