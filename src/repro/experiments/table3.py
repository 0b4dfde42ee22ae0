"""Table III: the NAPA-WINE self-induced bias.

Per application: the percentage of peers and bytes exchanged *among*
NAPA-WINE probes, over the contributor set and over all contacted peers.
Directions are pooled (a probe↔probe exchange counts on both sides), as in
the paper's single per-app row.  Both view sets are the run's shared
views (:func:`repro.core.views.build_views`): the contributor set is the
one the run's awareness analysis scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.views import ViewPair, build_views
from repro.experiments.campaign import Campaign


@dataclass(frozen=True, slots=True)
class Table3Row:
    """One application's self-bias percentages."""

    app: str
    contrib_peer_pct: float
    contrib_byte_pct: float
    all_peer_pct: float
    all_byte_pct: float


@dataclass
class Table3:
    """The reproduced Table III."""

    rows: list[Table3Row]

    def row(self, app: str) -> Table3Row:
        for r in self.rows:
            if r.app == app:
                return r
        raise KeyError(app)


def _pooled_bias(views: ViewPair, probe_ips: np.ndarray) -> tuple[float, float]:
    peer_ip = np.concatenate([views.download.peer_ip, views.upload.peer_ip])
    nbytes = np.concatenate([views.download.bytes, views.upload.bytes])
    if len(peer_ip) == 0:
        return float("nan"), float("nan")
    probe_peer = np.isin(peer_ip, probe_ips)
    peer_pct = 100.0 * probe_peer.sum() / len(peer_ip)
    total = nbytes.sum()
    byte_pct = float("nan") if total == 0 else 100.0 * nbytes[probe_peer].sum() / total
    return float(peer_pct), float(byte_pct)


def build_table3(campaign: Campaign) -> Table3:
    """Compute Table III over every run of a campaign."""
    rows = []
    for app, run in campaign.runs.items():
        probe_ips = np.asarray(run.flows.probe_ips, dtype=np.uint32)
        contrib = build_views(run.flows)
        everyone = build_views(run.flows, contributors_only=False)
        cp, cb = _pooled_bias(contrib, probe_ips)
        ap, ab = _pooled_bias(everyone, probe_ips)
        rows.append(
            Table3Row(
                app=app,
                contrib_peer_pct=cp,
                contrib_byte_pct=cb,
                all_peer_pct=ap,
                all_byte_pct=ab,
            )
        )
    return Table3(rows=rows)
