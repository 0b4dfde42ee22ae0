"""Figure 1: geographical breakdown of peers and exchanged bytes.

Per application, three stacked bars: the share of observed peers (#), of
received bytes (RX) and of transmitted bytes (TX) by country — CN, the
four probe countries, and '*' for the rest of the world.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.views import build_views
from repro.exec.context import analysis_registry
from repro.experiments.campaign import Campaign
from repro.heuristics.registry import IpRegistry
from repro.topology.geography import FIGURE1_LABELS

#: Catch-all label for countries outside the explicit set.
OTHER = "*"


@dataclass(frozen=True, slots=True)
class Figure1Bars:
    """One application's three bars; values are % by country label."""

    app: str
    peers: dict[str, float]
    rx_bytes: dict[str, float]
    tx_bytes: dict[str, float]
    total_peers: int


@dataclass
class Figure1:
    """The reproduced Figure 1."""

    bars: list[Figure1Bars]
    labels: tuple[str, ...] = FIGURE1_LABELS + (OTHER,)

    def bar(self, app: str) -> Figure1Bars:
        for b in self.bars:
            if b.app == app:
                return b
        raise KeyError(app)


def _bucket(country_codes: np.ndarray) -> np.ndarray:
    return np.where(np.isin(country_codes, FIGURE1_LABELS), country_codes, OTHER)


def _shares(labels: np.ndarray, weights: np.ndarray | None = None) -> dict[str, float]:
    out = {label: 0.0 for label in FIGURE1_LABELS + (OTHER,)}
    if len(labels) == 0:
        return out
    if weights is None:
        weights = np.ones(len(labels))
    total = weights.sum()
    if total == 0:
        return out
    for label in out:
        out[label] = float(100.0 * weights[labels == label].sum() / total)
    return out


def build_figure1(campaign: Campaign, registry: IpRegistry | None = None) -> Figure1:
    """Compute Figure 1 over every run of a campaign.

    Peer shares count distinct observed peers (signaling-only contacts
    included, as in the paper's "total number of observed peers"); byte
    shares weight by exchanged volume per direction.

    Without an explicit ``registry``, each run resolves against its own
    host table (the exact-address GeoIP stand-in) — the campaign world's
    prefix plan predates swarm placement and does not cover overflow
    prefixes attached while placing very large populations.
    """
    bars = []
    for app, run in campaign.runs.items():
        reg = registry or analysis_registry(run.result.hosts, campaign.world)
        views = build_views(run.flows, contributors_only=False)
        all_peers = np.unique(
            np.concatenate([views.download.peer_ip, views.upload.peer_ip])
        )
        peer_labels = _bucket(reg.country_of(all_peers))
        rx_labels = _bucket(reg.country_of(views.download.peer_ip))
        tx_labels = _bucket(reg.country_of(views.upload.peer_ip))
        bars.append(
            Figure1Bars(
                app=app,
                peers=_shares(peer_labels),
                rx_bytes=_shares(rx_labels, views.download.bytes.astype(np.float64)),
                tx_bytes=_shares(tx_labels, views.upload.bytes.astype(np.float64)),
                total_peers=len(all_peers),
            )
        )
    return Figure1(bars=bars)
