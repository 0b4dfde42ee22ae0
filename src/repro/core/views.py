"""Contributor views: the (probe, peer) pairs the framework scores.

For every probe p the paper considers the contributing peers P(p), split
by direction: D(p) — peers p downloads video from — and U(p) — peers p
uploads to.  A :class:`DirectionalView` holds one row per (p, e) pair with
the exchanged bytes B(·,·) and the *measured* attributes of the e → p
packet stream (min IPG for capacity inference, TTL for hop inference).

Upload rows carry the reverse-flow (e → p) measurements when such a flow
exists, since capacity/TTL can only be observed on traffic *received*
from e (paper §III-C, "directionality"); rows without reverse traffic get
``inf`` / ``nan`` sentinels and partitions handle them conservatively.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from repro.errors import AnalysisError
from repro.heuristics.contributors import ContributorCriteria, contributor_mask
from repro.trace.flows import FlowTable


class Direction(Enum):
    """Traffic direction relative to the probe."""

    DOWNLOAD = "download"  # e → p
    UPLOAD = "upload"      # p → e


@dataclass(frozen=True)
class DirectionalView:
    """One row per (probe, peer) pair in one direction."""

    direction: Direction
    probe_ip: np.ndarray   # u4
    peer_ip: np.ndarray    # u4
    bytes: np.ndarray      # u8 — B(e,p) or B(p,e)
    min_ipg: np.ndarray    # f8 — of the e → p stream (inf if unseen)
    ttl: np.ndarray        # f8 — of the e → p stream (nan if unseen)

    def __post_init__(self) -> None:
        n = len(self.probe_ip)
        for name in ("peer_ip", "bytes", "min_ipg", "ttl"):
            if len(getattr(self, name)) != n:
                raise AnalysisError(f"view column {name} misaligned")

    def __len__(self) -> int:
        return len(self.probe_ip)

    def select(self, mask: np.ndarray) -> "DirectionalView":
        """Row-filtered copy."""
        return replace(
            self,
            probe_ip=self.probe_ip[mask],
            peer_ip=self.peer_ip[mask],
            bytes=self.bytes[mask],
            min_ipg=self.min_ipg[mask],
            ttl=self.ttl[mask],
        )

    @property
    def total_bytes(self) -> int:
        return int(self.bytes.sum())

    def distinct_peers(self) -> int:
        """Distinct peer addresses across all probes (a peer counted once
        even when several probes talk to it)."""
        return len(np.unique(self.peer_ip))


@dataclass(frozen=True)
class ViewPair:
    """Download and upload views of one experiment."""

    download: DirectionalView
    upload: DirectionalView

    def get(self, direction: Direction) -> DirectionalView:
        return self.download if direction is Direction.DOWNLOAD else self.upload


def _reverse_lookup(
    flows: np.ndarray, query_src: np.ndarray, query_dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """min_ipg and ttl of flows ``query_src → query_dst`` (vectorised).

    Missing flows yield (+inf, nan).
    """
    keys = (flows["src"].astype(np.uint64) << np.uint64(32)) | flows["dst"].astype(
        np.uint64
    )
    order = np.argsort(keys)  # keys are unique per flow: no ties to keep in order
    sorted_keys = keys[order]
    q = (query_src.astype(np.uint64) << np.uint64(32)) | query_dst.astype(np.uint64)
    idx = np.searchsorted(sorted_keys, q)
    idx_c = np.minimum(idx, max(len(sorted_keys) - 1, 0))
    found = (len(sorted_keys) > 0) & (sorted_keys[idx_c] == q)
    src_rows = order[idx_c]
    ipg = np.where(found, flows["min_ipg"][src_rows], np.inf)
    ttl = np.where(found, flows["ttl"][src_rows].astype(np.float64), np.nan)
    return ipg, ttl


def build_views(
    table: FlowTable,
    criteria: ContributorCriteria | None = None,
    *,
    contributors_only: bool = True,
    telemetry=None,
) -> ViewPair:
    """Download/upload contributor views of a flow table, shared per table.

    With ``contributors_only=False`` the views cover *all* contacted peers
    (used by Table III's and the analyzer's all-peer bias and by
    Figure 1).  ``telemetry`` (an optional
    :class:`~repro.obs.telemetry.Telemetry`) receives the contributor
    heuristic's classification tallies, on every call.

    The pair is built once and remembered in ``table.views_memo`` under
    ``(criteria, contributors_only)`` for as long as some caller holds
    it.  The analyzer's report holds its contributor views for the life
    of a campaign, so Tables II and III, Figure 1 and
    :func:`~repro.core.timeseries.windowed_from_flows` read the very
    pair the analyzer scored; a pair nobody holds is freed, so the memo
    keeps nothing resident itself.  Callers must not write to the
    views' arrays.
    """
    flows = table.flows
    key = _memo_key(criteria, contributors_only)
    ref, contributors = table.views_memo.get(key, (None, 0))
    views = ref() if ref is not None else None
    if views is None:
        views, contributors = _build_views(table, key[0])
        table.views_memo[key] = (weakref.ref(views), contributors)
    if telemetry is not None and contributors_only and len(flows):
        telemetry.count("heuristics/flows_classified", len(flows))
        telemetry.count("heuristics/contributors", contributors)
    return views


def adopt_views(table: FlowTable, views: ViewPair) -> None:
    """Share ``views``, the contributor pair an analyzer with default
    criteria built for ``table``, through ``table.views_memo``.

    A table that crossed a process boundary arrives with an empty memo
    while the report that travelled with it still holds its views;
    adopting them lets :func:`build_views` return that pair instead of
    building it again.
    """
    key = _memo_key(None, True)
    ref, _ = table.views_memo.get(key, (None, 0))
    if ref is None or ref() is not views:
        contributors = int(contributor_mask(table.flows, key[0]).sum())
        table.views_memo[key] = (weakref.ref(views), contributors)


def _memo_key(
    criteria: ContributorCriteria | None, contributors_only: bool
) -> tuple[ContributorCriteria | None, bool]:
    """The ``views_memo`` key of a view pair."""
    if contributors_only:
        return (criteria or ContributorCriteria(), True)
    return (None, False)  # every flow is kept; criteria are unused


def _build_views(
    table: FlowTable, criteria: ContributorCriteria | None
) -> tuple[ViewPair, int]:
    """The views of ``table`` over the flows ``criteria`` keep (all flows
    when ``criteria`` is None), and how many flows that is."""
    flows = table.flows
    probe_ips = np.asarray(table.probe_ips, dtype=np.uint32)
    if criteria is not None:
        keep = contributor_mask(flows, criteria)
    else:
        keep = np.ones(len(flows), dtype=bool)

    dst_is_probe = np.isin(flows["dst"], probe_ips)
    src_is_probe = np.isin(flows["src"], probe_ips)

    down = flows[keep & dst_is_probe]
    download = DirectionalView(
        direction=Direction.DOWNLOAD,
        probe_ip=down["dst"].copy(),
        peer_ip=down["src"].copy(),
        bytes=down["bytes"].copy(),
        min_ipg=down["min_ipg"].copy(),
        ttl=down["ttl"].astype(np.float64),
    )

    up = flows[keep & src_is_probe]
    rev_ipg, rev_ttl = _reverse_lookup(flows, up["dst"], up["src"])
    upload = DirectionalView(
        direction=Direction.UPLOAD,
        probe_ip=up["src"].copy(),
        peer_ip=up["dst"].copy(),
        bytes=up["bytes"].copy(),
        min_ipg=rev_ipg,
        ttl=rev_ttl,
    )
    return ViewPair(download=download, upload=upload), int(keep.sum())
