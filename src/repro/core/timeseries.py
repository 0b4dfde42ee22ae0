"""Time-windowed preference indices: the temporal-evolution view.

Related work the paper positions against ([11], Ali et al.) studies the
*temporal evolution* of P2P-TV metrics.  This module adds that lens to
the awareness framework: the capture is cut into fixed windows, a flow
contributes to every window it overlaps (bytes split proportionally to
overlap, assuming the flow's rate is roughly constant — the right model
for steady chunk streams), and the P/B indices are computed per window.

Useful for convergence questions ("how long must a capture be before the
indices stabilise?") and for spotting non-stationary behaviour (e.g.
churn-driven drift), neither of which a single aggregate can show.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partitions import PreferentialPartition
from repro.core.views import DirectionalView
from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class WindowedScores:
    """P/B per time window for one partition and direction."""

    window_s: float
    starts: np.ndarray        # window start times
    peer_percent: np.ndarray  # P per window (NaN when empty)
    byte_percent: np.ndarray  # B per window

    def __len__(self) -> int:
        return len(self.starts)

    def stabilisation_window(self, tolerance: float = 5.0) -> int | None:
        """First window index from which B stays within ``tolerance``
        percentage points of the final value; None if it never settles."""
        finite = np.isfinite(self.byte_percent)
        if not finite.any():
            return None
        final = self.byte_percent[finite][-1]
        ok = np.abs(self.byte_percent - final) <= tolerance
        ok |= ~finite
        for i in range(len(ok)):
            if ok[i:].all():
                return i
        return None


def windowed_preference(
    view: DirectionalView,
    indicator: np.ndarray,
    first_ts: np.ndarray,
    last_ts: np.ndarray,
    *,
    window_s: float,
    t_end: float,
) -> WindowedScores:
    """Compute per-window P/B for one view.

    Parameters
    ----------
    view / indicator:
        The contributor view and its partition indicator.
    first_ts / last_ts:
        Flow activity intervals aligned with the view's rows.
    window_s / t_end:
        Window width and capture end; windows tile ``[0, t_end)``.

    A (probe, peer) pair counts as *present* in every window its activity
    interval overlaps; its bytes are apportioned by overlap fraction.
    """
    if window_s <= 0 or t_end <= 0:
        raise AnalysisError("window and capture length must be positive")
    if not (len(view) == len(indicator) == len(first_ts) == len(last_ts)):
        raise AnalysisError("windowed_preference inputs misaligned")
    n_windows = int(np.ceil(t_end / window_s))
    starts = np.arange(n_windows) * window_s

    peer_pref = np.zeros(n_windows)
    peer_tot = np.zeros(n_windows)
    byte_pref = np.zeros(n_windows)
    byte_tot = np.zeros(n_windows)

    span = np.maximum(last_ts - first_ts, 1e-12)
    nbytes = view.bytes.astype(np.float64)
    ind = np.asarray(indicator, dtype=bool)

    for w, w_start in enumerate(starts):
        w_end = w_start + window_s
        overlap = np.minimum(last_ts, w_end) - np.maximum(first_ts, w_start)
        # Instantaneous flows (single datagram) land in their window.
        point = (last_ts == first_ts) & (first_ts >= w_start) & (first_ts < w_end)
        active = (overlap > 0) | point
        if not active.any():
            continue
        frac = np.zeros(len(view))
        frac[active] = np.clip(overlap[active] / span[active], 0.0, 1.0)
        frac[point] = 1.0
        w_bytes = nbytes * frac
        peer_tot[w] = active.sum()
        peer_pref[w] = (active & ind).sum()
        byte_tot[w] = w_bytes.sum()
        byte_pref[w] = w_bytes[ind].sum()

    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(peer_tot > 0, 100.0 * peer_pref / peer_tot, np.nan)
        b = np.where(byte_tot > 0, 100.0 * byte_pref / byte_tot, np.nan)
    return WindowedScores(
        window_s=window_s, starts=starts, peer_percent=p, byte_percent=b
    )


def windowed_from_flows(
    table,
    partition: PreferentialPartition,
    *,
    window_s: float,
    t_end: float,
    direction: str = "download",
) -> WindowedScores:
    """Convenience: windowed P/B straight from a flow table.

    Reads the table's shared contributor view (the analyzer's, when it
    ran first; see :func:`~repro.core.views.build_views`), aligns its
    flows' activity intervals, and delegates to
    :func:`windowed_preference`.
    """
    from repro.core.views import build_views
    from repro.heuristics.contributors import contributor_mask

    flows = table.flows
    keep = contributor_mask(flows)
    probe_ips = np.asarray(table.probe_ips, dtype=np.uint32)
    if direction == "download":
        mask = keep & np.isin(flows["dst"], probe_ips)
    elif direction == "upload":
        mask = keep & np.isin(flows["src"], probe_ips)
    else:
        raise AnalysisError(f"unknown direction {direction!r}")
    views = build_views(table)
    view = views.download if direction == "download" else views.upload
    sel = flows[mask]
    indicator = partition.indicator(view)
    return windowed_preference(
        view,
        indicator,
        sel["first_ts"].astype(np.float64),
        sel["last_ts"].astype(np.float64),
        window_s=window_s,
        t_end=t_end,
    )
