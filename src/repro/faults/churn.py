"""Churn faults: storms (mass departures) and flash crowds (mass joins).

The baseline churn model (:func:`~repro.population.churn.draw_session_bounds`)
draws smooth Poisson arrivals and log-normal sessions.  Real broadcasts
see *events*: an ISP outage or a boring half drains the swarm in seconds
(a storm); a goal or a channel switch floods it (a flash crowd).  Both are
expressed as rewrites of the drawn (join, leave) columns, so the engine
stays oblivious: it consumes the columns exactly as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import FaultInjectionError


@dataclass(frozen=True, slots=True)
class ChurnStorm:
    """A mass-departure window.

    Each peer online during ``[at_s, at_s + duration_s)`` leaves with
    probability ``leave_fraction``, at a time drawn uniformly inside the
    window (departures cluster but are not perfectly synchronised).
    """

    at_s: float
    duration_s: float = 30.0
    leave_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at_s) and math.isfinite(self.duration_s)):
            raise FaultInjectionError("storm window must be finite")
        if self.at_s < 0 or self.duration_s <= 0:
            raise FaultInjectionError("storm window must be positive and start at t >= 0")
        if not 0.0 <= self.leave_fraction <= 1.0:
            raise FaultInjectionError("leave_fraction must be a probability")


@dataclass(frozen=True, slots=True)
class FlashCrowd:
    """A mass-arrival event.

    Each peer that had not yet joined by ``at_s`` joins at ``at_s`` with
    probability ``join_fraction``; flash-crowd sessions last an
    exponential ``mean_stay_s`` (channel surfers mostly leave quickly).
    """

    at_s: float
    join_fraction: float = 0.5
    mean_stay_s: float = 120.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at_s) and math.isfinite(self.mean_stay_s)):
            raise FaultInjectionError("flash crowd start and mean stay must be finite")
        if self.at_s < 0:
            raise FaultInjectionError("flash crowd must start at t >= 0")
        if not 0.0 <= self.join_fraction <= 1.0:
            raise FaultInjectionError("join_fraction must be a probability")
        if self.mean_stay_s <= 0:
            raise FaultInjectionError("mean_stay_s must be positive")


def apply_churn_events(
    joins: np.ndarray,
    leaves: np.ndarray,
    horizon: float,
    storms: tuple[ChurnStorm, ...],
    crowds: tuple[FlashCrowd, ...],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Overlay storms and flash crowds on drawn ``(joins, leaves)`` columns.

    Returns new columns (the inputs are not modified; with no events they
    are returned as they are).  Events apply in time order.  A peer keeps
    at most one session (the baseline model's invariant): storms can only
    shorten sessions, flash crowds can only pull not-yet-joined peers
    forward — nobody rejoins.
    """
    if not storms and not crowds:
        return joins, leaves
    joins = np.array(joins, dtype=np.float64)
    leaves = np.array(leaves, dtype=np.float64)

    events: list[tuple[float, object]] = [(s.at_s, s) for s in storms]
    events += [(c.at_s, c) for c in crowds]
    for at, event in sorted(events, key=lambda pair: pair[0]):
        if isinstance(event, ChurnStorm):
            stop = min(at + event.duration_s, horizon)
            online = (joins <= at) & (leaves > at)
            hit = online & (rng.random(len(joins)) < event.leave_fraction)
            if hit.any():
                leaves[hit] = np.minimum(
                    leaves[hit], rng.uniform(at, stop, size=int(hit.sum()))
                )
        else:  # FlashCrowd
            late = joins > at
            hit = late & (rng.random(len(joins)) < event.join_fraction)
            if hit.any():
                n = int(hit.sum())
                joins[hit] = at
                stays = rng.exponential(event.mean_stay_s, size=n)
                leaves[hit] = np.minimum(at + stays, horizon)

    # Clipping can never invert a session.
    return joins, np.maximum(leaves, joins)
