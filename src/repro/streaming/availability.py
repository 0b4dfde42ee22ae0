"""Statistical chunk-availability model for the remote swarm.

Only the probes run the full protocol (their traffic is what the paper
captures).  A remote peer's buffer state is summarised by one number: its
*diffusion delay* d — how long after generation a chunk typically reaches
it through the (unsimulated) remote mesh.  High-bandwidth peers sit closer
to the source in mesh-pull systems and receive chunks earlier, which is
exactly the mechanism that makes them better providers.

Remote peer r holds chunk c at time t iff::

    max(gen_time(c) + d_r, join_r + startup) <= t < gen_time(c) + retention

(the chunk has had time to diffuse to r, r was already watching, and the
chunk is still inside r's sliding retention window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.streaming.chunk import ChunkClock


@dataclass(frozen=True, slots=True)
class AvailabilityConfig:
    """Diffusion-delay distribution knobs.

    Delays are ``base + Exp(scale)``, with separate parameters per
    bandwidth class.
    """

    highbw_base_s: float = 0.8
    highbw_scale_s: float = 1.2
    lowbw_base_s: float = 1.2
    lowbw_scale_s: float = 1.8
    startup_s: float = 8.0
    retention_s: float = 60.0

    def __post_init__(self) -> None:
        if min(self.highbw_base_s, self.lowbw_base_s) < 0:
            raise ConfigurationError("diffusion bases must be non-negative")
        if min(self.highbw_scale_s, self.lowbw_scale_s) <= 0:
            raise ConfigurationError("diffusion scales must be positive")
        if self.retention_s <= self.startup_s:
            raise ConfigurationError("retention must exceed startup")


class RemoteAvailability:
    """Vectorised availability oracle over a remote peer population.

    Per-peer state is two float64 arrays, ``delays`` and ``ready_from``.
    Vector callers index them (:meth:`subset`); scalar callers read one
    peer through :meth:`scalar_view`.
    """

    def __init__(
        self,
        clock: ChunkClock,
        highbw: np.ndarray,
        joins: np.ndarray,
        config: AvailabilityConfig,
        rng: np.random.Generator,
    ) -> None:
        """
        Parameters
        ----------
        clock:
            The channel chunk clock.
        highbw:
            Boolean array, one entry per remote peer.
        joins:
            Session join times, aligned with ``highbw``.
        config / rng:
            Distribution knobs and the seeded generator used to draw each
            peer's diffusion delay once (delays are then fixed).
        """
        n = len(highbw)
        if len(joins) != n:
            raise ConfigurationError("highbw and joins must be aligned")
        base = np.where(highbw, config.highbw_base_s, config.lowbw_base_s)
        scale = np.where(highbw, config.highbw_scale_s, config.lowbw_scale_s)
        self.delays = base + rng.exponential(1.0, size=n) * scale
        self.ready_from = np.maximum(0.0, np.asarray(joins, dtype=float)) + config.startup_s
        self._chunk_interval = clock.chunk_interval
        self._retention_s = config.retention_s

    def __len__(self) -> int:
        return len(self.delays)

    @property
    def chunk_interval(self) -> float:
        """Chunk generation interval (s) — the clock constant the oracle uses."""
        return self._chunk_interval

    @property
    def retention_s(self) -> float:
        """How long a remote retains a chunk after its generation time."""
        return self._retention_s

    def scalar_view(self, peer_idx: int) -> tuple[float, float]:
        """``(diffusion delay, ready_from)`` of one peer as plain floats.

        Callers that probe one remote across several chunks hoist the
        two lookups and inline the :meth:`has_chunk` arithmetic — same
        doubles, same compares.
        """
        return float(self.delays[peer_idx]), float(self.ready_from[peer_idx])

    def has_chunk(self, peer_idx: int, chunk_id: int, t: float) -> bool:
        """Whether remote ``peer_idx`` holds ``chunk_id`` at time ``t``."""
        gen = chunk_id * self._chunk_interval
        if t >= gen + self._retention_s:
            return False
        delay, ready = self.scalar_view(peer_idx)
        arrival = gen + delay
        if ready > arrival:
            arrival = ready
        return t >= arrival

    def subset(self, peer_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(delays, ready_from)`` restricted to ``peer_idx``.

        Callers that query the same peer subset repeatedly (the engine's
        per-tick partner sets) fancy-index once and derive per-chunk
        arrival thresholds ``max(gen + delays, ready)`` from the pair —
        the :meth:`has_chunk` arithmetic, hoisted.
        """
        idx = np.asarray(peer_idx, dtype=np.int64)
        return self.delays[idx], self.ready_from[idx]

    def newest_missing(self, peer_idx: int, t: float) -> int | None:
        """The newest chunk ``peer_idx`` does *not* yet hold at ``t``.

        This is what the remote would pull from a probe: its current
        deficit at the live edge.  Returns None while the peer is still in
        startup (it wants everything; callers treat that as the live edge).
        """
        live = int(t / self._chunk_interval)
        # Peer holds chunk c iff gen(c) + delay <= t, i.e. c <= (t-delay)/dt.
        delay, ready = self.scalar_view(peer_idx)
        have_up_to = int(max(0.0, t - delay) / self._chunk_interval)
        if t < ready:
            return live
        missing = have_up_to + 1
        return missing if missing <= live else None
