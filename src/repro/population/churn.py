"""Session churn: when remote peers are online.

Live-TV audiences churn: viewers join and leave throughout the broadcast.
We model each remote peer with at most one session inside the experiment
window: a fraction of the swarm is present from the start (tuned-in before
the capture began), the rest arrive as a Poisson process; session lengths
are log-normal with a heavy tail (the "stable peers" of the literature).

The churn process is materialised up-front into aligned (join, leave)
columns so the event engine can consume it without further randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class ChurnConfig:
    """Churn process knobs.

    Parameters
    ----------
    initial_fraction:
        Fraction of the swarm already online at t = 0.
    mean_session_s:
        Mean session duration (log-normal).
    sigma:
        Log-normal shape parameter; larger = heavier tail.
    """

    initial_fraction: float = 0.75
    mean_session_s: float = 1500.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.initial_fraction <= 1:
            raise ConfigurationError("initial_fraction must be in [0, 1]")
        if not (math.isfinite(self.mean_session_s) and self.mean_session_s > 0):
            raise ConfigurationError("mean_session_s must be finite and positive")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigurationError("sigma must be finite and positive")


def draw_session_bounds(
    n: int,
    horizon: float,
    config: ChurnConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one session per peer over ``[0, horizon]`` as ``(joins, leaves)``.

    Initially-online peers start at 0; late joiners arrive uniformly over
    the window (a Poisson process conditioned on the arrival count).
    Sessions are clipped to the horizon.  Draw sequence: the initial-mask
    uniforms, the join uniforms, the log-normal durations.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ConfigurationError(f"horizon must be finite and positive, got {horizon}")
    initial = rng.random(n) < config.initial_fraction
    joins = np.where(initial, 0.0, rng.uniform(0.0, horizon, size=n))
    # Log-normal with the requested mean: mean = exp(mu + sigma^2/2).
    mu = np.log(config.mean_session_s) - config.sigma**2 / 2.0
    durations = rng.lognormal(mean=mu, sigma=config.sigma, size=n)
    leaves = np.minimum(joins + durations, horizon)
    return joins, leaves
