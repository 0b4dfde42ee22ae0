"""Deterministic fault injection for the measurement pipeline.

The paper's campaign survived lossy links, churning swarms, dying
sniffers and drifting clocks; this package reproduces those hazards as
seeded, composable impairments:

* :mod:`repro.faults.loss`    — bursty request loss (Gilbert–Elliott);
* :mod:`repro.faults.churn`   — churn storms and flash crowds;
* :mod:`repro.faults.capture` — per-probe sniffer outage windows;
* :mod:`repro.faults.clock`   — per-probe clock skew and jitter;
* :mod:`repro.faults.plan`    — :class:`ImpairmentPlan`, composing the
  four under one fault seed, plus :func:`impair_result` for the
  post-hoc measurement faults.

Every draw comes from a named :class:`~repro.config.RngBundle` stream,
so an impaired run is a pure function of its seeds.
"""

from repro.faults.capture import (
    CaptureGap,
    CaptureOutageConfig,
    apply_capture_gaps,
    draw_capture_gaps,
)
from repro.faults.churn import ChurnStorm, FlashCrowd, apply_churn_events
from repro.faults.clock import ClockSkew, ClockSkewConfig, apply_clock_skew, draw_clock_skew
from repro.faults.loss import (
    GilbertElliottConfig,
    LossSchedule,
    materialize_loss_schedule,
)
from repro.faults.plan import (
    ImpairmentLog,
    ImpairmentPlan,
    impair_result,
)

__all__ = [
    "CaptureGap",
    "CaptureOutageConfig",
    "apply_capture_gaps",
    "draw_capture_gaps",
    "ChurnStorm",
    "FlashCrowd",
    "apply_churn_events",
    "ClockSkew",
    "ClockSkewConfig",
    "apply_clock_skew",
    "draw_clock_skew",
    "GilbertElliottConfig",
    "LossSchedule",
    "materialize_loss_schedule",
    "ImpairmentLog",
    "ImpairmentPlan",
    "impair_result",
]
