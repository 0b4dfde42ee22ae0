"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An experiment or component was configured with invalid parameters."""


class TopologyError(ReproError):
    """The synthetic network topology is inconsistent or was misused."""


class AddressError(TopologyError):
    """An IPv4 address or prefix is malformed or out of allocation range."""


class AllocationError(TopologyError):
    """Address/subnet space is exhausted or an allocation request is invalid."""


class SimulationError(ReproError):
    """The discrete-event streaming engine hit an inconsistent state."""


class TraceError(ReproError):
    """A packet/flow trace is malformed, truncated or incompatible."""


class TraceWarning(UserWarning):
    """A trace was salvaged in degraded (``strict=False``) mode.

    Emitted via :mod:`warnings` when a loader recovers the intact prefix
    of a truncated file instead of raising :class:`TraceError`.
    """


class ExecutorError(ReproError):
    """A shard executor failed at the infrastructure level.

    Raised by the supervised executor (:mod:`repro.exec.supervisor`)
    when a shard with no salvage hook — a robustness severity point, a
    plain function over plain specs — exhausts its attempts; campaign
    shards are salvaged into failed outcomes instead.
    """


class ChaosError(ReproError):
    """A fault injected by the execution-layer chaos harness."""


class FaultInjectionError(ReproError):
    """An impairment plan is inconsistent or could not be applied."""


class AnalysisError(ReproError):
    """The awareness-analysis framework was invoked on unusable inputs."""


class RegistryError(AnalysisError):
    """An IP could not be resolved by the AS/CC/subnet registry."""
