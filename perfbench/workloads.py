"""The benchmark's workloads: one full serial campaign each.

Every workload is a closed batch — one campaign at a time, one process,
the serial backend.  Why each one exists, and which layer it stresses,
is in ``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

PAPER_APPS = ("pplive", "sopcast", "tvants")

#: How many campaign seeds the digests file records per workload.  The
#: ``--seed`` argument picks one of them (``seed % SEED_VARIANTS``), so
#: every input the benchmark can make has a recorded reference output.
SEED_VARIANTS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    apps: tuple[str, ...]
    duration_s: float
    #: ``REPRO_ENGINE`` for the campaign process; ``None`` keeps the
    #: repository's default core.
    engine: str | None = None
    scale: float = 1.0
    #: Run the campaign from checkpoints written during set-up.
    resume: bool = False

    @property
    def renders_tables(self) -> bool:
        """Tables II-IV and the shape checks need the paper's three apps."""
        return self.apps == PAPER_APPS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("legacy-campaign", PAPER_APPS, duration_s=60.0),
        Workload("napa-scale", ("napa-scale",), duration_s=60.0, engine="soa"),
        Workload("resume-analysis", PAPER_APPS, duration_s=120.0, resume=True),
    )
}

#: Shrunk variants for the smoke tests: same code paths, seconds to run.
SMOKE_SIZES = {
    "legacy-campaign": dict(duration_s=10.0, scale=0.3),
    "napa-scale": dict(duration_s=10.0, scale=0.05),
    "resume-analysis": dict(duration_s=10.0, scale=0.3),
}


def get_workload(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **SMOKE_SIZES[name]) if smoke else workload


def campaign_seed(seed: int) -> int:
    """The campaign seed a benchmark ``--seed`` selects."""
    return seed % SEED_VARIANTS
