"""Swarm instantiation: place remote peers on the synthetic Internet.

Each remote peer gets an endpoint (IP inside a consumer ISP of its country,
or — for a small configurable fraction of probe-country peers — inside a
probe campus AS), an access link drawn from its country's bandwidth mix,
and an initial TTL (a small fraction of peers run non-Windows stacks).

Both swarm generators — :func:`generate_population` here and
:func:`repro.population.sparse.generate_sparse_swarm` — hand the engine
the population as one :class:`SwarmColumns`: aligned numpy columns, one
row per remote peer, no per-peer objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.population.demographics import Demographics, cctv1_audience
from repro.topology.access import AccessClass, AccessLink, dsl, ftth, lan
from repro.topology.geography import PROBE_COUNTRIES
from repro.topology.host import INITIAL_TTL_UNIX, INITIAL_TTL_WINDOWS
from repro.topology.ip import subnet_key
from repro.topology.paths import ACCESS_DEPTH
from repro.topology.world import PROBE_AS_NUMBERS, World

#: ``SwarmColumns.kind`` codes, aligned with :class:`AccessClass` order.
KIND_LAN, KIND_DSL, KIND_CATV, KIND_FTTH = 0, 1, 2, 3

_KIND_BY_CLASS = {access_class: k for k, access_class in enumerate(AccessClass)}

#: Router hops inside the access network per kind code (ACCESS_DEPTH).
DEPTH_BY_KIND = np.array([ACCESS_DEPTH[c] for c in AccessClass], dtype=np.uint8)


@dataclass(frozen=True, slots=True)
class SwarmColumns:
    """A remote population as aligned numpy columns (row = peer id)."""

    ip: np.ndarray            # uint32
    subnet: np.ndarray        # uint32 (masked network address)
    asn: np.ndarray           # int32
    cc: np.ndarray            # 'U2' (the *AS's* country, like NetworkEndpoint)
    kind: np.ndarray          # int8 access-class code
    down_bps: np.ndarray      # float64
    up_bps: np.ndarray        # float64
    nat: np.ndarray           # bool
    firewalled: np.ndarray    # bool (generated remotes never firewall)
    highbw: np.ndarray        # bool (uplink > 10 Mb/s)
    initial_ttl: np.ndarray   # uint8
    access_depth: np.ndarray  # uint8

    def __len__(self) -> int:
        return len(self.ip)

    @property
    def nbytes(self) -> int:
        """Total memory held by the columns."""
        return sum(
            getattr(self, name).nbytes for name in self.__dataclass_fields__
        )


def cc_by_asn(world: World) -> np.ndarray:
    """ASN → the AS's country code, as a ``'U2'`` lookup array."""
    lookup = np.zeros(max(a.asn for a in world.registry) + 1, dtype="U2")
    for asys in world.registry:
        lookup[asys.asn] = asys.country_code
    return lookup


@dataclass(frozen=True, slots=True)
class PopulationConfig:
    """Swarm size and composition.

    Parameters
    ----------
    size:
        Number of remote peers.
    demographics:
        Country / bandwidth mixes; defaults to the CCTV-1 audience.
    unix_fraction:
        Fraction of peers whose OS stamps TTL 64 instead of 128 (the
        hop-inference heuristic must detect the initial TTL, §III-B).
    """

    size: int
    demographics: Demographics | None = None
    unix_fraction: float = 0.04

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(f"population size must be >= 0, got {self.size}")
        if not 0 <= self.unix_fraction <= 1:
            raise ConfigurationError("unix_fraction must be in [0, 1]")


#: Probe-country code → campus ASNs available for "same-AS civilians".
_PROBE_AS_BY_CC: dict[str, list[int]] = {}
for _name, (_asn, _cc) in PROBE_AS_NUMBERS.items():
    _PROBE_AS_BY_CC.setdefault(_cc, []).append(_asn)


def generate_population(
    world: World,
    config: PopulationConfig,
    rng: np.random.Generator,
) -> SwarmColumns:
    """Generate ``config.size`` remote peers placed on ``world``.

    Deterministic given ``rng``.  Peers of probe countries land inside the
    probe campus ASes with probability ``demographics.probe_as_fraction``;
    everyone else goes to a consumer ISP of their country (or, if the
    country has none registered, a random foreign ISP — modelling
    mis-geolocated or satellite-connected stragglers).
    """
    demo = config.demographics or cctv1_audience()
    codes, probs = demo.normalised_weights()
    countries = rng.choice(len(codes), size=config.size, p=probs)
    all_isps = [asn for cc in codes for asn in world.access_isps(cc)]
    if not all_isps:
        raise ConfigurationError("world has no consumer ISPs registered")

    # The per-peer draw *sequence* below is pinned by the golden host-table
    # hashes, so it cannot be collapsed into bulk per-class draws (that
    # scheme lives in repro.population.sparse).  Scalar ``choice`` calls
    # are spelled as the bit-identical ``seq[integers(len(seq))]``; IP
    # assignment, which consumes no randomness, runs in bulk after the loop.
    r_random = rng.random
    r_integers = rng.integers
    unix_fraction = config.unix_fraction
    probe_fraction = demo.probe_as_fraction
    highbw_by_cc = {cc: demo.highbw_for(cc) for cc in codes}
    isps_by_cc = {cc: world.access_isps(cc) or all_isps for cc in codes}
    campus_ok = {cc for cc in codes if cc in PROBE_COUNTRIES and cc in _PROBE_AS_BY_CC}

    # Access plans are pooled: each peer records the index of its plan in
    # ``links`` (0 = campus/office LAN, 1-3 = FTTH, then DSL plans in
    # first-drawn order).
    links: list[AccessLink] = [
        lan(100.0), ftth(100.0, 20.0), ftth(100.0, 50.0), ftth(100.0, 100.0)
    ]
    dsl_plans = (1.0, 2.0, 4.0, 6.0, 8.0)
    dsl_ups = (0.256, 0.384, 0.512, 0.640, 1.0)
    dsl_index: dict[tuple[int, int, bool], int] = {}

    def draw_plan(highbw: bool) -> int:
        # High-bw: one uniform (< 0.6 → LAN), then an FTTH uplink index
        # only if not LAN.  Otherwise: DSL downlink index, DSL uplink
        # index, then one uniform for NAT (< 0.5).
        if highbw:
            if r_random() < 0.6:
                return 0
            return 1 + int(r_integers(3))
        key = (int(r_integers(5)), int(r_integers(5)), bool(r_random() < 0.5))
        index = dsl_index.get(key)
        if index is None:
            index = dsl_index[key] = len(links)
            links.append(dsl(dsl_plans[key[0]], dsl_ups[key[1]], nat=key[2]))
        return index

    asns: list[int] = []
    plans: list[int] = []
    ttls: list[int] = []
    for ci in countries.tolist():
        cc = codes[ci]
        highbw = r_random() < highbw_by_cc[cc]
        if cc in campus_ok and r_random() < probe_fraction:
            campus = _PROBE_AS_BY_CC[cc]
            asn = campus[r_integers(len(campus))]
            # Campus-AS civilians are mostly on the institution LAN.
            plan = 0 if r_random() < 0.9 else draw_plan(highbw)
        else:
            isps = isps_by_cc[cc]
            asn = isps[r_integers(len(isps))]
            plan = draw_plan(highbw)
        asns.append(asn)
        plans.append(plan)
        ttls.append(INITIAL_TTL_UNIX if r_random() < unix_fraction else INITIAL_TTL_WINDOWS)

    asn_col = np.asarray(asns, dtype=np.int64)
    ip = world.bulk_remote_ips(asn_col)
    plan_col = np.asarray(plans, dtype=np.intp)
    kind = np.array([_KIND_BY_CLASS[link.kind] for link in links], dtype=np.int8)[plan_col]
    return SwarmColumns(
        ip=ip,
        subnet=subnet_key(ip, world.config.subnet_prefixlen),
        asn=asn_col.astype(np.int32),
        cc=cc_by_asn(world)[asn_col],
        kind=kind,
        down_bps=np.array([link.down_bps for link in links])[plan_col],
        up_bps=np.array([link.up_bps for link in links])[plan_col],
        nat=np.array([link.nat for link in links], dtype=bool)[plan_col],
        firewalled=np.array([link.firewall for link in links], dtype=bool)[plan_col],
        highbw=np.array([link.is_high_bandwidth for link in links], dtype=bool)[plan_col],
        initial_ttl=np.asarray(ttls, dtype=np.uint8),
        access_depth=DEPTH_BY_KIND[kind],
    )
