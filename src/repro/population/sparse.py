"""Sparse, block-seeded swarm generation for paper-scale populations.

The measured swarms of the paper held ~1.8×10^5 peers.  This module draws
such a population straight into :class:`~repro.population.generator.
SwarmColumns` (~40 bytes per peer) in seeded fixed-width blocks, so a
10^5–10^6 peer swarm costs a few megabytes and a handful of vectorised
draws.

Determinism contract
--------------------
:func:`generate_sparse_swarm` consumes exactly **one** draw from the
population RNG stream (a 63-bit block-seed root); every per-peer attribute
then comes from per-block child generators spawned off a ``SeedSequence``
of that root.  Blocks are drawn in index order (IP assignment is stateful
— per-AS subnet cursors advance in block order), so the columns are a
pure function of ``(world, rng state, size, block_size)``.  The block
size is part of the population's identity and defaults to
:data:`DEFAULT_BLOCK_SIZE`.

Per block the draw sequence is fixed-width (every peer consumes the same
draws whether or not a branch uses them), which is what makes the whole
block vectorisable — this is the bulk-draw scheme the dense generator
cannot adopt without breaking its pinned golden hashes:

1.  country index        — ``choice(n_countries, size=B, p=probs)``
2.  high-bw uniform      — ``random(B)``        (``< highbw_for(cc)``)
3.  probe-AS uniform     — ``random(B)``        (``< probe_as_fraction``)
4.  AS pick integer      — ``integers(1 << 30, size=B)`` (mod table width)
5.  campus-LAN uniform   — ``random(B)``        (``< 0.9`` → campus LAN)
6.  access-class uniform — ``random(B)``        (``< 0.6`` → LAN else FTTH)
7.  FTTH uplink index    — ``integers(3, size=B)``
8.  DSL downlink index   — ``integers(5, size=B)``
9.  DSL uplink index     — ``integers(5, size=B)``
10. NAT uniform          — ``random(B)``        (``< 0.5`` for DSL)
11. OS/TTL uniform       — ``random(B)``        (``< unix_fraction`` → 64)

The *distributions* match :func:`repro.population.generator.generate_population`
exactly (same access plans, same campus/ISP placement rules, same TTL mix);
only the stream layout differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.population.demographics import Demographics, cctv1_audience
from repro.population.generator import (
    DEPTH_BY_KIND,
    KIND_DSL,
    KIND_FTTH,
    KIND_LAN,
    _PROBE_AS_BY_CC,
    SwarmColumns,
    cc_by_asn,
)
from repro.topology.access import HIGH_BW_THRESHOLD_BPS
from repro.topology.geography import PROBE_COUNTRIES
from repro.topology.host import INITIAL_TTL_UNIX, INITIAL_TTL_WINDOWS
from repro.topology.ip import subnet_key
from repro.topology.world import World
from repro.units import MBPS

#: Peers generated per seeded block.  Part of the population identity —
#: changing it changes the drawn columns for a given seed.
DEFAULT_BLOCK_SIZE = 8192

_FTTH_UP_MBPS = np.array([20.0, 50.0, 100.0])
_DSL_DOWN_MBPS = np.array([1.0, 2.0, 4.0, 6.0, 8.0])
_DSL_UP_MBPS = np.array([0.256, 0.384, 0.512, 0.640, 1.0])

#: dtype of each :class:`SwarmColumns` field.
_COLUMN_DTYPES = {
    "ip": np.uint32, "subnet": np.uint32, "asn": np.int32, "cc": "U2",
    "kind": np.int8, "down_bps": np.float64, "up_bps": np.float64,
    "nat": bool, "firewalled": bool, "highbw": bool,
    "initial_ttl": np.uint8, "access_depth": np.uint8,
}


@dataclass(frozen=True, slots=True)
class SparseSwarmConfig:
    """Shape of a sparse population.

    Mirrors :class:`repro.population.generator.PopulationConfig` plus the
    block size of the seeded generator.
    """

    size: int
    demographics: Demographics | None = None
    unix_fraction: float = 0.04
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(f"population size must be >= 0, got {self.size}")
        if not 0 <= self.unix_fraction <= 1:
            raise ConfigurationError("unix_fraction must be in [0, 1]")
        if self.block_size < 1:
            raise ConfigurationError("block_size must be >= 1")


class ScoreRowCache:
    """LRU of on-demand per-probe score rows under a byte budget.

    Awareness scores are pure functions of static endpoint columns, so a
    row can always be rebuilt bit-identically — eviction is memory
    management, never an invalidation concern.  ``build`` maps a probe
    index to its full row (one ``uint8`` score-level index per peer);
    the cache keeps recently-used rows up to ``budget_bytes`` and drops
    least-recently-used ones beyond it (always retaining the row just
    built).
    """

    __slots__ = ("_build", "_budget", "_rows", "_bytes", "hits", "misses", "evictions")

    def __init__(self, build, budget_bytes: int) -> None:
        self._build = build
        self._budget = int(budget_bytes)
        self._rows: dict[int, np.ndarray] = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def release(self) -> None:
        """Drop the builder; resident rows and counters stay readable.

        ``build`` is typically a bound method of the cache's owner, so
        releasing it breaks that owner's reference cycle.  A later miss
        raises ``TypeError``.
        """
        self._build = None

    def row(self, key: int) -> np.ndarray:
        row = self._rows.get(key)
        if row is not None:
            self.hits += 1
            # Insertion order doubles as recency order: re-insert on hit.
            del self._rows[key]
            self._rows[key] = row
            return row
        self.misses += 1
        row = self._build(key)
        self._rows[key] = row
        self._bytes += row.nbytes
        while self._bytes > self._budget and len(self._rows) > 1:
            oldest = next(iter(self._rows))
            if oldest == key:
                break
            self._bytes -= self._rows.pop(oldest).nbytes
            self.evictions += 1
        return row




class _BlockDraw:
    """Per-country lookup tables plus the fixed-width draw of one block."""

    def __init__(self, world: World, demo: Demographics, unix_fraction: float) -> None:
        self.world = world
        self.probe_as_fraction = demo.probe_as_fraction
        self.unix_fraction = unix_fraction
        codes, probs = demo.normalised_weights()
        self.n_codes = len(codes)
        self.probs = probs
        self.hb_frac = np.array([demo.highbw_for(c) for c in codes])
        self.is_probe_cc = np.array(
            [c in PROBE_COUNTRIES and c in _PROBE_AS_BY_CC for c in codes]
        )
        all_isps = [asn for cc in codes for asn in world.access_isps(cc)]
        if not all_isps:
            raise ConfigurationError("world has no consumer ISPs registered")
        isp_lists = []
        campus_lists = []
        for cc in codes:
            isps = world.access_isps(cc)
            # Countries with no registered ISP fall back to a random foreign
            # ISP — same mis-geolocated-straggler rule as the dense path.
            isp_lists.append(isps if isps else all_isps)
            campus_lists.append(_PROBE_AS_BY_CC.get(cc, [0]))
        width = max(len(l) for l in isp_lists + campus_lists)
        self.isp_pad = np.zeros((len(codes), width), dtype=np.int64)
        self.isp_cnt = np.empty(len(codes), dtype=np.int64)
        self.campus_pad = np.zeros((len(codes), width), dtype=np.int64)
        self.campus_cnt = np.empty(len(codes), dtype=np.int64)
        for i, (isps, campus) in enumerate(zip(isp_lists, campus_lists)):
            self.isp_pad[i, : len(isps)] = isps
            self.isp_cnt[i] = len(isps)
            self.campus_pad[i, : len(campus)] = campus
            self.campus_cnt[i] = len(campus)
        # Endpoints carry the *AS's* country.
        self.cc_by_asn = cc_by_asn(world)

    def __call__(self, rng: np.random.Generator, n: int) -> SwarmColumns:
        # Fixed-width draw plan — see module docstring for the numbered list.
        ci = rng.choice(self.n_codes, size=n, p=self.probs)
        u_hb = rng.random(n)
        u_probe = rng.random(n)
        r_pick = rng.integers(0, 1 << 30, size=n)
        u_lan = rng.random(n)
        u_acc = rng.random(n)
        i_ftth = rng.integers(0, 3, size=n)
        i_down = rng.integers(0, 5, size=n)
        i_up = rng.integers(0, 5, size=n)
        u_nat = rng.random(n)
        u_ttl = rng.random(n)

        highbw_drawn = u_hb < self.hb_frac[ci]
        in_probe = self.is_probe_cc[ci] & (u_probe < self.probe_as_fraction)
        asn = self.isp_pad[ci, r_pick % self.isp_cnt[ci]]
        asn_campus = self.campus_pad[ci, r_pick % self.campus_cnt[ci]]
        asn = np.where(in_probe, asn_campus, asn)

        campus_lan = in_probe & (u_lan < 0.9)
        lan_mask = campus_lan | (~campus_lan & highbw_drawn & (u_acc < 0.6))
        ftth_mask = ~campus_lan & highbw_drawn & (u_acc >= 0.6)
        dsl_mask = ~campus_lan & ~highbw_drawn

        down = np.where(
            dsl_mask, _DSL_DOWN_MBPS[i_down] * MBPS, 100.0 * MBPS
        )
        up = np.where(
            lan_mask,
            100.0 * MBPS,
            np.where(
                ftth_mask,
                _FTTH_UP_MBPS[i_ftth] * MBPS,
                _DSL_UP_MBPS[i_up] * MBPS,
            ),
        )
        kind = np.where(
            lan_mask, KIND_LAN, np.where(ftth_mask, KIND_FTTH, KIND_DSL)
        ).astype(np.int8)
        nat = ftth_mask | (dsl_mask & (u_nat < 0.5))
        ttl = np.where(
            u_ttl < self.unix_fraction,
            INITIAL_TTL_UNIX,
            INITIAL_TTL_WINDOWS,
        ).astype(np.uint8)

        ip = self.world.bulk_remote_ips(asn)
        return SwarmColumns(
            ip=ip,
            subnet=subnet_key(ip, self.world.config.subnet_prefixlen),
            asn=asn.astype(np.int32),
            cc=self.cc_by_asn[asn],
            kind=kind,
            down_bps=down,
            up_bps=up,
            nat=nat,
            firewalled=np.zeros(n, dtype=bool),
            highbw=up > HIGH_BW_THRESHOLD_BPS,
            initial_ttl=ttl,
            access_depth=DEPTH_BY_KIND[kind],
        )


def generate_sparse_swarm(
    world: World,
    config: SparseSwarmConfig,
    rng: np.random.Generator,
) -> SwarmColumns:
    """Draw ``config.size`` remote peers onto ``world`` in seeded blocks.

    Consumes one draw from ``rng`` (the block-seed root); each block is
    drawn from its own child generator and written into preallocated
    columns, so only one block's temporaries are alive at a time.
    """
    # The single draw consumed from the population stream.
    root = int(rng.integers(0, 2**63))
    draw = _BlockDraw(
        world, config.demographics or cctv1_audience(), config.unix_fraction
    )
    n_blocks = -(-config.size // config.block_size)
    out = SwarmColumns(**{
        name: np.empty(config.size, dtype=dtype)
        for name, dtype in _COLUMN_DTYPES.items()
    })
    for b, seed in enumerate(np.random.SeedSequence(root).spawn(n_blocks)):
        lo = b * config.block_size
        hi = min(lo + config.block_size, config.size)
        block = draw(np.random.default_rng(seed), hi - lo)
        for name in _COLUMN_DTYPES:
            getattr(out, name)[lo:hi] = getattr(block, name)
    return out

