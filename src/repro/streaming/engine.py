"""The discrete-event P2P-TV engine.

Architecture (see DESIGN.md §3): the engine is *probe-centric*.  The 46
NAPA-WINE probes run the full mesh-pull protocol — discovery, partner
management, buffer maps, per-chunk provider selection, upload queuing —
because the paper's dataset is exactly the traffic those probes saw.  The
remote swarm is modelled statistically: each remote peer has a position in
the chunk-diffusion process (:class:`RemoteAvailability`), responds to
probe requests through a real uplink queue, and generates its own pull
demand towards the probes it finds attractive (the upload direction).

Everything stochastic draws from named, seeded RNG streams
(:class:`~repro.config.RngBundle`), so a run is a pure function of
``(world seed, profile, engine seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import RngBundle
from repro.errors import ConfigurationError, SimulationError
from repro.obs.log import get_logger
from repro.population.churn import draw_session_bounds
from repro.population.demographics import (
    Demographics,
    cctv1_audience,
    crossswarm_audience,
)
from repro.population.generator import PopulationConfig, SwarmColumns, generate_population
from repro.population.sparse import (
    ScoreRowCache,
    SparseSwarmConfig,
    generate_sparse_swarm,
)
from repro.streaming.availability import RemoteAvailability
from repro.streaming.events import EventQueue
from repro.streaming.profiles import AppProfile
from repro.streaming.schedulers import get_scheduler
from repro.streaming.selection import CandidateFeatures, SelectionPolicy
from repro.streaming.soa import SoAState
from repro.streaming.transport import (
    SignalingBook,
    TransferRecorder,
    UplinkScheduler,
)
from repro.topology.paths import ACCESS_DEPTH
from repro.topology.testbed import Testbed, build_napa_wine_testbed
from repro.topology.world import World
from repro.trace.hosts import HostTable
from repro.trace.records import PacketKind
from repro.units import BITS_PER_BYTE

_log = get_logger("streaming.engine")

#: Size of a chunk-request / poll datagram.
REQUEST_BYTES = 80

#: Packet-kind codes pre-cast to int for the inlined hot-path recording
#: (``int(PacketKind.X)`` per logged packet is measurable at trace scale).
_KIND_CONTROL = int(PacketKind.CONTROL)
_KIND_VIDEO = int(PacketKind.VIDEO)

#: Demand multiplier for probes below the high-bandwidth threshold (remotes
#: rarely pick them as parents — their uplink cannot sustain the stream).
LOWBW_DEMAND_FACTOR = 0.15

#: Probability that a discovery contact towards a firewalled peer fails.
FIREWALL_DROP_PROB = 0.8

#: Partner-set width up to which a partner context also carries the
#: scalar scan plan (per-partner tuples, remote scalar lists) that
#: the narrow-width mesh-pull kernel walks instead of building an
#: availability matrix.  At a few dozen partners numpy's per-call cost
#: outweighs the arithmetic it vectorises; see docs/engine-internals.md
#: for the measurement behind the cut.
_NARROW_PARTNERS = 48

#: Entry cap on the swarm-wide CDF memo.  Keys are holder score tuples;
#: at mega scale the distinct-sequence space is large enough to grow the
#: memo without bound, so past the cap it is dropped wholesale and warms
#: back up (entries are pure functions of their key — recomputed
#: bit-identically, memory-only effect).
_CDF_CACHE_MAX = 65_536

#: Byte budget for the LRU of on-demand remote score rows (one float64
#: per peer per cached probe).  Large enough that every
#: probe's row fits resident at 10^6 peers — the budget is the safety
#: valve for the next decade, not a working limit at this one.
_SCORE_ROWS_BUDGET = 512 * 1024 * 1024

#: Oversampling rounds allowed per alias-sampled tracker reply before the
#: reply is returned short (candidates are rejected when offline, already
#: known, self, or duplicate within the reply).
_ALIAS_MAX_ROUNDS = 8


def _approx_latency(same_subnet: bool, same_as: bool, same_cc: bool) -> float:
    """One-way latency estimate used for protocol timing.

    Coarse on purpose: serialisation dominates transfer time, and the
    analysis consumes byte counts and packet dispersion, not latencies.
    """
    if same_subnet:
        return 0.001
    if same_as:
        return 0.005
    if same_cc:
        return 0.02
    return 0.08


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Run-level engine parameters (profile-independent)."""

    duration_s: float = 600.0
    seed: int = 7
    demand_rebalance_s: float = 20.0
    max_backlog_s: float = 4.0
    #: Hop threshold for the ``near`` selection feature (only consulted when
    #: a profile sets a nonzero hop weight).
    hop_near_threshold: int = 19
    #: Per-tick budget of candidate-less chunks examined before giving up.
    max_probe_attempts: int = 24
    #: Probability that a chunk request fails because the provider's
    #: advertised buffer map was stale.  Failed chunks age and get retried,
    #: which is how slower peers (whose chunks arrive late) ever get picked.
    stale_buffermap_prob: float = 0.2
    #: Outstanding chunk requests allowed per provider.  Pipelining caps
    #: force request spreading: when the preferred providers are busy the
    #: scheduler falls back to less-preferred (often slower) partners —
    #: the mechanism that keeps low-bandwidth peers in the contributor set
    #: while they receive few bytes.
    max_outstanding_per_provider: int = 2
    #: Probability that a chunk request datagram is lost in the network
    #: (the request is recorded — the capture saw it leave — but no
    #: response ever comes; the chunk is retried at a later tick).
    #: Default 0: loss is an opt-in robustness knob.
    request_loss_prob: float = 0.0
    #: Probability that a *firewalled* probe drops an unsolicited remote
    #: downloader attachment (Table I's FW column given teeth).
    firewall_attach_drop_prob: float = 0.8
    #: Optional time-varying request loss: any object with a
    #: ``prob_at(t) -> float`` method (see
    #: :class:`repro.faults.loss.LossSchedule`).  When set it *replaces*
    #: ``request_loss_prob`` — impairment plans fold the scalar in as the
    #: schedule's GOOD-state floor.
    request_loss_schedule: object | None = None
    #: Optional churn post-transform
    #: ``(joins, leaves, horizon, rng) -> (joins, leaves)`` applied to the
    #: drawn remote-peer session columns, drawing from the engine's
    #: ``fault_churn`` RNG stream (churn storms / flash crowds — see
    #: :mod:`repro.faults.churn`).
    churn_transform: object | None = None

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ConfigurationError(
                f"duration must be positive and finite, got {self.duration_s}"
            )
        if self.demand_rebalance_s <= 0:
            raise ConfigurationError("rebalance interval must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


class _BusyCounts(dict):
    """Outstanding chunk requests per provider gidx, touched peers only.

    A never-contacted provider reads 0 without being inserted; the first
    ``+=`` stores it.  A probe contacts a few thousand peers over a run,
    so this is O(touched) state, not an O(swarm) list per probe.
    """

    __slots__ = ()

    def __missing__(self, g: int) -> int:
        return 0


class _LatencyRow(dict):
    """One probe's one-way latency row, materialised per touched peer.

    The first read of peer ``g`` computes :func:`_approx_latency` from the
    static directory columns (subnet → AS → CC precedence), stores it and
    returns it; later reads are plain dict hits.
    """

    __slots__ = ("_subnet", "_asn", "_cc", "_gidx")

    def __init__(
        self, subnet: np.ndarray, asn: np.ndarray, cc: np.ndarray, gidx: int
    ) -> None:
        super().__init__()
        self._subnet = subnet
        self._asn = asn
        self._cc = cc
        self._gidx = gidx

    def __missing__(self, g: int) -> float:
        me = self._gidx
        v = self[g] = _approx_latency(
            self._subnet[g] == self._subnet[me],
            self._asn[g] == self._asn[me],
            self._cc[g] == self._cc[me],
        )
        return v


class _PeerState:
    """One probe's discovery / partner-management state.

    ``known`` and ``partners`` stay Python sets — set iteration order is
    part of the deterministic trace (it decides candidate ordering and the
    per-partner RNG draw sequence).  The tick path reads the partner set
    through ``partners_arr``, an ``np.fromiter`` materialisation refreshed
    by :meth:`set_partners`; since an unmutated set iterates in a stable
    order, it is element-for-element identical to a per-tick rebuild.
    ``known`` is materialised where it is read, once per partner refresh.

    Buffer and in-flight state live in the engine's shared
    :class:`~repro.streaming.soa.SoAState` bitmaps; ``pi`` (the probe
    index, ``gidx - n_remote``) is this probe's row there and its key in
    the engine's score-row cache.
    """

    __slots__ = (
        "gidx",
        "pi",
        "known",
        "known_mask",
        "partners",
        "partners_arr",
        "lat_row",
        "busy",
        "busy_over",
    )

    def __init__(self, gidx: int, pi: int, n_peers: int, lat_row: _LatencyRow) -> None:
        self.gidx = gidx
        self.pi = pi
        self.known: set[int] = set()
        #: Dense mirror of ``known`` (discovery filters against it without
        #: the O(pool × known) set-probing of np.isin).
        self.known_mask: np.ndarray = np.zeros(n_peers, dtype=bool)
        self.partners: set[int] = set()
        self.partners_arr: np.ndarray = np.zeros(0, dtype=np.int64)
        #: This probe's one-way latency row (touched peers only).
        self.lat_row = lat_row
        #: Outstanding chunk requests per provider gidx (pipelining cap).
        self.busy = _BusyCounts()
        #: Providers currently at/over the pipelining cap — the tiny
        #: (usually empty) complement the vectorised kernels subtract
        #: instead of re-checking ``busy`` per advertised pair.
        self.busy_over: set[int] = set()

    def add_known(self, g: int) -> None:
        """Record peer ``g`` as discovered."""
        self.known.add(g)
        self.known_mask[g] = True

    def set_partners(self, partners: set[int]) -> None:
        """Replace the partner set and refresh its array materialisation."""
        self.partners = partners
        self.partners_arr = np.fromiter(partners, dtype=np.int64, count=len(partners))


@dataclass
class SimulationResult:
    """Everything a run produces.

    ``transfers`` and ``signaling`` are the raw log; ``hosts`` is the
    ground-truth host table; downstream code turns these into probe-side
    flow tables and packet traces.
    """

    transfers: np.ndarray
    signaling: np.ndarray
    hosts: HostTable
    testbed: Testbed
    world: World
    profile: AppProfile
    config: EngineConfig
    events_processed: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def probe_ips(self) -> np.ndarray:
        return self.hosts.probe_ips

    @property
    def duration_s(self) -> float:
        return self.config.duration_s


class _BiasedSampler:
    """Exact O(1)-per-draw sampler for the two-valued discovery weights.

    The AS-biased discovery distribution ``w_i = 1 + bias·[asn_i = a]``
    is a mixture: uniform over all ``n`` peers with probability
    ``n / (n + bias·k)``, uniform over the ``k`` same-AS peers otherwise
    — algebraically identical to the alias table over those weights, but
    built from one ``flatnonzero`` instead of an O(n) Vose construction
    per chooser AS.

    Draw order (fixed, documented for determinism): the global index
    draw ``j = integers(n, size)`` first, then the mixture coin
    ``u = random(size)``, then the same-AS index draw
    ``integers(k, size)``; the last two are skipped when the bias is
    inactive (``bias·k = 0``), matching the unbiased uniform sampler.
    """

    __slots__ = ("n", "same", "q")

    def __init__(self, n: int, same: np.ndarray, bias: float) -> None:
        self.n = n
        self.same = same
        k = len(same)
        self.q = bias * k / (n + bias * k) if n else 0.0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        j = rng.integers(0, self.n, size=size)
        if self.q <= 0.0:
            return j
        u = rng.random(size)
        boost = self.same[rng.integers(0, len(self.same), size=size)]
        return np.where(u < self.q, boost, j)


class Engine:
    """One experiment: one application profile on one synthetic Internet.

    Probe buffers live in shared struct-of-arrays bitmaps
    (:class:`~repro.streaming.soa.SoAState`); per-tick hole scans and
    provider-candidate enumeration run as array kernels over them, with a
    scalar plan for narrow partner sets (see ``_partner_ctx``).
    Per-remote state — awareness scores, latencies, outstanding-request
    counts — is computed on first contact, so what stays resident
    follows the peers the probes touch, not the swarm.
    """

    def __init__(
        self,
        world: World,
        testbed: Testbed,
        profile: AppProfile,
        population: SwarmColumns,
        config: EngineConfig,
    ) -> None:
        self.world = world
        self.testbed = testbed
        self.profile = profile
        self.config = config
        self.clock = profile.video.clock
        self._rngs = RngBundle(config.seed)
        #: Set on entry to :meth:`run`; an engine runs once.
        self._ran = False
        #: The protocol-event stream, bound once (hot-path draws).
        self._rng_engine = self._rngs["engine"]
        self._queue = EventQueue()
        # Pre-bound hot-path callbacks: scheduling via ``self._on_x``
        # creates a fresh bound method per call; these do it once.
        # They put the engine in reference cycles, which ``_release``
        # breaks once the run is over.
        self._cb_tick = self._on_tick
        self._cb_tick_cohort = self._on_tick_cohort
        self._cb_arrival = self._on_chunk_arrival
        self._cb_pull = self._on_remote_pull
        self._recorder = TransferRecorder()
        self._rec_append = self._recorder.append_row
        self._signaling = SignalingBook()

        self._build_directory(population)
        self._build_protocol_state()
        #: Discovery sampler selection (profile knob, not swarm-format
        #: dependent — sparse and dense runs of one profile draw alike).
        self._alias_tables: dict[int, _BiasedSampler] = {}
        self._alias_discovery = profile.discovery == "alias"
        # The chunk-scheduling policy: which missing chunks to request, in
        # what order, from whom (see repro.streaming.schedulers).  The
        # default mesh-pull strategy is the pre-refactor selection loop
        # verbatim — golden-hash-pinned byte-identical.
        self._scheduler = get_scheduler(profile.scheduler)()
        self._scheduler.bind(self)
        self._sched_requests = self._scheduler.schedule_requests
        self._scan_limit = (
            self.config.max_probe_attempts if self._scheduler.truncate_scan else None
        )
        self._sched_push = self._scheduler.pushes

    # ----------------------------------------------------------- directory
    def _build_directory(self, cols: SwarmColumns) -> None:
        """Lay remotes + probes out as aligned attribute arrays.

        Global index space: remotes occupy ``[0, R)``, probes ``[R, R+P)``.
        The remote block is the population's columns as drawn; the probes
        are appended from their endpoints.
        """
        probes = [h.endpoint for h in self.testbed.hosts]
        self.n_probe = len(probes)
        if self.n_probe == 0:
            raise SimulationError("testbed has no probes")

        self.n_remote = len(cols)
        n = self.n_remote + self.n_probe
        self._ip = np.concatenate(
            [cols.ip, np.array([e.ip for e in probes], dtype=np.uint32)]
        )
        self._asn = np.concatenate(
            [cols.asn, np.array([e.asn for e in probes], dtype=np.int32)]
        )
        cc_codes = sorted(set(cols.cc.tolist()) | {e.country_code for e in probes})
        self._cc_labels = cc_codes
        labels = np.array(cc_codes, dtype="U2")
        cc_index = {c: i for i, c in enumerate(cc_codes)}
        self._cc = np.concatenate(
            [
                np.searchsorted(labels, cols.cc).astype(np.int16),
                np.array([cc_index[e.country_code] for e in probes], dtype=np.int16),
            ]
        )
        self._subnet = np.concatenate(
            [cols.subnet, np.array([e.subnet for e in probes], dtype=np.uint32)]
        )
        self._up = np.concatenate(
            [cols.up_bps, np.array([e.access.up_bps for e in probes])]
        )
        self._down = np.concatenate(
            [cols.down_bps, np.array([e.access.down_bps for e in probes])]
        )
        self._highbw = np.concatenate(
            [cols.highbw, np.array([e.access.is_high_bandwidth for e in probes], dtype=bool)]
        )
        self._firewalled = np.concatenate(
            [cols.firewalled, np.array([e.access.firewall for e in probes], dtype=bool)]
        )
        self._initial_ttl = np.concatenate(
            [cols.initial_ttl, np.array([e.initial_ttl for e in probes], dtype=np.uint8)]
        )
        self._access_depth = np.concatenate(
            [
                cols.access_depth,
                np.array([ACCESS_DEPTH[e.access.kind] for e in probes], dtype=np.uint8),
            ]
        )
        self._is_probe = np.zeros(n, dtype=bool)
        self._is_probe[self.n_remote :] = True

        # Sessions: remotes churn, probes stay for the whole experiment.
        self._join = np.full(n, 0.0)
        self._leave = np.full(n, self.config.duration_s)
        joins, leaves = draw_session_bounds(
            self.n_remote,
            self.config.duration_s,
            self.profile.churn,
            self._rngs["churn"],
        )
        if self.config.churn_transform is not None:
            joins, leaves = self.config.churn_transform(
                joins, leaves, self.config.duration_s, self._rngs["fault_churn"]
            )
        self._join[: self.n_remote] = joins
        self._leave[: self.n_remote] = leaves

        self.availability = RemoteAvailability(
            self.clock,
            self._highbw[: self.n_remote],
            self._join[: self.n_remote],
            self.profile.availability,
            self._rngs["availability"],
        )
        self.uplink = UplinkScheduler(n, self._up, self.config.max_backlog_s)
        # Borrowed references for the inlined admit() in the request/pull
        # hot paths (same lists the scheduler mutates, never reassigned).
        self._ul_free = self.uplink.free_at
        self._ul_bps = self.uplink.up_bps
        self._ul_max_backlog = self.uplink.max_backlog_s

        # Plain-list mirrors for scalar hot-path reads (numpy int indexing
        # boxes a fresh scalar per access; these are the same values).
        self._ip_list: list[int] = self._ip.tolist()
        self._up_list: list[float] = self._up.tolist()
        self._down_list: list[float] = self._down.tolist()
        self._leave_list: list[float] = self._leave.tolist()
        # Online-mask maintenance: the mask is constant between
        # consecutive join/leave boundaries and event time is
        # non-decreasing, so instead of re-evaluating the n-peer compare
        # at every boundary crossing (O(n) per interval — paper-scale
        # swarms cross a boundary every few events) the boundaries are
        # sorted once and each query flips only the peers whose join or
        # leave was crossed since the previous one: O(Δ) amortised.
        self._join_order = np.argsort(self._join, kind="stable")
        self._leave_order = np.argsort(self._leave, kind="stable")
        self._join_sorted = self._join[self._join_order]
        self._leave_sorted = self._leave[self._leave_order]
        self._join_ptr = 0
        self._leave_ptr = 0
        # Next boundary at/after the cached state; recompute when t
        # reaches it.
        self._mask_t1 = -np.inf
        self._mask: np.ndarray = np.zeros(n, dtype=bool)

    def _build_probe_state(self, n_peers: int) -> None:
        """Allocate the shared probe bitmaps and per-probe protocol state."""
        interval = self.clock.chunk_interval
        window_chunks = max(1, int(self.profile.video.buffer_window_s / interval))
        # Margin below the eviction frontier kept addressable in-row: the
        # longest a request can stay in flight (uplink backlog + slowest
        # serialisation + latency slack), in chunks.  Purely a performance
        # knob — bits that do slide off are rescued into the low sets.
        slowest = self.clock.chunk_bytes * BITS_PER_BYTE / float(self._up.min())
        margin = int((self.config.max_backlog_s + slowest + 0.2) / interval) + 4
        if margin > 4096:
            margin = 4096
        self._soa = SoAState(self.n_probe, window_chunks, interval, margin)
        #: Per-probe ``(partners bytes, ctx)`` slot of the last partner
        #: set looked up (see ``_partner_ctx``).
        self._ctx_slot: list = [None] * self.n_probe
        self._probes = [
            _PeerState(
                self.n_remote + k,
                k,
                n_peers,
                _LatencyRow(self._subnet, self._asn, self._cc, self.n_remote + k),
            )
            for k in range(self.n_probe)
        ]

    def _build_protocol_state(self) -> None:
        n = self.n_remote + self.n_probe
        self._build_probe_state(n)
        rng_sel = self._rngs["selection"]
        self._partner_policy = SelectionPolicy(
            self.profile.partner_weights, rng_sel, self.profile.selection_temperature
        )
        self._provider_policy = SelectionPolicy(
            self.profile.provider_weights, rng_sel, self.profile.selection_temperature
        )
        self._remote_policy = SelectionPolicy(
            self.profile.remote_weights, rng_sel, self.profile.selection_temperature
        )
        #: (remote gidx, probe gidx) pairs currently attached as downloaders.
        self._attached: set[tuple[int, int]] = set()

        # Whether any policy consults the hop feature — static per profile.
        self._need_hop = any(
            policy.weights.hop
            for policy in (self._partner_policy, self._provider_policy, self._remote_policy)
        )
        # Awareness scores are a pure function of the (chooser, candidate)
        # endpoint pair — every input is fixed at build time — and
        # element-independent: scoring a candidate subset through the
        # _features → scores pipeline yields the exact doubles a full-row
        # gather would, and softmax over them the identical probabilities
        # (hence an identical RNG draw sequence).  So scores are computed
        # on demand for just the candidates at hand; only the remote
        # policy, which the rebalance pass gathers against every online
        # remote, keeps whole per-probe rows, built on first demand and
        # held in an LRU under a byte budget.
        self._remote_rows = ScoreRowCache(self._build_remote_row, _SCORE_ROWS_BUDGET)
        # Tick-loop constants hoisted out of their dataclasses: _on_tick
        # fires tens of thousands of times and these attribute chains are
        # measurable there.
        self._tick_interval = self.profile.tick_interval_s
        self._live_lag = max(0, self.profile.live_lag_chunks)
        self._max_parallel = self.profile.max_parallel_requests
        self._explore_prob = self.profile.explore_prob
        self._max_attempts = self.config.max_probe_attempts
        self._cap_out = self.config.max_outstanding_per_provider
        self._chunk_bytes = self.clock.chunk_bytes
        self._loss_schedule = self.config.request_loss_schedule
        self._loss_prob = self.config.request_loss_prob
        self._stale_prob = self.config.stale_buffermap_prob
        self._av_chunk_interval = self.availability.chunk_interval
        self._av_retention = self.availability.retention_s
        #: The selection policies all draw from this stream; hoisted so the
        #: tick loop can invert cached CDFs with a direct draw (same
        #: generator, same single-uniform consumption as sample_index).
        self._rng_sel = rng_sel
        #: Per-probe memo of provider-selection CDFs (as sorted float
        #: lists), keyed by the holders' *score* tuple: the CDF is a pure
        #: function of the score sequence, so distinct holder sets with
        #: equal scores share one entry — far fewer softmax evaluations
        #: than holder-tuple keying, with bit-identical CDF values.  One
        #: cache for the whole swarm (not per probe): equal score
        #: sequences yield the same CDF no matter which probe asks.
        self._cdf_cache: dict = {}
        #: Entry budget for the CDF memo, read at the schedulers' insert
        #: sites (they cannot import this module — circular).
        self._cdf_cache_max = _CDF_CACHE_MAX

    def _build_remote_row(self, pi: int) -> np.ndarray:
        """Probe ``pi``'s full remote-policy score row, built on demand.

        The ``_features`` → ``scores`` pipeline over the whole directory:
        ``slice(None)`` hands it the directory columns themselves (views,
        no index gather).
        """
        return self._remote_policy.scores(
            self._features(self.n_remote + pi, slice(None))
        )

    def _partner_scores_for(self, probe: _PeerState, cands: np.ndarray) -> np.ndarray:
        """Partner-policy scores of ``cands`` from ``probe``'s viewpoint."""
        return self._partner_policy.scores(self._features(probe.gidx, cands))

    # ------------------------------------------------------------- features
    def _features(self, chooser: int, cands: np.ndarray | slice) -> CandidateFeatures:
        """Awareness features of ``cands`` from ``chooser``'s viewpoint.

        ``cands`` indexes the directory: global indices, or a slice.
        """
        asn = self._asn[cands]
        subnet = self._subnet[cands]
        if self._need_hop:
            hops = self.world.paths.hops_many(
                self._ip[chooser],
                self._asn[chooser],
                self._subnet[chooser],
                self._access_depth[chooser],
                self._ip[cands],
                asn,
                subnet,
                self._access_depth[cands],
            )
            near = hops < self.config.hop_near_threshold
        else:
            near = np.zeros(len(asn), dtype=bool)
        return CandidateFeatures(
            highbw=self._highbw[cands],
            same_as=asn == self._asn[chooser],
            same_cc=self._cc[cands] == self._cc[chooser],
            same_net=subnet == self._subnet[chooser],
            near=near,
        )

    def _online_mask(self, t: float) -> np.ndarray:
        """Who is online at ``t`` (shared cache — callers must not mutate).

        The mask only changes when ``t`` crosses a join/leave boundary;
        queries arrive in non-decreasing time order, so the cached mask
        is advanced by flipping exactly the peers whose boundary was
        crossed since the previous query — bit-for-bit the array
        ``(join <= t) & (t < leave)`` would produce, at O(Δ) cost.
        """
        if t >= self._mask_t1:
            js = self._join_sorted
            ls = self._leave_sorted
            mask = self._mask
            jp = self._join_ptr
            lp = self._leave_ptr
            njp = int(js.searchsorted(t, side="right"))
            nlp = int(ls.searchsorted(t, side="right"))
            if njp > jp:
                mask[self._join_order[jp:njp]] = True
                self._join_ptr = njp
            if nlp > lp:
                # Leaves flip after joins: a peer whose whole session is
                # already behind ``t`` must end up offline.
                mask[self._leave_order[lp:nlp]] = False
                self._leave_ptr = nlp
            nj = js[njp] if njp < len(js) else np.inf
            nl = ls[nlp] if nlp < len(ls) else np.inf
            self._mask_t1 = nj if nj < nl else nl
        return self._mask

    def _latency(self, a: int, b: int) -> float:
        # Every latency query involves at least one probe endpoint; the
        # model is symmetric in (a, b), so one probe-indexed row suffices.
        if a >= self.n_remote:
            return self._probes[a - self.n_remote].lat_row[b]
        return self._probes[b - self.n_remote].lat_row[a]

    # ------------------------------------------------------------- recording
    def _record(self, t: float, src: int, dst: int, nbytes: int, kind: PacketKind) -> None:
        up = self._up_list[src]
        dn = self._down_list[dst]
        self._rec_append(
            (
                t,
                self._ip_list[src],
                self._ip_list[dst],
                nbytes,
                int(kind),
                up if up < dn else dn,  # bottleneck_bps, inlined
            )
        )

    # ------------------------------------------------------------- discovery
    def _tracker_sample(self, probe: _PeerState, k: int, t: float) -> np.ndarray:
        """Sample up to ``k`` new online peers for ``probe``.

        TVAnts-style AS-biased discovery oversamples same-AS peers by
        ``discovery_as_bias``; firewalled candidates often drop the contact.
        Profiles with ``discovery == "alias"`` draw through
        :meth:`_tracker_sample_alias` instead.
        """
        if self._alias_discovery:
            return self._tracker_sample_alias(probe, k, t)
        # online ∧ ¬known ∧ ¬self, via dense masks: same ascending-index
        # pool (flatnonzero order) the isin-filtered version produced, but
        # without np.isin's per-call sort of the known set.
        avail = self._online_mask(t) & ~probe.known_mask
        avail[probe.gidx] = False  # avail is a fresh array; the shared mask is untouched
        pool = np.flatnonzero(avail)
        if len(pool) == 0:
            return pool
        rng = self._rng_engine
        bias = self.profile.discovery_as_bias
        if bias > 0:
            weights = 1.0 + bias * (self._asn[pool] == self._asn[probe.gidx])
            probs = weights / weights.sum()
        else:
            probs = None
        k = min(k, len(pool))
        picked = rng.choice(pool, size=k, replace=False, p=probs)
        # Firewalled peers drop most unsolicited contacts.
        keep = ~self._firewalled[picked] | (rng.random(len(picked)) >= FIREWALL_DROP_PROB)
        return picked[keep]

    def _alias_table_for(self, asn: int) -> "_BiasedSampler":
        """The discovery sampler seen by a probe in AS ``asn``.

        The scan sampler's weights (1 + bias for same-AS candidates) are
        two-valued, so the alias table over them collapses to an exact
        two-component mixture — uniform over the directory, plus a
        same-AS boost drawn with probability ``bias·k / (n + bias·k)``
        (see :class:`_BiasedSampler`).  Samplers are static per chooser
        AS and built lazily in O(same-AS peers), not O(swarm); probes
        share one per campus/home AS.
        """
        table = self._alias_tables.get(asn)
        if table is None:
            same = np.flatnonzero(self._asn == asn)
            n = self.n_remote + self.n_probe
            table = _BiasedSampler(n, same, self.profile.discovery_as_bias)
            self._alias_tables[asn] = table
        return table

    def _tracker_sample_alias(self, probe: _PeerState, k: int, t: float) -> np.ndarray:
        """Alias-sampled tracker/gossip reply — O(batch), not O(swarm).

        Draws candidates from a precomputed biased sampler over the whole
        directory and rejects offline / already-known / self / duplicate
        picks, oversampling in bounded rounds.  Sampling is with-rejection
        rather than without-replacement, so replies follow the same biased
        distribution as the scan sampler but are *not* draw-identical to
        it — profiles choose one sampler and keep it (``discovery`` knob).
        """
        rng = self._rng_engine
        online = self._online_mask(t)
        bias = self.profile.discovery_as_bias
        table = (
            self._alias_table_for(int(self._asn[probe.gidx])) if bias > 0 else None
        )
        n = self.n_remote + self.n_probe
        picked: list[int] = []
        seen: set[int] = set()
        for _ in range(_ALIAS_MAX_ROUNDS):
            need = k - len(picked)
            if need <= 0:
                break
            m = max(2 * need, 8)
            cand = table.draw(rng, m) if table is not None else rng.integers(0, n, size=m)
            ok = online[cand] & ~probe.known_mask[cand] & (cand != probe.gidx)
            for g in cand[ok].tolist():
                if g not in seen:
                    seen.add(g)
                    picked.append(g)
                    if len(picked) == k:
                        break
        if not picked:
            return np.zeros(0, dtype=np.int64)
        arr = np.array(picked, dtype=np.int64)
        # Firewalled peers drop most unsolicited contacts (same post-filter
        # as the scan sampler).
        keep = ~self._firewalled[arr] | (rng.random(len(arr)) >= FIREWALL_DROP_PROB)
        return arr[keep]

    def _on_discovery(self, probe: _PeerState) -> None:
        t = self._queue.now
        found = self._tracker_sample(probe, self.profile.contact_batch, t)
        hs = self.profile.handshake_bytes
        for cand in found:
            c = int(cand)
            probe.add_known(c)
            self._record(t, probe.gidx, c, hs, PacketKind.SIGNALING)
            self._record(t + 2 * self._latency(probe.gidx, c), c, probe.gidx, hs, PacketKind.SIGNALING)
        self._queue.schedule(t + self.profile.contact_interval_s, self._on_discovery, probe)

    # -------------------------------------------------------------- partners
    def _on_partner_refresh(self, probe: _PeerState) -> None:
        t = self._queue.now
        rng = self._rng_engine
        online = self._online_mask(t)
        # Sticky partnerships: keep most current (online) partners, refill
        # the remaining slots from the known set with the awareness policy.
        kept = {
            g
            for g in probe.partners
            if online[g] and rng.random() < self.profile.partner_stickiness
        }
        known = np.fromiter(probe.known, dtype=np.int64, count=len(probe.known))
        cands = known[online[known]] if len(known) else known
        if len(kept):
            # Same filter as ~np.isin(cands, kept) in the same order, via
            # set probes instead of isin's per-call sort of both arrays.
            cands = np.array(
                [c for c in cands.tolist() if c not in kept], dtype=np.int64
            )
        slots = self.profile.max_partners - len(kept)
        if len(cands) and slots > 0:
            scores = self._partner_scores_for(probe, cands)
            picked = self._partner_policy.choose_scored(scores, slots)
            new_partners = kept | {int(cands[i]) for i in picked}
        else:
            new_partners = kept
        added = new_partners - probe.partners
        removed = probe.partners - new_partners
        p = self.profile
        me = int(self._ip[probe.gidx])
        for g in added:
            other = int(self._ip[g])
            # Periodic buffer-map exchange runs both ways; keepalives too.
            self._signaling.open(me, other, t, p.buffermap_interval_s, p.buffermap_bytes)
            self._signaling.open(other, me, t, p.buffermap_interval_s, p.buffermap_bytes)
            self._signaling.open(me, other, t, p.keepalive_interval_s, p.keepalive_bytes)
            self._signaling.open(other, me, t, p.keepalive_interval_s, p.keepalive_bytes)
        for g in removed:
            other = int(self._ip[g])
            self._signaling.close(me, other, t)
            self._signaling.close(other, me, t)
        probe.set_partners(new_partners)
        self._queue.schedule(t + p.partner_refresh_s, self._on_partner_refresh, probe)

    # ------------------------------------------------------------- streaming
    def _tick_probe(self, probe: _PeerState, t: float) -> None:
        """One probe's tick body (scan → schedule requests).

        The scan evicts, prunes in-flight requests that slid out of the
        window and lists the holes in one pass over the probe's row.  The
        scan limit is policy-dependent: mesh-pull takes the newest
        ``max_probe_attempts`` holes, ordering policies (rarest, EDF)
        need the whole window and budget their attempts themselves.
        """
        soa = self._soa
        pi = probe.pi
        _, lookahead = soa.tick_scan(pi, t, self._live_lag, self._scan_limit)
        if lookahead and probe.partners:
            arr = probe.partners_arr
            partners = arr[self._online_mask(t)[arr]]
            slots = self._max_parallel - soa.inflight_n[pi]
            if slots > 0 and len(partners):
                self._sched_requests(probe, t, lookahead, partners, slots)

    def _on_tick_cohort(self) -> None:
        """Tick every probe in one event, ascending probe order.

        Selected by ``profile.tick_cohort``.  Trace-equivalent to calling
        :meth:`_tick_probe` for each probe in turn at the same timestamp,
        which is what it does: the cohort schedule only changes *when*
        probes tick (one shared clock instead of staggered offsets), not
        how a tick runs.
        """
        t = self._queue.now
        for probe in self._probes:
            self._tick_probe(probe, t)
        self._queue.schedule(t + self._tick_interval, self._cb_tick_cohort)

    def _on_tick(self, probe: _PeerState) -> None:
        t = self._queue.now
        self._tick_probe(probe, t)
        self._queue.schedule(t + self._tick_interval, self._cb_tick, probe)

    def _request_chunk(self, probe: _PeerState, provider: int, chunk: int, t: float) -> bool:
        """Issue a chunk request; returns True when a transfer was queued.

        Recording and latency lookups are inlined (same rows, same tuples
        as :meth:`_record` / :meth:`_latency`): this runs once per request
        attempt and the call overhead is measurable at that rate.
        """
        pg = probe.gidx
        lat = probe.lat_row[provider]
        ul = self._up_list
        dl = self._down_list
        ipl = self._ip_list
        rng = self._rng_engine
        up = ul[pg]
        dn = dl[provider]
        self._rec_append(
            (t, ipl[pg], ipl[provider], REQUEST_BYTES, _KIND_CONTROL, up if up < dn else dn)
        )
        if self._loss_schedule is not None:
            loss_prob = self._loss_schedule.prob_at(t)
        else:
            loss_prob = self._loss_prob
        if loss_prob > 0 and rng.random() < loss_prob:
            # The request datagram was lost; nothing comes back and the
            # chunk ages until the next tick retries it.
            return False
        if rng.random() < self._stale_prob:
            # Stale buffer map: the provider no longer has (or never had)
            # the chunk and answers with a short decline.
            up = ul[provider]
            dn = dl[pg]
            self._rec_append(
                (
                    t + 2 * lat,
                    ipl[provider],
                    ipl[pg],
                    REQUEST_BYTES,
                    _KIND_CONTROL,
                    up if up < dn else dn,
                )
            )
            return False
        nbytes = self._chunk_bytes
        # Inlined UplinkScheduler.admit (same floats, same compares).
        t_req = t + lat
        free = self._ul_free
        start = free[provider]
        if start < t_req:
            start = t_req
        if start - t_req > self._ul_max_backlog:
            return False
        free[provider] = start + nbytes * BITS_PER_BYTE / self._ul_bps[provider]
        up = ul[provider]
        dn = dl[pg]
        bn = up if up < dn else dn  # bottleneck_bps, inlined
        arrival = start + nbytes * BITS_PER_BYTE / bn + lat
        self._rec_append((start, ipl[provider], ipl[pg], nbytes, _KIND_VIDEO, bn))
        # Inlined SoAState.inflight_add for the common case (the hole is
        # inside the row and not yet marked); the method handles the rest.
        soa = self._soa
        pi = probe.pi
        i = soa.row_off[pi] + chunk
        if chunk < soa.row_top[pi] and not soa.infl_buf[i]:
            soa.infl_buf[i] = 1
            soa.inflight_n[pi] += 1
        else:
            soa.inflight_add(pi, chunk)
        probe.busy[provider] += 1
        if probe.busy[provider] >= self._cap_out:
            probe.busy_over.add(provider)
        self._queue.schedule(arrival, self._cb_arrival, probe, chunk, provider)
        return True

    def _on_chunk_arrival(self, probe: _PeerState, chunk: int, provider: int) -> None:
        soa = self._soa
        pi = probe.pi
        soa.inflight_discard(pi, chunk)
        soa.have_add(pi, chunk)
        if probe.busy[provider] > 0:
            probe.busy[provider] -= 1
            if probe.busy[provider] < self._cap_out:
                probe.busy_over.discard(provider)
        if self._sched_push:
            self._scheduler.on_chunk_received(probe, chunk, provider, self._queue.now)

    # ------------------------------------------------------ remote demand
    def _demand_target(self, probe_gidx: int) -> float:
        base = self.profile.remote_demand
        return base if self._highbw[probe_gidx] else base * LOWBW_DEMAND_FACTOR

    def _on_demand_rebalance(self) -> None:
        """Re-sample which remotes download from which probes.

        Runs every ``demand_rebalance_s``: each probe attracts a
        Poisson-distributed number of remote downloaders, sampled with the
        profile's remote-side awareness weights (this is the ground-truth
        mechanism behind the paper's *upload*-direction metrics).
        Packs the transfer log first, so at most one rebalance window of
        it is ever held as tuple rows.
        """
        self._recorder.flush()
        t = self._queue.now
        rng = self._rng_engine
        online = self._online_mask(t)
        remotes = np.flatnonzero(online[: self.n_remote])
        self._attached.clear()
        if len(remotes):
            for probe in self._probes:
                target = self._demand_target(probe.gidx)
                if self._firewalled[probe.gidx]:
                    # Firewalled probes drop most unsolicited inbound
                    # sessions; only the surviving fraction attaches.
                    target *= 1.0 - self.config.firewall_attach_drop_prob
                k = min(int(rng.poisson(target)), len(remotes))
                if k == 0:
                    continue
                row = self._remote_rows.row(probe.pi)
                picked = self._remote_policy.choose_scored(row[remotes], k)
                window_end = min(t + self.config.demand_rebalance_s, self.config.duration_s)
                for i in picked:
                    r = int(remotes[i])
                    self._attached.add((r, probe.gidx))
                    probe.add_known(r)
                    self._record(t, r, probe.gidx, self.profile.handshake_bytes, PacketKind.SIGNALING)
                    self._schedule_pulls(r, probe, t, window_end)
        self._queue.schedule(
            t + self.config.demand_rebalance_s, self._on_demand_rebalance
        )

    def _schedule_pulls(self, remote: int, probe: _PeerState, t0: float, t1: float) -> None:
        """Draw the remote's pull times for one rebalance window, batched.

        The RNG draws (Poisson count, sorted uniform times) are identical
        to the per-pull scheme this replaced.  Instead of pushing one
        queue event per pull, the whole window becomes *one* chained
        array-walking event per (remote, probe) pair: each dispatch
        serves pull ``i`` and schedules pull ``i + 1``, so the pending
        event count per window drops from ~rate × window to one per
        attached pair while the dispatch times — and hence all transport
        interleavings — stay exactly the per-pull floats.

        The remote's *want* (its newest missing chunk, eq. to
        :meth:`RemoteAvailability.newest_missing`) is a pure function of
        the pull time, so the whole window's wants are precomputed here
        as one vectorised arrival-time pass — same truncating divisions,
        same IEEE doubles as the scalar per-event computation.
        """
        rng = self._rng_engine
        rate = self.profile.remote_pull_rate
        if rate <= 0:
            return
        n = rng.poisson(rate * (t1 - t0))
        if n == 0:
            return
        times = np.sort(rng.uniform(t0, t1, size=n))
        delay, ready = self.availability.scalar_view(remote)
        ci = self.availability.chunk_interval
        live = (times / ci).astype(np.int64)
        have_up_to = (np.maximum(0.0, times - delay) / ci).astype(np.int64)
        newest_missing = have_up_to + 1
        wants = np.where(
            times < ready,
            live,
            np.where(newest_missing <= live, newest_missing, -1),
        )
        self._queue.schedule(
            float(times[0]),
            self._cb_pull,
            remote,
            probe,
            delay,
            ready,
            times.tolist(),
            wants.tolist(),
            0,
        )

    def _on_remote_pull(
        self,
        remote: int,
        probe: _PeerState,
        delay: float,
        ready: float,
        times: list[float],
        wants: list[int],
        i: int,
    ) -> None:
        """Serve pull ``i`` of the window, then chain-schedule pull ``i+1``.

        ``delay``/``ready`` are the remote's (static) availability scalars,
        resolved once per window in :meth:`_schedule_pulls` and carried in
        the chain arguments.  The newest-serveable scan — the newest of
        the ≤ 6 chunks below ``want`` that the probe holds and the remote
        still lacks — reads the probe's row straight from the shared byte
        buffer and inlines the oracle's exact arithmetic
        (``max(gen + delay, ready) > t`` or aged past retention).
        """
        t = times[i]
        pg = probe.gidx
        if (remote, pg) in self._attached and t < self._leave_list[remote]:
            ul = self._up_list
            dl = self._down_list
            ipl = self._ip_list
            up = ul[remote]
            dn = dl[pg]
            self._rec_append(
                (t, ipl[remote], ipl[pg], REQUEST_BYTES, _KIND_CONTROL, up if up < dn else dn)
            )
            want = wants[i]
            if want >= 0:
                soa = self._soa
                pi = probe.pi
                hb = soa.have_buf
                b = soa.base[pi]
                top = soa.row_top[pi]
                off = soa.row_off[pi]
                ci = self._av_chunk_interval
                ret = self._av_retention
                lo = want - 6
                if lo < 0:
                    lo = 0
                chunk = want
                while chunk >= lo:
                    if hb[off + chunk] if b <= chunk < top else chunk in soa.low[pi]:
                        gen = chunk * ci
                        arrival = gen + delay
                        if ready > arrival:
                            arrival = ready
                        if t < arrival or t >= gen + ret:
                            # The remote lacks it → serve this chunk.
                            nbytes = self._chunk_bytes
                            lat = probe.lat_row[remote]
                            # Inlined UplinkScheduler.admit.
                            t_req = t + lat
                            free = self._ul_free
                            start = free[pg]
                            if start < t_req:
                                start = t_req
                            if start - t_req <= self._ul_max_backlog:
                                free[pg] = (
                                    start + nbytes * BITS_PER_BYTE / self._ul_bps[pg]
                                )
                                up = ul[pg]
                                dn = dl[remote]
                                self._rec_append(
                                    (
                                        start,
                                        ipl[pg],
                                        ipl[remote],
                                        nbytes,
                                        _KIND_VIDEO,
                                        up if up < dn else dn,
                                    )
                                )
                            break
                    chunk -= 1
        i += 1
        if i < len(times):
            self._queue.schedule(
                times[i], self._cb_pull, remote, probe, delay, ready, times, wants, i
            )

    # --------------------------------------------------------- array kernels
    def _partner_ctx(self, pi: int, partners: np.ndarray) -> dict:
        """Per-partner-set scan inputs for probe ``pi``, kept for its last set.

        Partner sets only change at refresh/churn boundaries, so the
        remote/probe split, the diffusion scalars and the provider scores
        are reused across the many ticks in between.  Every ctx carries
        the array layout the vectorised kernels use (see
        :meth:`_availability`) and ``score_of``, each partner's provider
        score.  A narrow set (≤ ``_NARROW_PARTNERS`` partners) also
        carries ``narrow``, a scalar scan plan tuple:

        * ``(gidx, remote column, probe row)`` per partner in plan order
          (column ``-1`` for probes, row ``-1`` for remotes);
        * ``(gidx, probe row)`` for the probe partners alone;
        * the remote ``delays`` and ``ready`` scalars as float lists.

        Neither layout holds chunk thresholds: both kernels compute
        ``max(gen + delay, ready)`` for the chunks they scan, when they
        scan them.
        """
        # An equal set reuses the ctx; any other set rebuilds it.  One
        # slot is enough: partners only leave between refreshes, so a
        # replaced set does not come back (and if one did, its ctx would
        # rebuild bit-identically from the same static inputs).
        key = partners.tobytes()
        slot = self._ctx_slot[pi]
        if slot is not None and slot[0] == key:
            return slot[1]
        ctx = self._build_partner_ctx(pi, partners)
        self._ctx_slot[pi] = (key, ctx)
        return ctx

    def _build_partner_ctx(self, pi: int, partners: np.ndarray) -> dict:
        """A fresh partner context (see :meth:`_partner_ctx`)."""
        cols = partners.tolist()
        nr = self.n_remote
        is_remote = partners < nr
        delays, ready = self.availability.subset(partners[is_remote])
        n_rem = int(is_remote.sum())
        # The availability matrix stores the remote columns as a leading
        # block and the probe columns as a trailing block (each in plan
        # order), so the kernel assembles it with one concatenate instead
        # of fancy column scatters.  ``plan_cols`` maps every plan
        # position to its matrix column: permuting the matrix with it
        # makes a flat ``nonzero`` walk visit advertisers in plan order,
        # and ``plan_g`` maps the walk straight back to partner ids.
        r = p = 0
        plan_cols = []
        plan = []
        for g in cols:
            if g < nr:
                plan_cols.append(r)
                plan.append((g, r, -1))
                r += 1
            else:
                plan_cols.append(n_rem + p)
                plan.append((g, -1, g - nr))
                p += 1
        plan_g = partners.copy()
        # Provider scores over the plan columns, scored on demand
        # (element-independent, see _build_protocol_state).
        plan_scores = self._provider_policy.scores(self._features(nr + pi, plan_g))
        return {
            "plan_cols": np.array(plan_cols, dtype=np.int64),
            "plan_g": plan_g,
            "n_rem": n_rem,
            "delays": delays,
            "ready": ready,
            "plan_scores": plan_scores,
            "score_of": dict(zip(cols, plan_scores.tolist())),
            # Probe-partner bitmap rows, in plan order, for the gather.
            "probe_rows_arr": np.array(
                [g - nr for g in cols if g >= nr], dtype=np.int64
            ),
            "narrow": (
                (
                    plan,
                    [(g, row) for g, _k, row in plan if row >= 0],
                    delays.tolist(),
                    ready.tolist(),
                )
                if len(cols) <= _NARROW_PARTNERS
                else None
            ),
        }

    def _availability(self, ctx: dict, chunks_arr: np.ndarray, t: float) -> np.ndarray:
        """Availability matrix for ``chunks_arr`` against one partner ctx.

        Columns are the ctx's block layout — remote partners first, probe
        partners after, each in plan order; ``ctx["plan_cols"]`` maps plan
        positions to columns (see ``_partner_ctx``).  Remote columns are
        the oracle's test (:meth:`RemoteAvailability.has_chunk`) for just
        the scanned rows: the diffusion threshold
        ``max(gen + delay, ready) <= t`` and the freshness deadline
        ``gen + retention > t`` — elementwise the IEEE doubles of the
        narrow plan's per-chunk threshold lists.  Probe columns gather
        straight from the shared ``have`` bitmaps.
        """
        avail = pb = None
        if ctx["n_rem"]:
            gens = chunks_arr * self._av_chunk_interval
            avail = np.maximum(gens[:, None] + ctx["delays"], ctx["ready"]) <= t
            # Freshness (gen + retention > t) is vacuously true for every
            # scanned chunk when the retention window covers the playout
            # window: chunks sit at/above floor ≥ live − W + 1, so
            # t − gen < W·ci ≤ retention.  Only compare when it can bite.
            if self._av_retention < self._soa.window_chunks * self._av_chunk_interval:
                avail &= (gens + self._av_retention > t)[:, None]
        rows_arr = ctx["probe_rows_arr"]
        if rows_arr.size:
            soa = self._soa
            # One 2-D gather for every probe column.  Scanned chunks sit
            # at/above every probe's eviction frontier ≥ its base — any
            # partner's base ≤ its own floor at its last tick ≤ the
            # scanner's current floor — so S ≥ 0 always (ids a partner
            # parked in its low set are below the scanner's floor and
            # never scanned).  Slots past the row top clamp onto the
            # always-False guard column: "not held", no mask needed.
            S = chunks_arr[:, None] - soa.base_arr[rows_arr][None, :]
            pb = soa.have[rows_arr[None, :], np.minimum(S, soa.capacity)]
        if avail is None:
            return pb
        if pb is None:
            return avail
        return np.concatenate((avail, pb), axis=1)

    # ------------------------------------------------------------------- run
    def _release(self) -> None:
        """Break the reference cycles that pin a finished engine.

        The events still queued at the horizon and the pre-bound
        callbacks hold bound methods of the engine; the scheduler and the
        score-row cache hold it through their back-reference and builder.
        Without them the engine is freed by reference counting as soon
        as the caller drops it, instead of waiting for the cyclic GC.
        Every array and memo stays readable for a caller that keeps the
        engine.
        """
        self._queue.clear()
        del self._cb_tick, self._cb_tick_cohort, self._cb_arrival, self._cb_pull
        self._scheduler.unbind()
        self._remote_rows.release()

    def run(self) -> SimulationResult:
        """Execute the experiment and return the raw result bundle.

        An engine runs once: a second call raises before it touches any
        state.  The finished engine stays inspectable, but its reference
        cycles are broken (see :meth:`_release`).
        """
        if self._ran:
            raise SimulationError("an engine runs once; build a new Engine to run again")
        self._ran = True
        t_stagger = self.profile.tick_interval_s / max(1, self.n_probe)
        cohort = self.profile.tick_cohort
        for i, probe in enumerate(self._probes):
            found = self._tracker_sample(probe, self.profile.tracker_initial, 0.0)
            for g in found.tolist():
                probe.add_known(g)
            hs = self.profile.handshake_bytes
            for cand in found:
                self._record(0.0, probe.gidx, int(cand), hs, PacketKind.SIGNALING)
                self._record(0.0, int(cand), probe.gidx, hs, PacketKind.SIGNALING)
            self._queue.schedule(i * t_stagger, self._on_partner_refresh, probe)
            if not cohort:
                self._queue.schedule(0.05 + i * t_stagger, self._on_tick, probe)
            self._queue.schedule(
                0.5 + i * t_stagger * 10, self._on_discovery, probe
            )
        if cohort:
            # All probes tick in one event, ascending probe order.
            self._queue.schedule(0.05, self._on_tick_cohort)
        self._queue.schedule(0.0, self._on_demand_rebalance)

        events = self._queue.run_until(self.config.duration_s)
        transfers = self._recorder.finalize()
        signaling = self._signaling.finalize(self.config.duration_s)

        hosts = HostTable.from_columns(
            ip=self._ip,
            asn=self._asn,
            cc=np.array([self._cc_labels[c] for c in self._cc], dtype="U2"),
            subnet=self._subnet,
            up_bps=self._up,
            down_bps=self._down,
            is_probe=self._is_probe,
            highbw=self._highbw,
            initial_ttl=self._initial_ttl,
            access_depth=self._access_depth,
        )
        # Event-loop statistics: vectorised accounting over the finished
        # log, so the hot path pays nothing and determinism is untouched.
        video = transfers["kind"] == int(PacketKind.VIDEO)
        # Per-kind scheduler accounting, keyed by handler name with the
        # ``_on_`` prefix stripped (tick, remote_pull, chunk_arrival, …).
        dispatch_by_kind = {
            name.removeprefix("_on_"): count
            for name, count in sorted(self._queue.dispatched_by_kind.items())
        }
        schedule_by_kind = {
            name.removeprefix("_on_"): count
            for name, count in sorted(self._queue.scheduled_by_kind.items())
        }
        stats = {
            "events": int(events),
            "events_scheduled": int(sum(schedule_by_kind.values())),
            "dispatch_by_kind": dispatch_by_kind,
            "schedule_by_kind": schedule_by_kind,
            "peak_queue_depth": int(self._queue.peak_depth),
            "transfer_records": int(len(transfers)),
            "transfer_log_bytes": int(transfers.nbytes),
            "score_rows_bytes": int(self._remote_rows.nbytes),
            # ``lazy.score_row_misses`` again, at the top level where the
            # exported counters are read (``lazy`` matches recordings).
            "score_row_builds": int(self._remote_rows.misses),
            "signaling_intervals": int(len(signaling)),
            "bytes_recorded": int(transfers["bytes"].sum()),
            "video_records": int(video.sum()),
            "video_bytes": int(transfers["bytes"][video].sum()),
            "remote_peers": int(self.n_remote),
            "probes": int(self.n_probe),
            # Residency of the per-remote state materialised on first
            # contact — counts, not floats, and a pure function of the
            # seed (the touch sequence is part of the determinism contract).
            "lazy": {
                "score_rows_cached": int(len(self._remote_rows)),
                "score_row_hits": int(self._remote_rows.hits),
                "score_row_misses": int(self._remote_rows.misses),
                "score_row_evictions": int(self._remote_rows.evictions),
                "max_touched_busy": max(len(p.busy) for p in self._probes),
                "max_touched_lat": max(len(p.lat_row) for p in self._probes),
            },
        }
        _log.info(
            "run-complete",
            profile=self.profile.name,
            duration_s=self.config.duration_s,
            seed=self.config.seed,
            **stats,
        )
        self._release()
        return SimulationResult(
            transfers=transfers,
            signaling=signaling,
            hosts=hosts,
            testbed=self.testbed,
            world=self.world,
            profile=self.profile,
            config=self.config,
            events_processed=events,
            extras={"engine_stats": stats},
        )


def simulate(
    profile: AppProfile,
    *,
    duration_s: float = 600.0,
    seed: int = 7,
    world: World | None = None,
    testbed: Testbed | None = None,
    demographics: Demographics | None = None,
    engine_config: EngineConfig | None = None,
) -> SimulationResult:
    """Run one complete experiment for ``profile`` — the main entry point.

    Builds (or reuses) the synthetic Internet and Table I testbed,
    generates the profile's audience, runs the engine, and returns the raw
    result.  The audience honours the profile's ``eu_audience_boost`` and
    ``probe_as_fraction`` (channel-popularity effects).
    """
    config = engine_config or EngineConfig(duration_s=duration_s, seed=seed)
    if world is None:
        world = World()
    if testbed is None:
        testbed = build_napa_wine_testbed(world)
    if demographics is None:
        audience = (
            crossswarm_audience if profile.audience == "crossswarm" else cctv1_audience
        )
        base = audience(probe_as_fraction=profile.probe_as_fraction)
        if profile.eu_audience_boost != 1.0:
            weights = dict(base.country_weights)
            for cc in ("IT", "FR", "HU", "PL"):
                weights[cc] = weights.get(cc, 1.0) * profile.eu_audience_boost
            demographics = Demographics(
                country_weights=weights,
                highbw_fraction=base.highbw_fraction,
                default_highbw=base.default_highbw,
                probe_as_fraction=profile.probe_as_fraction,
            )
        else:
            demographics = base
    rngs = RngBundle(config.seed)
    if profile.swarm == "sparse":
        population = generate_sparse_swarm(
            world,
            SparseSwarmConfig(size=profile.swarm_size, demographics=demographics),
            rngs["population"],
        )
    else:
        population = generate_population(
            world,
            PopulationConfig(size=profile.swarm_size, demographics=demographics),
            rngs["population"],
        )
    # Resolved at call time: wrappers of engine construction patch
    # ``repro.streaming.soa.get_engine``.
    from repro.streaming.soa import get_engine

    cls = get_engine(None)
    return cls(world, testbed, profile, population, config).run()
