"""End-to-end path model: router hops, asymmetry, TTL decrements.

The paper's HOP metric is recovered from received TTLs: with Windows
senders (initial TTL 128), ``HOP(e, p) = 128 − TTL``.  The path model maps
pairs of :class:`~repro.topology.host.NetworkEndpoint` to router-hop counts:

``hops(s → d) = 0``                                when same subnet, else
``hops(s → d) = transit(AS_s, AS_d) + acc(s) + acc(d) + jitter(s, d)``

where ``transit`` comes from the AS graph (symmetric), ``acc`` is the
access-tree depth of each endpoint, and ``jitter`` is a small deterministic
per-ordered-pair term that creates realistic forward/reverse asymmetry
(paper §III-C discusses why this matters and why a coarse partition
tolerates it).

Both a scalar API and a vectorised API (used by the engine's awareness
features and by packet-trace synthesis) are provided; they agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._hashing import pair_randint
from repro.errors import TopologyError
from repro.topology.access import AccessClass
from repro.topology.asgraph import ASGraph
from repro.topology.host import NetworkEndpoint

#: Access-tree depth (hops between the host's first router and the AS core).
ACCESS_DEPTH: dict[AccessClass, int] = {
    AccessClass.LAN: 1,   # campus switch/router
    AccessClass.DSL: 2,   # DSLAM + BRAS
    AccessClass.CATV: 2,  # CMTS + aggregation
    AccessClass.FTTH: 2,
}


@dataclass(frozen=True, slots=True)
class PathModelConfig:
    """Path model knobs.

    Parameters
    ----------
    jitter_span:
        Per-ordered-pair extra hops are drawn (deterministically) from
        ``[0, jitter_span)``.  Ordered-pair hashing makes forward and
        reverse jitters independent, bounding |fwd − rev| by
        ``jitter_span − 1``.
    seed:
        Hash seed; experiments with equal seeds see identical paths.
    """

    jitter_span: int = 3
    seed: int = 0


class PathModel:
    """Deterministic router-hop and TTL model over an :class:`ASGraph`."""

    def __init__(self, asgraph: ASGraph, config: PathModelConfig | None = None) -> None:
        self._asgraph = asgraph
        self._config = config or PathModelConfig()
        # Dense transit-hop matrix over the registered ASNs.  Registration
        # (ensure_asns) is cheap and eager; the matrix itself materialises
        # lazily at the first hop query, so a world assembled through many
        # ``add_home_as`` calls pays for *one* all-pairs computation instead
        # of a full rebuild (and a full Dijkstra sweep) per attachment.
        self._asn_index: dict[int, int] = {}
        self._transit: np.ndarray = np.zeros((0, 0), dtype=np.int16)
        #: Dense ASN → matrix-row lookup (−1 = not in the matrix, including
        #: the trailing entry every larger ASN clips to); rebuilt with the
        #: matrix so vectorised queries avoid per-element dict lookups.
        self._asn_lut: np.ndarray = np.full(1, -1, dtype=np.int32)
        self._built_version = asgraph.routes_version

    @property
    def config(self) -> PathModelConfig:
        return self._config

    # ----------------------------------------------------------- ASN indexing
    def ensure_asns(self, asns: list[int] | np.ndarray) -> None:
        """Register ``asns`` for the transit-hop matrix.

        Unknown ASes fail fast here; the (expensive) matrix rows are
        computed lazily by the next hop query, over the graph as it stands
        *then* — which is what makes repeated late-AS attachment cheap.
        """
        for a in asns:
            asn = int(a)
            if asn in self._asn_index:
                continue
            if asn not in self._asgraph:
                raise TopologyError(f"AS{asn} absent from the AS graph")
            self._asn_index[asn] = len(self._asn_index)

    def _materialise(self) -> None:
        """Bring the dense matrix in sync with registrations and topology."""
        version = self._asgraph.routes_version
        n = len(self._asn_index)
        if self._transit.shape[0] == n and self._built_version == version:
            return
        all_asns = sorted(self._asn_index, key=self._asn_index.__getitem__)
        # A topology mutation (late-attached AS) can shorten existing pair
        # distances, so cached rows survive only while the version matches.
        old = self._transit.shape[0] if self._built_version == version else 0
        matrix = np.zeros((n, n), dtype=np.int16)
        if old:
            matrix[:old, :old] = self._transit
        for i in range(old, n):
            a = all_asns[i]
            for j in range(i + 1):
                v = self._asgraph.transit_hops(a, all_asns[j])
                matrix[i, j] = v
                matrix[j, i] = v
        self._transit = matrix
        self._built_version = version
        lut = np.full(max(all_asns, default=0) + 2, -1, dtype=np.int32)
        lut[all_asns] = np.arange(n)
        self._asn_lut = lut

    def _index_of(self, asn: int) -> int:
        idx = self._asn_index.get(asn)
        if idx is None:
            self.ensure_asns([asn])
            idx = self._asn_index[asn]
        return idx

    # ----------------------------------------------------------------- scalar
    def hops(self, src: NetworkEndpoint, dst: NetworkEndpoint) -> int:
        """Router hops on the forward path ``src → dst``."""
        if src.ip == dst.ip:
            return 0
        if src.same_subnet(dst):
            return 0
        si = self._index_of(src.asn)
        di = self._index_of(dst.asn)
        self._materialise()
        transit = int(self._transit[si, di])
        jitter = int(
            pair_randint(src.ip, dst.ip, self._config.jitter_span, self._config.seed)
        )
        return transit + ACCESS_DEPTH[src.access.kind] + ACCESS_DEPTH[dst.access.kind] + jitter

    def ttl_at_receiver(self, src: NetworkEndpoint, dst: NetworkEndpoint) -> int:
        """The TTL ``dst`` observes on packets from ``src``."""
        ttl = src.initial_ttl - self.hops(src, dst)
        if ttl <= 0:
            raise TopologyError(
                f"path {src.ip} → {dst.ip} longer than initial TTL {src.initial_ttl}"
            )
        return ttl

    # ------------------------------------------------------------- vectorised
    def _matrix_rows(self, asns: np.ndarray) -> np.ndarray | None:
        """Transit-matrix rows of ``asns``; ``None`` if one is not in it.

        ASNs beyond the lookup table clip to its trailing −1 entry and
        negative ones to ASN 0's, which is −1 too (ASNs are positive).
        """
        rows = self._asn_lut.take(asns, mode="clip")
        if rows.size and rows.min() < 0:
            return None
        return rows

    def hops_many(
        self,
        src_ips: np.ndarray | int,
        src_asns: np.ndarray | int,
        src_subnets: np.ndarray | int,
        src_access_depths: np.ndarray | int,
        dst_ips: np.ndarray,
        dst_asns: np.ndarray,
        dst_subnets: np.ndarray,
        dst_access_depths: np.ndarray,
    ) -> np.ndarray:
        """Vectorised forward-path hop counts for aligned endpoint arrays.

        Agrees element-wise with :meth:`hops`.  The destination inputs
        must have equal shape; each source input is either an array of
        that shape or a scalar (one source against many destinations,
        broadcast without expanding it).  Subnets are the masked network
        addresses (:attr:`NetworkEndpoint.subnet`).

        ASNs are registered and the transit matrix rebuilt only when a
        query meets an ASN outside the matrix or the AS graph changed
        since it was built; otherwise the query is one table gather.
        """
        src_asns = np.asarray(src_asns)
        dst_asns = np.asarray(dst_asns)
        si = di = None
        if self._built_version == self._asgraph.routes_version:
            si = self._matrix_rows(src_asns)
            di = self._matrix_rows(dst_asns)
        if si is None or di is None:
            self.ensure_asns(
                np.unique(np.concatenate([src_asns.ravel(), dst_asns.ravel()])).tolist()
            )
            self._materialise()
            si = self._matrix_rows(src_asns)
            di = self._matrix_rows(dst_asns)
        hops = pair_randint(src_ips, dst_ips, self._config.jitter_span, self._config.seed)
        if si.ndim == 0:  # one source: a 1-D gather from its matrix row
            hops += self._transit[int(si)].take(di)
        else:
            hops += self._transit[si, di]
        hops += src_access_depths
        hops += dst_access_depths
        same = np.asarray(src_subnets) == np.asarray(dst_subnets)
        same |= np.asarray(src_ips) == np.asarray(dst_ips)
        np.copyto(hops, 0, where=same)
        return hops


def access_depth(endpoint: NetworkEndpoint) -> int:
    """Access-tree depth for one endpoint (helper for vectorised callers)."""
    return ACCESS_DEPTH[endpoint.access.kind]
