"""AS-level topology graph and inter-AS router-hop distances.

The HOP metric of the paper is the router-hop count between two peers, as
recovered from received TTLs (128 − TTL for Windows senders).  We model it
as the sum of:

* router hops *inside* every AS a packet traverses (an AS-tier-dependent
  constant),
* one hop per inter-AS link crossed,
* a per-endpoint access-tree depth.

The AS-level graph mirrors the Internet's hierarchy: a densely meshed
tier-1 core, regional transit ASes multi-homed into the core, and access /
campus ASes hanging off transit providers of the same region when possible.
With the default constants the resulting end-to-end hop distribution has a
median of ≈19, matching the paper's observation ("the actual HOP median
ranges from 18 to 20").
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import TopologyError
from repro.topology.autonomous_system import ASRegistry, ASTier

#: Router hops spent crossing the inside of an AS, by tier.
INTERNAL_HOPS: dict[ASTier, int] = {
    ASTier.TIER1: 3,
    ASTier.TRANSIT: 3,
    ASTier.ACCESS: 2,
    ASTier.CAMPUS: 1,
}

#: Distance sentinel of :meth:`ASGraph.transit_matrix`; twice it still
#: fits in int64, so the min-plus sums cannot overflow.
_UNREACHABLE = np.iinfo(np.int64).max // 4


@dataclass(frozen=True, slots=True)
class ASGraphConfig:
    """Knobs for synthetic AS-graph construction.

    Parameters
    ----------
    transit_uplinks:
        How many tier-1 providers each transit AS buys from.
    access_uplinks:
        How many transit providers each access/campus AS buys from.
    regional_peering_prob:
        Probability that two transit ASes of the same region establish a
        private peering link (shortcutting the core).
    """

    transit_uplinks: int = 2
    access_uplinks: int = 2
    regional_peering_prob: float = 0.3


class ASGraph:
    """The AS-level connectivity graph with router-hop path costs."""

    def __init__(self, graph: nx.Graph, registry: ASRegistry) -> None:
        self._graph = graph
        self._registry = registry
        self._hop_cache: dict[int, dict[int, float]] = {}
        #: Entry cost (1 inter-AS hop + internal hops) per node, memoised —
        #: the Dijkstra weight callback fires once per edge relaxation and
        #: a registry lookup there dominates the whole search.
        self._entry_cost: dict[int, int] = {}
        #: Bumped by :meth:`invalidate_routes` whenever the graph gains
        #: nodes/edges after construction; :class:`~repro.topology.paths.
        #: PathModel` compares it to decide when its dense transit-hop
        #: matrix must be rebuilt.
        self.routes_version = 0
        #: All-pairs entry-cost distances over every node (node → row
        #: index, matrix), computed by :meth:`transit_matrix` and dropped
        #: with the other route caches.
        self._all_pairs: tuple[dict[int, int], np.ndarray] | None = None

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        registry: ASRegistry,
        regions: dict[int, str],
        rng: np.random.Generator,
        config: ASGraphConfig | None = None,
    ) -> "ASGraph":
        """Construct a hierarchical AS graph over the ASes in ``registry``.

        Parameters
        ----------
        registry:
            The AS registry; all its ASes become graph nodes.
        regions:
            ASN → region label (used for locality-preferring attachment).
        rng:
            Seeded generator; the build is deterministic given it.
        config:
            Construction knobs, see :class:`ASGraphConfig`.
        """
        cfg = config or ASGraphConfig()
        graph = nx.Graph()
        tier1, transit, edge_ases = [], [], []
        for asys in registry:
            graph.add_node(asys.asn, tier=asys.tier)
            if asys.tier is ASTier.TIER1:
                tier1.append(asys.asn)
            elif asys.tier is ASTier.TRANSIT:
                transit.append(asys.asn)
            else:
                edge_ases.append(asys.asn)
        if not tier1:
            raise TopologyError("AS graph needs at least one tier-1 AS")

        # Tier-1 core: full mesh.
        for i, a in enumerate(tier1):
            for b in tier1[i + 1 :]:
                graph.add_edge(a, b)

        # Transit ASes multi-home into the core.
        for asn in transit:
            k = min(cfg.transit_uplinks, len(tier1))
            ups = rng.choice(tier1, size=k, replace=False)
            for up in ups:
                graph.add_edge(asn, int(up))

        # Same-region transit peering shortcuts.
        for i, a in enumerate(transit):
            for b in transit[i + 1 :]:
                if regions.get(a) == regions.get(b) and rng.random() < cfg.regional_peering_prob:
                    graph.add_edge(a, b)

        # Access / campus ASes attach to transit, preferring their region.
        providers = transit if transit else tier1
        for asn in edge_ases:
            local = [p for p in providers if regions.get(p) == regions.get(asn)]
            pool = local if local else providers
            k = min(cfg.access_uplinks, len(pool))
            ups = rng.choice(pool, size=k, replace=False)
            for up in ups:
                graph.add_edge(asn, int(up))
            # Multi-homed edge ASes may also reach a non-local provider.
            if local and len(providers) > len(local) and rng.random() < 0.25:
                others = [p for p in providers if p not in local]
                graph.add_edge(asn, int(rng.choice(others)))

        built = cls(graph, registry)
        built._check_connected()
        return built

    def _check_connected(self) -> None:
        if self._graph.number_of_nodes() and not nx.is_connected(self._graph):
            raise TopologyError("synthetic AS graph is disconnected")

    # ----------------------------------------------------------------- access
    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (read-only by convention)."""
        return self._graph

    def internal_hops(self, asn: int) -> int:
        """Router hops spent crossing AS ``asn`` internally."""
        return INTERNAL_HOPS[self._registry.get(asn).tier]

    def invalidate_routes(self) -> None:
        """Drop every cached distance after a post-build graph mutation.

        Late-attached ASes (the per-home-probe ISPs of Table I) can create
        regional shortcuts, so previously computed pair distances are not
        guaranteed to survive; callers that mutate :attr:`graph` must call
        this so the next query recomputes from the current topology.
        """
        self._hop_cache.clear()
        self._entry_cost.clear()
        self._all_pairs = None
        self.routes_version += 1

    def _edge_weight(self, u: int, v: int, d: dict) -> int:
        """Dijkstra weight: cost of entering ``v`` (link + internal hops)."""
        cost = self._entry_cost.get(v)
        if cost is None:
            cost = 1 + self.internal_hops(v)
            self._entry_cost[v] = cost
        return cost

    def as_path(self, src_asn: int, dst_asn: int) -> list[int]:
        """The AS-level path between two ASes (weighted shortest path).

        Edge weight is the cost of entering the next AS: its internal hop
        count plus one hop for the inter-AS link itself — so the shortest
        path minimises total router hops, like hot-potato routing broadly
        does.
        """
        if src_asn == dst_asn:
            return [src_asn]
        try:
            return nx.shortest_path(
                self._graph, src_asn, dst_asn, weight=self._edge_weight
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise TopologyError(f"no AS path AS{src_asn} → AS{dst_asn}") from exc

    def transit_hops(self, src_asn: int, dst_asn: int) -> int:
        """Router hops between the borders of ``src_asn`` and ``dst_asn``.

        Counts the internal hops of every AS on the path — *including* the
        two endpoint ASes, whose cores a packet must cross to reach the
        access tree — plus one hop per inter-AS link.  Results are cached
        per source (single-source Dijkstra), so repeated pair queries are
        O(1) after the first.
        """
        if src_asn == dst_asn:
            return self.internal_hops(src_asn)
        dist = self._hops_from(src_asn)
        try:
            return int(dist[dst_asn]) + self.internal_hops(src_asn)
        except KeyError as exc:
            raise TopologyError(f"no AS path AS{src_asn} → AS{dst_asn}") from exc

    def transit_matrix(self, asns: list[int]) -> np.ndarray:
        """:meth:`transit_hops` for every ordered pair of ``asns`` (int64).

        One Floyd–Warshall (min-plus) pass over the whole graph with the
        Dijkstra weights — entering ``v`` costs ``1 + internal_hops(v)`` —
        gives every border-to-border distance; each row then adds its
        source AS's own internal hops.  Integer arithmetic makes it equal
        to the per-source Dijkstra, pair for pair.  The distances are
        kept until :meth:`invalidate_routes`, so registering more ASes
        costs one gather.
        """
        if self._all_pairs is None:
            nodes = list(self._graph.nodes)
            index = {asn: i for i, asn in enumerate(nodes)}
            entry = np.array([1 + self.internal_hops(a) for a in nodes], dtype=np.int64)
            dist = np.full((len(nodes), len(nodes)), _UNREACHABLE, dtype=np.int64)
            for u, v in self._graph.edges:
                dist[index[u], index[v]] = entry[index[v]]
                dist[index[v], index[u]] = entry[index[u]]
            np.fill_diagonal(dist, 0)
            for k in range(len(nodes)):
                np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
            self._all_pairs = (index, dist)
        index, dist = self._all_pairs
        try:
            rows = np.array([index[int(a)] for a in asns], dtype=np.intp)
        except KeyError as exc:
            raise TopologyError(f"AS{exc.args[0]} not in graph") from exc
        matrix = dist[np.ix_(rows, rows)]
        if matrix.size and matrix.max() >= _UNREACHABLE:
            raise TopologyError("no AS path between some of the requested ASes")
        internal = np.array([self.internal_hops(int(a)) for a in asns], dtype=np.int64)
        return matrix + internal[:, None]

    def _hops_from(self, src_asn: int) -> dict[int, float]:
        cached = self._hop_cache.get(src_asn)
        if cached is None:
            if src_asn not in self._graph:
                raise TopologyError(f"AS{src_asn} not in graph")
            cached = nx.single_source_dijkstra_path_length(
                self._graph, src_asn, weight=self._edge_weight
            )
            self._hop_cache[src_asn] = cached
        return cached

    def degree(self, asn: int) -> int:
        """Number of AS-level neighbours."""
        return self._graph.degree[asn]

    def __contains__(self, asn: int) -> bool:
        return asn in self._graph
