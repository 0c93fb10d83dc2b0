"""Overlay-graph structure analysis.

The paper explains PPLive's locality through an iterative "triangle
construction" (Leskovec et al.): neighbor referral plus latency racing
self-organises peers into "highly connected clusters ... highly
localized at the ISP level".  This module quantifies that claim on a
simulation snapshot:

* **intra-ISP edge fraction** — how many overlay links stay inside one
  ISP, compared with the fraction expected if the same degree sequence
  were wired ignoring ISPs (the null model),
* **average clustering coefficient** — triangle density (referral creates
  triangles: I connect to my neighbor's neighbors),
* **ISP assortativity** — Newman's attribute assortativity over the ISP
  category label,
* **ISP modularity** — how well the ISP partition explains the overlay's
  community structure.

Built on ``networkx``; consumes a :class:`SessionResult` (or any iterable
of peers with ``address``/``neighbors``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set

from ..network.asn import AsnDirectory
from ..network.isp import ISPCategory

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


def overlay_graph(peers: Iterable, directory: AsnDirectory,
                  infrastructure: Set[str] = frozenset()) -> nx.Graph:
    """Snapshot the neighbor relationships as an undirected graph.

    Nodes are peer addresses annotated with their ISP category; an edge
    exists when either endpoint lists the other as a neighbor.
    Infrastructure addresses are excluded.
    """
    import networkx as nx
    graph = nx.Graph()
    peer_list = [p for p in peers
                 if getattr(p, "address", None) not in infrastructure]
    for peer in peer_list:
        category = directory.category_of(peer.address)
        if category is None:
            continue
        graph.add_node(peer.address, isp=category)
    addresses = set(graph.nodes)
    for peer in peer_list:
        if peer.address not in addresses:
            continue
        for neighbor in peer.neighbors.addresses():
            if neighbor in addresses:
                graph.add_edge(peer.address, neighbor)
    return graph


def intra_isp_edge_fraction(graph: nx.Graph) -> Optional[float]:
    """Fraction of edges whose endpoints share an ISP category."""
    if graph.number_of_edges() == 0:
        return None
    same = sum(1 for u, v in graph.edges
               if graph.nodes[u]["isp"] is graph.nodes[v]["isp"])
    return same / graph.number_of_edges()


def expected_intra_fraction(graph: nx.Graph) -> Optional[float]:
    """Degree-weighted null expectation of the intra-ISP edge fraction.

    In a configuration-model rewiring, the probability that an edge stays
    inside category ``c`` is ``(d_c / 2m)^2`` summed over categories,
    where ``d_c`` is the total degree of category ``c`` — the same
    quantity modularity is measured against.
    """
    total_degree = sum(d for _n, d in graph.degree)
    if total_degree == 0:
        return None
    by_category: Dict[ISPCategory, int] = {}
    for node, degree in graph.degree:
        category = graph.nodes[node]["isp"]
        by_category[category] = by_category.get(category, 0) + degree
    return sum((d / total_degree) ** 2 for d in by_category.values())


def isp_modularity(graph: nx.Graph) -> Optional[float]:
    """Modularity of the ISP-category partition."""
    import networkx as nx
    if graph.number_of_edges() == 0:
        return None
    communities: Dict[ISPCategory, Set[str]] = {}
    for node in graph.nodes:
        communities.setdefault(graph.nodes[node]["isp"], set()).add(node)
    return nx.algorithms.community.modularity(graph,
                                              communities.values())


def isp_assortativity(graph: nx.Graph) -> Optional[float]:
    """Newman attribute assortativity over the ISP label."""
    import networkx as nx
    if graph.number_of_edges() == 0:
        return None
    try:
        return float(nx.attribute_assortativity_coefficient(graph, "isp"))
    except (ZeroDivisionError, ValueError):
        return None


@dataclass
class OverlayAnalysis:
    """Structural summary of one overlay snapshot."""

    nodes: int
    edges: int
    intra_isp_fraction: Optional[float]
    expected_intra_fraction: Optional[float]
    clustering_coefficient: Optional[float]
    assortativity: Optional[float]
    modularity: Optional[float]

    @property
    def locality_lift(self) -> Optional[float]:
        """Observed over expected intra-ISP edge fraction (>1 = clustered)."""
        if (self.intra_isp_fraction is None
                or not self.expected_intra_fraction):
            return None
        return self.intra_isp_fraction / self.expected_intra_fraction

    def render(self) -> str:
        def fmt(value, digits=3):
            return "n/a" if value is None else f"{value:.{digits}f}"

        lines = [
            "overlay snapshot:",
            f"  nodes: {self.nodes}, edges: {self.edges}",
            f"  intra-ISP edge fraction: {fmt(self.intra_isp_fraction)} "
            f"(null model: {fmt(self.expected_intra_fraction)}, "
            f"lift: {fmt(self.locality_lift, 2)}x)",
            f"  clustering coefficient: {fmt(self.clustering_coefficient)}",
            f"  ISP assortativity: {fmt(self.assortativity)}",
            f"  ISP modularity: {fmt(self.modularity)}",
        ]
        return "\n".join(lines)


def analyze_overlay(peers: Iterable, directory: AsnDirectory,
                    infrastructure: Set[str] = frozenset()
                    ) -> OverlayAnalysis:
    """Compute the full structural summary for one peer population."""
    import networkx as nx
    graph = overlay_graph(peers, directory, infrastructure)
    clustering = (nx.average_clustering(graph)
                  if graph.number_of_nodes() > 0 else None)
    return OverlayAnalysis(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        intra_isp_fraction=intra_isp_edge_fraction(graph),
        expected_intra_fraction=expected_intra_fraction(graph),
        clustering_coefficient=clustering,
        assortativity=isp_assortativity(graph),
        modularity=isp_modularity(graph),
    )


def analyze_session_overlay(session_result) -> OverlayAnalysis:
    """Overlay analysis of a finished session's surviving population."""
    peers = list(session_result.population.active)
    peers.extend(p.peer for p in session_result.probes.values())
    return analyze_overlay(peers, session_result.directory,
                           session_result.infrastructure)
