"""Attacker-infrastructure graphing and campaign pivoting.

Threat analysts link phishing deployments through shared infrastructure:
hosting IPs, sending domains, and — per Section V-C — identical
obfuscated scripts reused across dozens of landing domains ("an
obfuscated script shared between 38 distinct domains").  This module
builds that pivot graph from analysis records and clusters the landing
domains into campaigns.  The graph is a plain dict adjacency: campaign
clustering needs only connected components and pivoting a bounded BFS.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.evasion import measure_evasion_prevalence
from repro.core.artifacts import MessageRecord
from repro.core.outcomes import MessageCategory

#: Node kinds in the pivot graph.
KIND_DOMAIN = "domain"
KIND_IP = "ip"
KIND_SENDER = "sender"
KIND_SCRIPT = "script"


@dataclass
class PivotGraph:
    """An undirected simple graph with node and edge attributes.

    ``nodes`` maps each node to its attribute dict; ``adjacency`` maps
    each node to ``{neighbour: edge attributes}``, the one dict shared by
    both directions of an edge.
    """

    nodes: dict[str, dict] = field(default_factory=dict)
    adjacency: dict[str, dict[str, dict]] = field(default_factory=dict)

    def add_node(self, node: str, **attrs) -> None:
        self.nodes.setdefault(node, {}).update(attrs)
        self.adjacency.setdefault(node, {})

    def add_edge(self, u: str, v: str, **attrs) -> None:
        for node in (u, v):
            if node not in self.nodes:
                self.add_node(node)
        edge = self.adjacency[u].setdefault(v, {})
        edge.update(attrs)
        self.adjacency[v][u] = edge

    def edges(self) -> list[tuple[str, str]]:
        """Each edge once, as ``(u, v)`` in insertion order of ``u``."""
        seen: set[str] = set()
        pairs = []
        for u, neighbours in self.adjacency.items():
            pairs.extend((u, v) for v in neighbours if v not in seen)
            seen.add(u)
        return pairs


def build_infrastructure_graph(records: list[MessageRecord]) -> PivotGraph:
    """The pivot graph over active-phishing observations.

    Nodes are tagged with ``kind`` (domain/ip/sender/script); edges with
    ``via`` (hosting/lure/shared-script).
    """
    graph = PivotGraph()
    for record in records:
        if record.category != MessageCategory.ACTIVE_PHISHING:
            continue
        for crawl in record.crawls:
            domain = crawl.landing_domain
            if not domain or crawl.page_class not in ("login_form", "gated_login"):
                continue
            graph.add_node(domain, kind=KIND_DOMAIN)
            if crawl.server_ip:
                graph.add_node(crawl.server_ip, kind=KIND_IP)
                graph.add_edge(domain, crawl.server_ip, via="hosting")
            if record.sender_domain:
                sender = f"sender:{record.sender_domain}"
                graph.add_node(sender, kind=KIND_SENDER)
                graph.add_edge(domain, sender, via="lure")

    # Shared-script pivots: identical obfuscated droppers across domains.
    prevalence = measure_evasion_prevalence(records)
    for cluster in prevalence.shared_script_clusters:
        node = f"script:{cluster.script_hash}"
        graph.add_node(node, kind=KIND_SCRIPT, script_kind=cluster.kind)
        for domain in cluster.domains:
            if domain in graph.nodes:
                graph.add_edge(domain, node, via="shared-script")
    return graph


@dataclass(frozen=True)
class Campaign:
    """One connected component of the pivot graph."""

    domains: tuple[str, ...]
    ips: tuple[str, ...]
    senders: tuple[str, ...]
    shared_scripts: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.domains)


def connected_components(graph: PivotGraph) -> list[set[str]]:
    """The node sets of the connected components, by iterative DFS."""
    components: list[set[str]] = []
    seen: set[str] = set()
    for start in graph.nodes:
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for neighbour in graph.adjacency[stack.pop()]:
                if neighbour not in component:
                    component.add(neighbour)
                    stack.append(neighbour)
        seen |= component
        components.append(component)
    return components


def cluster_campaigns(graph: PivotGraph) -> list[Campaign]:
    """Connected components, largest first, then by their domain names."""
    campaigns: list[Campaign] = []
    for component in connected_components(graph):
        domains, ips, senders, scripts = [], [], [], []
        for node in sorted(component):
            kind = graph.nodes[node].get("kind")
            if kind == KIND_DOMAIN:
                domains.append(node)
            elif kind == KIND_IP:
                ips.append(node)
            elif kind == KIND_SENDER:
                senders.append(node.split(":", 1)[1])
            elif kind == KIND_SCRIPT:
                scripts.append(graph.nodes[node].get("script_kind", "other"))
        if domains:
            campaigns.append(
                Campaign(
                    domains=tuple(domains),
                    ips=tuple(ips),
                    senders=tuple(senders),
                    shared_scripts=tuple(scripts),
                )
            )
    campaigns.sort(key=lambda campaign: (-campaign.size, campaign.domains))
    return campaigns


def pivot_from_domain(graph: PivotGraph, domain: str, max_hops: int = 2) -> list[str]:
    """Analyst pivot: related landing domains within ``max_hops`` edges."""
    if domain not in graph.nodes:
        return []
    hops = {domain: 0}
    frontier = deque([domain])
    while frontier:
        node = frontier.popleft()
        if hops[node] >= max_hops:
            continue
        for neighbour in graph.adjacency[node]:
            if neighbour not in hops:
                hops[neighbour] = hops[node] + 1
                frontier.append(neighbour)
    return sorted(
        node
        for node in hops
        if node != domain and graph.nodes[node].get("kind") == KIND_DOMAIN
    )


@dataclass(frozen=True)
class InfrastructureSummary:
    n_domains: int
    n_campaigns: int
    largest_campaign_domains: int
    singleton_campaigns: int
    script_linked_campaigns: int


def summarize_infrastructure(records: list[MessageRecord]) -> InfrastructureSummary:
    """Campaign-level view of the landing infrastructure.

    The paper's low-volume finding reappears structurally: most
    campaigns are singletons (one domain, its host, its sender), while
    the shared victim-check scripts stitch together the two large
    multi-domain clusters.
    """
    graph = build_infrastructure_graph(records)
    campaigns = cluster_campaigns(graph)
    return InfrastructureSummary(
        n_domains=sum(campaign.size for campaign in campaigns),
        n_campaigns=len(campaigns),
        largest_campaign_domains=campaigns[0].size if campaigns else 0,
        singleton_campaigns=sum(1 for campaign in campaigns if campaign.size == 1),
        script_linked_campaigns=sum(1 for campaign in campaigns if campaign.shared_scripts),
    )
