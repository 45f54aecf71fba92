"""Tests for the infrastructure pivot graph and the crawler-impact ablation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.crawler_impact import measure_crawler_impact
from repro.analysis.infrastructure import (
    KIND_DOMAIN,
    PivotGraph,
    build_infrastructure_graph,
    cluster_campaigns,
    connected_components,
    pivot_from_domain,
    summarize_infrastructure,
)


class TestInfrastructureGraph:
    @pytest.fixture(scope="class")
    def graph(self, analyzed_records):
        return build_infrastructure_graph(analyzed_records)

    def test_nodes_are_kind_tagged(self, graph):
        kinds = {data.get("kind") for data in graph.nodes.values()}
        assert {"domain", "ip", "sender"} <= kinds
        assert "script" in kinds  # the shared victim-check droppers

    def test_every_domain_has_a_host_edge(self, graph):
        for node, data in graph.nodes.items():
            if data.get("kind") == KIND_DOMAIN:
                vias = {edge.get("via") for edge in graph.adjacency[node].values()}
                assert "hosting" in vias, node

    def test_campaigns_cover_all_domains(self, graph, analyzed_records):
        campaigns = cluster_campaigns(graph)
        domains_in_campaigns = {d for campaign in campaigns for d in campaign.domains}
        graph_domains = {
            node for node, data in graph.nodes.items() if data.get("kind") == KIND_DOMAIN
        }
        assert domains_in_campaigns == graph_domains

    def test_most_campaigns_are_singletons(self, analyzed_records):
        """The low-volume finding, structurally."""
        summary = summarize_infrastructure(analyzed_records)
        assert summary.singleton_campaigns > summary.n_campaigns * 0.7
        assert summary.largest_campaign_domains >= 3

    def test_script_sharing_links_campaigns(self, analyzed_records):
        summary = summarize_infrastructure(analyzed_records)
        assert summary.script_linked_campaigns >= 2  # victim-check A and B

    def test_pivot_reaches_script_siblings(self, graph):
        campaigns = cluster_campaigns(graph)
        largest = campaigns[0]
        assert largest.shared_scripts  # glued by a shared script
        related = pivot_from_domain(graph, largest.domains[0])
        assert set(related) == set(largest.domains) - {largest.domains[0]}

    def test_pivot_from_unknown_domain(self, graph):
        assert pivot_from_domain(graph, "ghost.example") == []

    def test_graph_is_undirected_simple(self, graph):
        assert isinstance(graph, PivotGraph)
        assert not any(u == v for u, v in graph.edges())


class TestCrawlerImpact:
    @pytest.fixture(scope="class")
    def impacts(self, small_corpus):
        results = measure_crawler_impact(
            small_corpus, crawler_names=("kangooroo", "notabot"), sample_size=60
        )
        return {result.crawler: result for result in results}

    def test_notabot_sees_everything(self, impacts):
        assert impacts["notabot"].recall >= 0.99

    def test_naive_crawler_mostly_cloaked(self, impacts):
        assert impacts["kangooroo"].recall < 0.5
        assert impacts["kangooroo"].cloaked_away > 0

    def test_counts_consistent(self, impacts):
        for result in impacts.values():
            assert result.detected_active + result.cloaked_away == result.phishing_messages


# ----------------------------------------------------------------------
# The dict-adjacency graph against networkx on random graphs
# ----------------------------------------------------------------------
_KINDS = ("domain", "ip", "sender", "script")


@st.composite
def _random_graphs(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=14))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=n_nodes, max_size=n_nodes))
    nodes = [f"{kind}:{index}" for index, kind in enumerate(kinds)]
    edges = draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=24)
    )
    return nodes, kinds, edges


def _pivot_graph(nodes, kinds, edges):
    graph = PivotGraph()
    for node, kind in zip(nodes, kinds):
        graph.add_node(node, kind=kind)
    for u, v in edges:
        graph.add_edge(u, v, via="hosting")
    return graph


@settings(max_examples=150, deadline=None)
@given(_random_graphs(), st.integers(min_value=0, max_value=4), st.randoms())
def test_pivot_graph_matches_networkx(spec, max_hops, rng):
    """Same components as sets and same pivot sets as networkx; the
    campaign order does not depend on node insertion order."""
    nx = pytest.importorskip("networkx")
    nodes, kinds, edges = spec
    graph = _pivot_graph(nodes, kinds, edges)
    reference = nx.Graph()
    for node, kind in zip(nodes, kinds):
        reference.add_node(node, kind=kind)
    reference.add_edges_from(edges)

    def as_sets(components):
        return sorted(sorted(component) for component in components)

    assert as_sets(connected_components(graph)) == as_sets(nx.connected_components(reference))
    assert len(graph.edges()) == reference.number_of_edges()
    assert {frozenset(edge) for edge in graph.edges()} == {
        frozenset(edge) for edge in reference.edges
    }
    for node, kind in zip(nodes, kinds):
        if kind != KIND_DOMAIN:
            continue
        reachable = nx.single_source_shortest_path_length(reference, node, cutoff=max_hops)
        expected = sorted(
            other for other in reachable if other != node and other.startswith("domain:")
        )
        assert pivot_from_domain(graph, node, max_hops) == expected

    order = list(zip(nodes, kinds))
    rng.shuffle(order)
    shuffled_edges = list(edges)
    rng.shuffle(shuffled_edges)
    shuffled = _pivot_graph([node for node, _ in order], [kind for _, kind in order],
                            shuffled_edges)
    assert cluster_campaigns(shuffled) == cluster_campaigns(graph)
