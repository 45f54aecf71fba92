#!/usr/bin/env python3
"""Threat-intel pivoting over the attacker infrastructure graph.

Builds the domain/IP/sender/shared-script pivot graph from an analyzed
corpus, clusters it into campaigns, and demonstrates the analyst
workflow: start from one landing domain and walk shared infrastructure
to its siblings — exactly how the paper's shared obfuscated scripts
("one script on 38 distinct domains") expose campaign structure.

    python3 examples/campaign_pivoting.py [scale]
"""

import sys
import time

from repro import CorpusGenerator, CrawlerBox
from repro.analysis.infrastructure import (
    build_infrastructure_graph,
    cluster_campaigns,
    pivot_from_domain,
    summarize_infrastructure,
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    print(f"Generating and analysing the corpus (scale={scale}) ...")
    started = time.time()
    corpus = CorpusGenerator(seed=2024, scale=scale).generate()
    box = CrawlerBox.for_world(corpus.world)
    records = box.analyze_corpus(corpus.messages)
    print(f"  {len(records)} messages in {time.time() - started:.1f}s\n")

    graph = build_infrastructure_graph(records)
    campaigns = cluster_campaigns(graph)
    summary = summarize_infrastructure(records)

    print(f"Pivot graph: {len(graph.nodes)} nodes, {len(graph.edges())} edges")
    print(f"Campaign clusters: {summary.n_campaigns} "
          f"({summary.singleton_campaigns} singletons — the paper's low-volume finding,")
    print(f"  structurally: most landing domains share nothing with any other)\n")

    print("Largest campaigns (stitched together by shared obfuscated scripts):")
    for campaign in campaigns[:3]:
        glue = ", ".join(campaign.shared_scripts) or "shared hosting/sender only"
        print(f"  {campaign.size} domains  [{glue}]")
        for domain in campaign.domains[:4]:
            print(f"      {domain}")
        if campaign.size > 4:
            print(f"      ... and {campaign.size - 4} more")

    seed_domain = campaigns[0].domains[0]
    related = pivot_from_domain(graph, seed_domain)
    print(f"\nAnalyst pivot from {seed_domain!r}:")
    print(f"  {len(related)} related landing domains within 2 hops "
          "(via the identical victim-check dropper)")
    for domain in related[:6]:
        print(f"    -> {domain}")
    print("\nTakeaway: even meticulously separated low-volume campaigns leak")
    print("linkability through reused kit code — the defender's counterpart of")
    print("Merlo et al.'s 90%-code-reuse observation cited in the paper.")


if __name__ == "__main__":
    main()
