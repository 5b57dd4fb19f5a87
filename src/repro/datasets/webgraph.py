"""Synthetic hyperlink graph (the paper's WebGraph dataset).

The real dataset is the Hyperlink Graph of the August 2012 Common Crawl
Corpus: one relation of {FromUrl, ToUrl} arcs at 'Host' or
'Pay-Level-Domain' aggregation.  Two structural properties drive the
paper's experiments and are reproduced here:

- power-law in-degree (zipf-distributed arc targets), so the 2-step join
  ``W1.ToUrl = W2.FromUrl`` blows up intermediate results (Figure 6's
  3-reachability experiment);
- one designated super-hub ('blogspot.com' has the highest in-degree in
  the Pay-Level-Domain graph), the extreme join-key skew behind the
  WebAnalytics experiment (Figure 7).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.schema import Relation, Schema
from repro.datasets.zipf import ZipfGenerator
from repro.util import make_rng

WEBGRAPH_SCHEMA = Schema.of("FromUrl:str", "ToUrl:str")


def host_name(index: int, level: str = "host") -> str:
    """Deterministic synthetic host / pay-level-domain names."""
    if level == "host":
        return f"www.site{index:06d}.example"
    return f"site{index:06d}.example"


def generate_webgraph(
    n_nodes: int,
    n_arcs: int,
    seed: int = 0,
    target_skew: float = 0.8,
    hub: Optional[str] = None,
    hub_fraction: float = 0.0,
    level: str = "host",
) -> Relation:
    """Generate a {FromUrl, ToUrl} arc relation.

    ``target_skew`` is the zipf parameter of arc-target popularity.
    If ``hub`` is given, ``hub_fraction`` of all arcs point to it
    (modelling 'blogspot.com'), and the hub also emits outgoing arcs.
    """
    if n_nodes <= 1:
        raise ValueError("need at least two nodes")
    if not 0.0 <= hub_fraction < 1.0:
        raise ValueError("hub_fraction must be in [0, 1)")
    rng = make_rng(seed)
    target_gen = ZipfGenerator(n_nodes, target_skew, seed=seed + 1)
    names = [host_name(i, level) for i in range(n_nodes)]
    rows: List[tuple] = []
    for _ in range(n_arcs):
        source = names[rng.randrange(n_nodes)]
        if hub is not None and rng.random() < hub_fraction:
            target = hub
        else:
            target = names[target_gen.draw()]
        rows.append((source, target))
    if hub is not None:
        # the hub links out too (its outgoing arcs feed W2 in WebAnalytics)
        out_degree = max(1, int(n_arcs * hub_fraction * 0.5))
        for _ in range(out_degree):
            rows.append((hub, names[target_gen.draw()]))
    return Relation("webgraph", WEBGRAPH_SCHEMA, rows)
