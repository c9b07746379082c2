"""Rocketfuel-like topology generation.

The paper evaluates placement on Rocketfuel AS-16631 (22 nodes, 64 edges)
with homogeneous 2-core nodes.  The actual Rocketfuel trace is not available
offline, so we generate a seeded random *connected* graph with the same node
and edge counts and the same homogeneous resources — Fig. 5's comparison
between greedy / MILP / division heuristics depends on size and degree
statistics, not on the specific AS map (substitution recorded in DESIGN.md).
"""

from __future__ import annotations

import itertools

from repro.sim.randomness import Pcg64Stream
from repro.sim.units import US
from repro.topology.links import Link
from repro.topology.nodes import NodeKind, NodeSpec
from repro.topology.topology import Topology

AS16631_NODES = 22
AS16631_EDGES = 64


def rocketfuel_like(nodes: int = AS16631_NODES, edges: int = AS16631_EDGES,
                    cores_per_node: int = 2, link_capacity_gbps: float = 10.0,
                    link_delay_ns: int = 500 * US,
                    seed: int = 16631) -> Topology:
    """Build a connected random topology with exact node/edge counts.

    Strategy: a random spanning tree guarantees connectivity (n-1 edges),
    then extra edges are sampled uniformly from the remaining pairs.
    """
    if nodes < 2:
        raise ValueError("need at least two nodes")
    min_edges, max_edges = nodes - 1, nodes * (nodes - 1) // 2
    if not min_edges <= edges <= max_edges:
        raise ValueError(
            f"edges must be in [{min_edges}, {max_edges}] for {nodes} nodes")

    rng = Pcg64Stream((seed,))
    names = [f"n{i}" for i in range(nodes)]
    topology = Topology()
    for name in names:
        topology.add_node(NodeSpec(name=name, kind=NodeKind.NFV_HOST,
                                   cores=cores_per_node))

    chosen: set[frozenset[str]] = set()
    # Random spanning tree: attach each new node to a random earlier one.
    order = rng.permutation(nodes)
    for position, node_index in enumerate(order[1:], start=1):
        peer_index = order[rng.integers(0, position)]
        chosen.add(frozenset((names[node_index], names[peer_index])))

    remaining = [frozenset(pair)
                 for pair in itertools.combinations(names, 2)
                 if frozenset(pair) not in chosen]
    extra_count = edges - len(chosen)
    extra_indices = rng.choice(len(remaining), size=extra_count,
                               replace=False)
    for index in extra_indices:
        chosen.add(remaining[index])

    for pair in sorted(chosen, key=sorted):
        a, b = sorted(pair)
        topology.add_link(Link(a=a, b=b, capacity_gbps=link_capacity_gbps,
                               delay_ns=link_delay_ns))
    assert topology.is_connected()
    return topology
