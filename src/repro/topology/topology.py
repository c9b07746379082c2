"""The Topology container: a networkx graph of NodeSpecs and Links."""

from __future__ import annotations

import typing

import networkx as nx

from repro.topology.links import Link
from repro.topology.nodes import NodeKind, NodeSpec


class Topology:
    """A named-node network graph with per-node cores and per-link capacity.

    Thin, validated wrapper over ``networkx.Graph`` so the placement engine
    and routing helpers share one representation.
    """

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._nodes: dict[str, NodeSpec] = {}
        self._links: dict[frozenset[str], Link] = {}
        # networkx's shortest paths, keyed by (src, dst, weight).  Every
        # value is a pure function of the graph, so the memo pickles
        # with the topology and any change to the graph clears it.
        self._paths: dict[tuple[str, str, str | None], list[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, spec: NodeSpec) -> None:
        if spec.name in self._nodes:
            raise ValueError(f"duplicate node {spec.name!r}")
        self._nodes[spec.name] = spec
        self._graph.add_node(spec.name)
        self._paths.clear()

    def add_link(self, link: Link) -> None:
        for end in (link.a, link.b):
            if end not in self._nodes:
                raise KeyError(f"unknown node {end!r}")
        if link.endpoints in self._links:
            raise ValueError(f"duplicate link {link.a!r}-{link.b!r}")
        self._links[link.endpoints] = link
        self._graph.add_edge(link.a, link.b, delay_ns=link.delay_ns,
                             capacity_gbps=link.capacity_gbps)
        self._paths.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> list[str]:
        return list(self._nodes)

    @property
    def links(self) -> list[Link]:
        return list(self._links.values())

    def node(self, name: str) -> NodeSpec:
        return self._nodes[name]

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise KeyError(f"no link {a!r}-{b!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._links

    def neighbors(self, name: str) -> list[str]:
        return list(self._graph.neighbors(name))

    def nfv_hosts(self) -> list[str]:
        return [name for name, spec in self._nodes.items()
                if spec.kind is NodeKind.NFV_HOST]

    def is_connected(self) -> bool:
        return (len(self._nodes) > 0
                and nx.is_connected(self._graph))

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    def shortest_path(self, src: str, dst: str,
                      weight: str | None = "delay_ns") -> list[str]:
        """Node sequence of the minimum-delay path from src to dst.

        networkx's own answer (so its tie-breaks between equal-cost
        paths hold), computed once per pair and weight; callers get a
        fresh list.
        """
        key = (src, dst, weight)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = nx.shortest_path(
                self._graph, src, dst, weight=weight)
        return list(path)

    def path_delay_ns(self, path: typing.Sequence[str]) -> int:
        """Sum of link delays along a node path."""
        total = 0
        for a, b in zip(path, path[1:], strict=False):
            total += self.link(a, b).delay_ns
        return total

    def path_links(self, path: typing.Sequence[str]) -> list[Link]:
        return [self.link(a, b) for a, b in zip(path, path[1:], strict=False)]

    def total_cores(self) -> int:
        return sum(spec.cores for spec in self._nodes.values())

    # ------------------------------------------------------------------
    # Partition helpers
    # ------------------------------------------------------------------
    def crossing_delays(self, groups: typing.Sequence[typing.Sequence[str]]
                        ) -> dict[tuple[int, int], int]:
        """Minimum link delay between each directed pair of host groups.

        ``groups[i]`` is a collection of node names; the result maps
        ``(src_group, dst_group)`` to the smallest ``delay_ns`` of any
        link joining the two groups (both directions of every crossing
        link, since links are undirected).  Pairs with no crossing link
        are absent.  Nodes outside every group are ignored, so partial
        partitions (e.g. NFV hosts only) work unchanged.
        """
        owner: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                owner[name] = index
        delays: dict[tuple[int, int], int] = {}
        for link in self._links.values():
            src = owner.get(link.a)
            dst = owner.get(link.b)
            if src is None or dst is None or src == dst:
                continue
            for pair in ((src, dst), (dst, src)):
                known = delays.get(pair)
                if known is None or link.delay_ns < known:
                    delays[pair] = link.delay_ns
        return delays
