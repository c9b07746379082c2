"""The Topology container: NodeSpecs and Links on plain adjacency dicts."""

from __future__ import annotations

import heapq
import itertools
import typing

from repro.topology.links import Link
from repro.topology.nodes import NodeKind, NodeSpec


class Topology:
    """A named-node network graph with per-node cores and per-link capacity.

    One validated representation shared by the placement engine and the
    routing helpers.  ``_adj`` maps each node to ``{neighbor: delay_ns}``,
    both levels in ``add_node``/``add_link`` order: that order lists a
    node's neighbours and breaks ties between equal-cost routes.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, NodeSpec] = {}
        self._links: dict[frozenset[str], Link] = {}
        self._adj: dict[str, dict[str, int]] = {}
        # Shortest paths, keyed by (src, dst).  Every value is a pure
        # function of the graph, so the memo pickles with the topology
        # and any change to the graph clears it.
        self._paths: dict[tuple[str, str], list[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, spec: NodeSpec) -> None:
        if spec.name in self._nodes:
            raise ValueError(f"duplicate node {spec.name!r}")
        self._nodes[spec.name] = spec
        self._adj[spec.name] = {}
        self._paths.clear()

    def add_link(self, link: Link) -> None:
        for end in (link.a, link.b):
            if end not in self._nodes:
                raise KeyError(f"unknown node {end!r}")
        if link.endpoints in self._links:
            raise ValueError(f"duplicate link {link.a!r}-{link.b!r}")
        self._links[link.endpoints] = link
        self._adj[link.a][link.b] = link.delay_ns
        self._adj[link.b][link.a] = link.delay_ns
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
        return list(self._adj[name])

    def nfv_hosts(self) -> list[str]:
        return [name for name, spec in self._nodes.items()
                if spec.kind is NodeKind.NFV_HOST]

    def is_connected(self) -> bool:
        if not self._adj:
            return False
        start = next(iter(self._adj))
        reached = {start}
        stack = [start]
        while stack:
            for neighbor in self._adj[stack.pop()]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    stack.append(neighbor)
        return len(reached) == len(self._adj)

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Node sequence of the minimum-delay path from src to dst.

        Computed once per pair; callers get a fresh list.  Raises
        ``KeyError`` for an unknown node and ``ValueError`` when no path
        joins the two.
        """
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self._search(src, dst)
        return list(path)

    def _search(self, src: str, dst: str) -> list[str]:
        """Bidirectional Dijkstra in one fixed step order, so every tie
        between equal-cost paths breaks the same way on every run (all
        ``rocketfuel_like`` links have one delay): the directions
        alternate, forward first; each pops ``(dist, counter, node)``
        from its own heap with one shared counter; neighbours relax in
        adjacency order; the halves join at the node that last shortened
        the best meeting distance.  This is the step order of the common
        graph libraries' bidirectional search, and the routing tests
        check every path against one of them.
        """
        adj = self._adj
        for end in (src, dst):
            if end not in adj:
                raise KeyError(f"unknown node {end!r}")
        if src == dst:
            return [src]
        counter = itertools.count()
        fringe = ([(0, next(counter), src)], [(0, next(counter), dst)])
        dists: tuple[dict[str, int], dict[str, int]] = ({}, {})
        seen = ({src: 0}, {dst: 0})
        preds: tuple[dict[str, str | None], dict[str, str | None]] = (
            {src: None}, {dst: None})
        best: int | None = None
        meet = src
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, node = heapq.heappop(fringe[direction])
            done = dists[direction]
            if node in done:
                continue
            done[node] = dist
            if node in dists[1 - direction]:
                return _join(preds, meet)
            reached = seen[direction]
            opposite = seen[1 - direction]
            for neighbor, delay in adj[node].items():
                length = dist + delay
                # Delays are non-negative, so a scanned node is final.
                if neighbor in done or (neighbor in reached
                                        and length >= reached[neighbor]):
                    continue
                reached[neighbor] = length
                heapq.heappush(fringe[direction],
                               (length, next(counter), neighbor))
                preds[direction][neighbor] = node
                if neighbor in opposite:
                    total = length + opposite[neighbor]
                    if best is None or total < best:
                        best, meet = total, neighbor
        raise ValueError(f"no path from {src!r} to {dst!r}")

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


def _join(preds: tuple[dict[str, str | None], dict[str, str | None]],
          meet: str) -> list[str]:
    """The src..meet half walked back from ``meet``, then meet..dst."""
    forward, backward = preds
    path: list[str] = []
    node: str | None = meet
    while node is not None:
        path.append(node)
        node = forward[node]
    path.reverse()
    node = backward[meet]
    while node is not None:
        path.append(node)
        node = backward[node]
    return path
