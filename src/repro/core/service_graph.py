"""Service graphs: DAGs of network functions with default paths (§3.2).

"A network application's processing requirements are represented by a
graph with vertices for individual network functions and edges representing
the logical links between them. ... we choose to represent each service
graph as a DAG with a source and a sink."  Administrators mark one exiting
edge per vertex as the *default* path (the thick edges of Fig. 3); NFs may
pick any other edge per packet.

Two sentinel vertices terminate graphs: :data:`EXIT` (leave via the egress
port) and :data:`DROP` (discard).  A graph knows nothing of hosts or flow
rules: :mod:`repro.core.deploy_rules` compiles a placed graph into rules.
The graph is a pair of insertion-ordered adjacency dicts, so every query
answers in declaration order and a graph pickles as plain data.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

EXIT = "__exit__"
DROP = "__drop__"
_SENTINELS = (EXIT, DROP)


@dataclasses.dataclass(frozen=True)
class ServiceEdge:
    """One logical link in the graph."""

    src: str
    dst: str
    default: bool = False


class ServiceGraph:
    """A validated NF service DAG with per-vertex default edges."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("a service graph needs a name")
        self.name = name
        # service -> {successor: is_default}, and vertex -> its sources,
        # both in insertion order.  Only services key ``_succ``; EXIT and
        # DROP appear in ``_pred`` once an edge reaches them.
        self._succ: dict[str, dict[str, bool]] = {}
        self._pred: dict[str, list[str]] = {}
        self._entry: str | None = None
        self._read_only: dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_service(self, service_id: str,
                    read_only: bool = False) -> None:
        """Declare a vertex.  ``read_only`` feeds parallel-chain fusion."""
        if service_id in _SENTINELS:
            raise ValueError(f"{service_id!r} is a reserved vertex name")
        if service_id in self._succ:
            raise ValueError(f"duplicate service {service_id!r}")
        self._succ[service_id] = {}
        self._pred[service_id] = []
        self._read_only[service_id] = read_only

    def add_edge(self, src: str, dst: str, default: bool = False) -> None:
        """Add a logical link.  ``dst`` may be EXIT or DROP."""
        successors = self._succ.get(src)
        if successors is None:
            raise ValueError(f"unknown source service {src!r}")
        if dst not in _SENTINELS and dst not in self._succ:
            raise ValueError(f"unknown destination service {dst!r}")
        if dst in successors:
            raise ValueError(f"duplicate edge {src!r}->{dst!r}")
        if default and any(successors.values()):
            raise ValueError(f"{src!r} already has a default edge")
        successors[dst] = default
        self._pred.setdefault(dst, []).append(src)

    def set_entry(self, service_id: str) -> None:
        """Name the vertex that receives new packets from the ingress."""
        if service_id not in self._succ:
            raise ValueError(f"unknown service {service_id!r}")
        self._entry = service_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def entry(self) -> str:
        if self._entry is None:
            raise RuntimeError("service graph has no entry set")
        return self._entry

    @property
    def services(self) -> list[str]:
        return list(self._succ)

    def has_service(self, service_id: str) -> bool:
        """Whether ``service_id`` is one of :attr:`services` (without
        building that list)."""
        return service_id in self._succ

    def is_read_only(self, service_id: str) -> bool:
        return self._read_only.get(service_id, False)

    def out_edges(self, service_id: str) -> list[ServiceEdge]:
        """Exiting edges, default first, then in insertion order."""
        edges = [ServiceEdge(src=service_id, dst=dst, default=default)
                 for dst, default in self._succ.get(service_id, {}).items()]
        edges.sort(key=lambda edge: not edge.default)
        return edges

    def default_successor(self, service_id: str) -> str:
        for dst, default in self._succ.get(service_id, {}).items():
            if default:
                return dst
        raise ValueError(f"{service_id!r} has no default edge")

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self._succ.get(src, ())

    def predecessors(self, service_id: str) -> list[str]:
        """Sources of the edges into ``service_id``, in insertion order."""
        return list(self._pred.get(service_id, ()))

    # ------------------------------------------------------------------
    # Validation (§3.2: a DAG with a source and a sink)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ValueError describing the first structural problem found."""
        if self._entry is None:
            raise ValueError("no entry service set")
        cycle = self._find_cycle()
        if cycle:
            raise ValueError(
                f"service graph has a cycle: {' -> '.join(cycle)}")
        reachable = {self._entry}
        frontier = [self._entry]
        while frontier:
            for dst in self._succ.get(frontier.pop(), ()):
                if dst not in reachable:
                    reachable.add(dst)
                    frontier.append(dst)
        unreachable = [service for service in self._succ
                       if service not in reachable]
        if unreachable:
            raise ValueError(
                f"services unreachable from entry: {sorted(unreachable)}")
        terminal = False
        for service in self._succ:
            edges = self.out_edges(service)
            if not edges:
                raise ValueError(f"{service!r} has no exit (dead end); "
                                 "add an edge to EXIT or DROP")
            defaults = sum(edge.default for edge in edges)
            if defaults != 1:
                raise ValueError(
                    f"{service!r} must have exactly one default edge, "
                    f"has {defaults}")
            terminal = terminal or any(edge.dst in _SENTINELS
                                       for edge in edges)
        if not terminal:
            raise ValueError("no path reaches EXIT or DROP")

    def _graph_order(self) -> list[str]:
        """The services in graph order: a topological walk from the
        entry that places each service once all its reachable sources
        are placed, successors in edge insertion order.  Services the
        walk cannot place (unreachable, or on a cycle) follow in
        declaration order."""
        entry = self._entry
        if entry is None:
            return self.services
        # Each reachable service's number of reachable sources.
        waiting = {entry: 0}
        frontier = [entry]
        while frontier:
            for dst in self._succ[frontier.pop()]:
                if dst in waiting:
                    waiting[dst] += 1
                elif dst not in _SENTINELS:
                    waiting[dst] = 1
                    frontier.append(dst)
        order: list[str] = []
        ready = collections.deque([entry])
        while ready:
            service = ready.popleft()
            order.append(service)
            for dst in self._succ[service]:
                if dst in waiting and dst != entry:
                    waiting[dst] -= 1
                    if not waiting[dst]:
                        ready.append(dst)
        if len(order) < len(self._succ):
            placed = set(order)
            order.extend(service for service in self._succ
                         if service not in placed)
        return order

    def _find_cycle(self) -> list[str]:
        """The first cycle an iterative three-colour depth-first search
        meets among the services, closed (``[a, b, a]``; a self-loop is
        ``[a, a]``), or ``[]`` for a DAG."""
        finished: set[str] = set()
        for root in self._succ:
            if root in finished:
                continue
            path = [root]
            on_path = {root}
            pending = [iter(self._succ[root])]
            while pending:
                for dst in pending[-1]:
                    if dst in on_path:
                        return [*path[path.index(dst):], dst]
                    if dst in _SENTINELS or dst in finished:
                        continue
                    path.append(dst)
                    on_path.add(dst)
                    pending.append(iter(self._succ[dst]))
                    break
                else:
                    done = path.pop()
                    on_path.remove(done)
                    finished.add(done)
                    pending.pop()
        return []

    # ------------------------------------------------------------------
    # Parallel-chain detection (§3.3)
    # ------------------------------------------------------------------
    def parallel_chains(self) -> list[list[str]]:
        """Maximal runs of adjacent read-only services safe to parallelize.

        A run v1→v2→…→vk qualifies when every vi is read-only, each vi→vi+1
        is vi's *only* out-edge, and vi+1's only in-edge — i.e. every packet
        leaving vi goes to vi+1 (the paper's DDoS→IDS condition).  Runs
        are found and listed in graph order, so the answer depends on the
        edges, not on the order the services were declared in.
        """
        chains: list[list[str]] = []
        consumed: set[str] = set()
        for service in self._graph_order():
            if service in consumed or not self.is_read_only(service):
                continue
            chain = [service]
            current = service
            while True:
                edges = self.out_edges(current)
                if len(edges) != 1:
                    break
                nxt = edges[0].dst
                if (nxt in _SENTINELS or not self.is_read_only(nxt)
                        or len(self.predecessors(nxt)) != 1):
                    break
                chain.append(nxt)
                current = nxt
            if len(chain) >= 2:
                chains.append(chain)
                consumed.update(chain)
        return chains

    def auto_parallel_layout(
            self, profiles: typing.Mapping[str, typing.Any] | None = None,
    ) -> list[list[str]]:
        """The widest correct parallel/sequential hybrid for this graph.

        Returns every service exactly once, in graph order, partitioned
        into maximal parallel groups justified by pairwise
        :class:`~repro.analysis.profiles.ActionProfile` compatibility
        (singleton groups for everything else).  This is a strict
        superset of :meth:`parallel_chains` read-only fusion: read-only
        services still fuse (their profiles write nothing), and writers
        with disjoint footprints — a DSCP marker next to a sampler that
        never looks at DSCP — now fuse too.

        The structural conditions match :meth:`parallel_chains` (each
        hop must be the only out-edge and the only in-edge: every packet
        leaving one member reaches the next); only the *semantic* test
        changes, from the coarse ``read_only`` bit to the profile
        conflict relation.

        ``profiles`` maps service id → profile.  Services missing from
        the mapping fall back to the graph's declared bit: read-only
        services get the neutral read-everything profile (so legacy
        fusion is preserved even without an analyzable NF), anything
        else is an opaque, never-grouped singleton.
        """
        from repro.analysis.profiles import ActionProfile, chain_conflicts

        known = dict(profiles or {})

        def profile_for(service: str) -> typing.Any:
            if service in known:
                return known[service]
            if self.is_read_only(service):
                return ActionProfile.declared_read_only()
            return ActionProfile.opaque_profile()

        layout: list[list[str]] = []
        consumed: set[str] = set()
        for service in self._graph_order():
            if service in consumed:
                continue
            group = [service]
            group_profiles = [profile_for(service)]
            current = service
            while True:
                edges = self.out_edges(current)
                if len(edges) != 1:
                    break
                nxt = edges[0].dst
                if (nxt in _SENTINELS or nxt in consumed
                        or len(self.predecessors(nxt)) != 1):
                    break
                candidate = profile_for(nxt)
                if chain_conflicts([*group_profiles, candidate]):
                    break
                group.append(nxt)
                group_profiles.append(candidate)
                current = nxt
            consumed.update(group)
            layout.append(group)
        return layout
