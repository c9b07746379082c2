"""Pure compilation of a placed service graph into per-host flow rules.

The deployment *planning* half of :meth:`SdnfvApp.deploy`: given a graph,
a service→host placement and, when the placement spans hosts, the
topology that routes between them, emit the ordered
``(host_name, FlowTableEntry)`` install sequence —

- per-service rules on the hosts that own them,
- the ingress rule on the entry service's host,
- arrival rules where cross-host edges land (scoped to the trunk port
  facing the upstream hop),
- transit rules on intermediate hosts when placed hosts are not adjacent.

No side effects and no references to live hosts, so the same compilation
runs identically on every shard of a sharded simulation (each shard then
installs only the entries for hosts it realizes).  It runs once per
deploy; :meth:`repro.core.app.SdnfvApp.rules_for` answers misses from
that result.
"""

from __future__ import annotations

import typing

from repro.core.service_graph import DROP, EXIT, ServiceGraph
from repro.dataplane.actions import Destination, Drop, ToPort, ToService
from repro.dataplane.flow_table import FlowTableEntry
from repro.net.flow import FlowMatch

if typing.TYPE_CHECKING:  # pragma: no cover - planning-only import
    from repro.topology.topology import Topology


class DistributedDeploymentError(Exception):
    """The graph/placement combination cannot be expressed on this
    network (e.g. two different services would share an arrival port)."""


def compile_distributed_rules(
        graph: ServiceGraph,
        placement: typing.Mapping[str, str],
        host_names: typing.Iterable[str],
        topology: Topology | None = None,
        match: FlowMatch | None = None,
        ingress_port: str = "eth0",
        exit_port: str = "eth1",
        priority: int = 0) -> list[tuple[str, FlowTableEntry]]:
    """Compile a placed graph into an ordered install sequence.

    ``graph`` must already be valid (:meth:`ServiceGraph.validate`).
    ``host_names`` is the full set of hosts the placement may target
    (every NFV host in the topology, not just the realized subset).
    ``topology`` routes the edges that cross hosts: a cross-host edge
    leaves through the trunk ``to-<next hop>`` of the topology's
    shortest path, and a placement that spans hosts without a topology
    is rejected.  The returned order — transit rules in path-walk order
    first, then each host's batch — is the order deployments have
    always installed, so existing deployments see byte-identical flow
    tables.
    """
    match = match or FlowMatch.any()
    host_names = list(host_names)
    known = set(host_names)
    for service in graph.services:
        if service not in placement:
            raise DistributedDeploymentError(
                f"service {service!r} has no placement")
        if placement[service] not in known:
            raise DistributedDeploymentError(
                f"{service!r} placed on unknown host "
                f"{placement[service]!r}")

    rules: dict[str, list[FlowTableEntry]] = {
        name: [] for name in host_names}
    transit: list[tuple[str, FlowTableEntry]] = []
    # (host, arrival_port) -> service, to detect conflicts.
    arrivals: dict[tuple[str, str], str] = {}

    def route(src_host: str, dst_host: str) -> list[str]:
        if topology is None:
            raise DistributedDeploymentError(
                f"placement spans hosts {src_host!r} and {dst_host!r} but "
                "no topology routes between them; deploy with network=")
        return topology.shortest_path(src_host, dst_host)

    def emit_transit(path: list[str]) -> None:
        for previous, current, nxt in zip(path, path[1:], path[2:],
                                          strict=False):
            transit.append((current, FlowTableEntry(
                scope=f"to-{previous}", match=match,
                actions=(ToPort(f"to-{nxt}"),))))

    def resolve(src_service: str, dst: str) -> Destination:
        if dst == EXIT:
            return ToPort(exit_port)
        if dst == DROP:
            return Drop()
        src_host = placement[src_service]
        dst_host = placement[dst]
        if src_host == dst_host:
            return ToService(dst)
        return ToPort(f"to-{route(src_host, dst_host)[1]}")

    # Ingress rule on the entry host.
    entry_host = placement[graph.entry]
    rules[entry_host].append(FlowTableEntry(
        scope=ingress_port, match=match,
        actions=(ToService(graph.entry),), priority=priority))

    for service in graph.services:
        host_name = placement[service]
        actions = tuple(resolve(service, edge.dst)
                        for edge in graph.out_edges(service))
        rules[host_name].append(FlowTableEntry(
            scope=service, match=match, actions=actions,
            priority=priority))
        # Cross-host edges into this service need arrival + transit.
        for upstream in graph.predecessors(service):
            upstream_host = placement[upstream]
            if upstream_host == host_name:
                continue
            path = route(upstream_host, host_name)
            emit_transit(path)
            port = f"to-{path[-2]}"
            key = (host_name, port)
            existing = arrivals.get(key)
            if existing is None:
                arrivals[key] = service
                rules[host_name].append(FlowTableEntry(
                    scope=port, match=match,
                    actions=(ToService(service),), priority=priority))
            elif existing != service:
                raise DistributedDeploymentError(
                    f"services {existing!r} and {service!r} would share "
                    f"arrival port {port!r} on {host_name!r} for the "
                    "same match; refine the match or the placement")

    installs = list(transit)
    for host_name in host_names:
        installs.extend((host_name, entry)
                        for entry in rules[host_name])
    return installs
