"""A service chain split across two hosts (paper Fig. 3).

Run:  python examples/multi_host_chain.py

The placement engine decides where each service of a J1–J3 chain runs;
``build_network`` realizes the same topology as hosts joined by trunk
ports over the Fabric; the SDNFV Application compiles per-host flow
rules from the placement and the topology (an edge that crosses hosts
becomes a trunk-port forward, and an arrival rule on the far trunk picks
the chain up again), so the chain runs end to end.
"""

from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.core.placement import (
    DivisionSolver,
    FlowRequest,
    PlacementProblem,
)
from repro.net import FiveTuple, Packet
from repro.nfs import CounterNf
from repro.sim import MS, Simulator
from repro.topology import Link, NodeSpec, Topology, build_network


def main() -> None:
    # 1. Plan: where should J1..J3 run for a host1 -> host2 flow?
    topology = Topology()
    topology.add_node(NodeSpec(name="host1", cores=2))
    topology.add_node(NodeSpec(name="host2", cores=2))
    topology.add_link(Link(a="host1", b="host2"))
    request = FlowRequest(flow_id="f0", entry="host1", exit="host2",
                          chain=("J1", "J2", "J3"), bandwidth_gbps=0.1)
    problem = PlacementProblem(topology=topology, flows=[request],
                               flows_per_core={"J1": 4, "J2": 4, "J3": 4})
    result = DivisionSolver(batch_size=1).solve(problem)
    mapping = result.placement_for(request)
    print("placement:", mapping)

    # 2. Build the physical network from the same topology.
    sim = Simulator()
    network = build_network(sim, topology)
    app = SdnfvApp(sim)
    hosts = network.hosts
    for host in hosts.values():
        app.register_host(host)

    # 3. Start the NFs where the placement put them, deploy the graph.
    nfs = {}
    for service, node in mapping.items():
        nfs[service] = CounterNf(service)
        hosts[node].add_nf(nfs[service])
    graph = ServiceGraph("split-chain")
    for service in ("J1", "J2", "J3"):
        graph.add_service(service, read_only=True)
    graph.add_edge("J1", "J2", default=True)
    graph.add_edge("J2", "J3", default=True)
    graph.add_edge("J3", EXIT, default=True)
    graph.set_entry("J1")
    app.deploy(graph, ingress_port="eth0", exit_port="eth1",
               placement=mapping, network=network)

    # 4. Traffic.
    exit_host = hosts[mapping["J3"]]
    delivered = []
    exit_host.port("eth1").on_egress = delivered.append
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 40000, 80)
    entry_host = hosts[mapping["J1"]]
    for _ in range(10):
        entry_host.inject("eth0", Packet(flow=flow, size=256))
    sim.run(until=50 * MS)

    print(f"delivered end to end: {len(delivered)}/10")
    for service, nf in sorted(nfs.items()):
        print(f"  {service} on {mapping[service]}: "
              f"saw {nf.packets_seen} packets")
    print(f"frames carried by the inter-host fabric: "
          f"{network.fabric.frames_carried}")
    assert len(delivered) == 10


if __name__ == "__main__":
    main()
