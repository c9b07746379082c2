"""Third extension wave: network builder, FlowMonitor, socket scaling,
rule expiry under churn, and MILP/compile property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EXIT,
    SdnfvApp,
    ServiceGraph,
    compile_distributed_rules,
)
from repro.core.placement import (
    FlowRequest,
    MilpSolver,
    PlacementProblem,
)
from repro.core.placement.milp import InfeasiblePlacement
from repro.dataplane import FlowTableEntry, NfvHost, ToPort, ToService
from repro.dataplane.load_balancer import LoadBalancePolicy
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP
from repro.nfs import FLOW_STATS_KEY, FlowMonitor, NoOpNf
from repro.sim import MS, Simulator
from repro.topology import (
    Link,
    NodeSpec,
    Topology,
    build_network,
)
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain


def line_of_hosts(count=3):
    topology = Topology()
    names = [f"h{i}" for i in range(count)]
    for name in names:
        topology.add_node(NodeSpec(name=name, cores=2))
    for a, b in zip(names, names[1:]):
        topology.add_link(Link(a=a, b=b, delay_ns=50_000))
    return topology, names


class TestBuildNetwork:
    def test_hosts_and_trunks_created(self, sim):
        topology, names = line_of_hosts(3)
        network = build_network(sim, topology)
        assert set(network.hosts) == set(names)
        # Middle host has trunks to both neighbours.
        middle = network.host("h1")
        assert "to-h0" in middle.manager.ports
        assert "to-h2" in middle.manager.ports

    def test_next_hop_trunks_cover_all_pairs(self, sim):
        topology, names = line_of_hosts(3)
        network = build_network(sim, topology)
        assert topology.shortest_path("h0", "h1")[1] == "h1"
        # Non-adjacent pair routes via the next hop.
        assert topology.shortest_path("h0", "h2")[1] == "h1"
        assert "to-h1" in network.host("h0").manager.ports

    def test_adjacent_traffic_crosses(self, sim, flow):
        topology, _names = line_of_hosts(2)
        network = build_network(sim, topology)
        src, dst = network.host("h0"), network.host("h1")
        src.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToPort("to-h1"),)))
        dst.install_rule(FlowTableEntry(
            scope="to-h0", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        out = []
        dst.port("eth1").on_egress = out.append
        src.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=5 * MS)
        assert len(out) == 1

    def test_transit_rules_for_multi_hop(self, sim, flow):
        topology, _names = line_of_hosts(3)
        network = build_network(sim, topology)
        app = SdnfvApp(sim)
        for host in network.hosts.values():
            app.register_host(host)
        network.host("h0").add_nf(NoOpNf("a"))
        network.host("h2").add_nf(NoOpNf("b"))
        graph = ServiceGraph("wide")
        graph.add_service("a", read_only=True)
        graph.add_service("b", read_only=True)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", EXIT, default=True)
        graph.set_entry("a")
        app.deploy(graph, placement={"a": "h0", "b": "h2"},
                   network=network)
        # h1 hosts no service: its only rule forwards h0's trunk to h2's.
        [transit] = network.host("h1").flow_table.entries()
        assert transit.scope == "to-h0"
        assert transit.actions == (ToPort("to-h2"),)
        out = []
        network.host("h2").port("eth1").on_egress = out.append
        network.host("h0").inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=5 * MS)
        assert len(out) == 1

    def test_graph_deployed_over_built_network(self, sim, flow):
        """SdnfvApp.deploy(network=) routes a split chain end to end:
        h1's arrival rule comes from the same compile, not by hand."""
        topology, _names = line_of_hosts(2)
        network = build_network(sim, topology)
        app = SdnfvApp(sim)
        for host in network.hosts.values():
            app.register_host(host)
        network.host("h0").add_nf(NoOpNf("a"))
        network.host("h1").add_nf(NoOpNf("b"))
        graph = ServiceGraph("wide")
        graph.add_service("a", read_only=True)
        graph.add_service("b", read_only=True)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", EXIT, default=True)
        graph.set_entry("a")
        app.deploy(graph, ingress_port="eth0", exit_port="eth1",
                   placement={"a": "h0", "b": "h1"}, network=network)
        arrival = next(entry for entry
                       in network.host("h1").flow_table.entries()
                       if entry.scope == "to-h0")
        assert arrival.actions == (ToService("b"),)
        out = []
        network.host("h1").port("eth1").on_egress = out.append
        network.host("h0").inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=5 * MS)
        assert len(out) == 1


class TestFlowMonitor:
    def test_reports_emitted_per_window(self, sim, flow, udp_flow):
        host = NfvHost(sim, name="mon0")
        monitor = FlowMonitor("monitor", report_interval_ns=10 * MS)
        host.add_nf(monitor)
        install_chain(host, ["monitor"])
        reports = []
        host.manager.message_handlers["monitor"] = (
            lambda message: reports.append(message.value))
        gen = PktGen(sim, host)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0,
                              packet_size=512, stop_ns=50 * MS))
        gen.add_flow(FlowSpec(flow=udp_flow, rate_mbps=10.0,
                              packet_size=512, stop_ns=50 * MS))
        sim.run(until=80 * MS)
        assert monitor.reports_sent >= 3
        report = reports[-1]
        assert report.flows == 2
        assert report.top_flow == flow  # the 100 Mbps flow dominates
        assert report.total_mbps == pytest.approx(110.0, rel=0.25)

    def test_report_reaches_app(self, sim, flow):
        app = SdnfvApp(sim)
        host = NfvHost(sim, name="mon1")
        app.register_host(host)
        host.add_nf(FlowMonitor("monitor", report_interval_ns=5 * MS))
        install_chain(host, ["monitor"])
        received = []
        app.on_message(FLOW_STATS_KEY,
                       lambda host_name, m: received.append(m.value))
        gen = PktGen(sim, host)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=50.0,
                              packet_size=512, stop_ns=30 * MS))
        sim.run(until=50 * MS)
        assert received and received[0].packets > 0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            FlowMonitor("m", report_interval_ns=0)


class TestTwoSocketScaling:
    def test_second_socket_doubles_small_packet_rate(self):
        """§5.1: 'enabling the second CPU socket can double performance
        since the NIC splits the traffic evenly between the two' —
        emulated as two service replicas fed by flow-hash splitting."""
        def throughput(replicas: int) -> float:
            sim = Simulator()
            host = NfvHost(sim, name=f"sock{replicas}",
                           load_balance=LoadBalancePolicy.FLOW_HASH,
                           tx_threads=2 * replicas)
            for _ in range(replicas):
                host.add_nf(NoOpNf("svc"), ring_slots=2048)
            install_chain(host, ["svc"])
            gen = PktGen(sim, host, window_ns=MS)
            # Many flows so the hash splits evenly, offered at 2x the
            # single-replica capacity.
            for i in range(32):
                flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP,
                                 1000 + i, 80)
                gen.add_flow(FlowSpec(flow=flow, rate_mbps=320.0,
                                      packet_size=64, stop_ns=6 * MS))
            sim.run(until=6 * MS)
            return gen.rx_meter.mean_gbps(3 * MS, 6 * MS)

        single = throughput(1)
        double = throughput(2)
        assert double > 1.6 * single

class TestRuleChurnExpiry:
    def test_table_bounded_under_flow_churn(self, sim):
        """Per-flow rules with idle timeouts keep the table bounded."""
        host = NfvHost(sim, name="churn0")
        host.add_nf(NoOpNf("svc"))
        host.install_rule(FlowTableEntry(
            scope="svc", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("svc"),)))
        host.manager.start_rule_expiry(interval_ns=5 * MS)

        def churn():
            for i in range(200):
                flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP,
                                 1000 + i, 80)
                # Specialized per-flow rule with a short idle timeout,
                # as an on-demand controller would install.
                host.manager.install_rule(FlowTableEntry(
                    scope="eth0", match=FlowMatch.exact(flow),
                    actions=(ToService("svc"),),
                    idle_timeout_ns=10 * MS))
                host.inject("eth0", Packet(flow=flow, size=128))
                yield sim.timeout(500_000)

        sim.process(churn())
        sim.run(until=300 * MS)
        # All 200 per-flow rules would linger forever without expiry;
        # with it only the two wildcard rules survive.
        assert len(host.flow_table) == 2
        assert host.stats.tx_packets == 200


small_problems = st.integers(min_value=0, max_value=10_000)


class TestMilpProperties:
    @given(seed=small_problems)
    @settings(max_examples=10, deadline=None)
    def test_solutions_satisfy_all_constraints(self, seed):
        """Any feasible MILP answer respects cores, capacity, routing."""
        import numpy as np
        rng = np.random.default_rng(seed)
        topology = Topology()
        names = [f"n{i}" for i in range(4)]
        for name in names:
            topology.add_node(NodeSpec(name=name, cores=2))
        edges = [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n0", "n2")]
        for a, b in edges:
            topology.add_link(Link(a=a, b=b, capacity_gbps=1.0))
        flow_count = int(rng.integers(1, 4))
        chain_length = int(rng.integers(1, 3))
        chain = tuple(f"j{i}" for i in range(chain_length))
        flows = [FlowRequest(
            flow_id=f"f{i}",
            entry=names[int(rng.integers(0, 4))],
            exit=names[int(rng.integers(0, 4))],
            chain=chain, bandwidth_gbps=0.1)
            for i in range(flow_count)]
        problem = PlacementProblem(
            topology=topology, flows=flows,
            flows_per_core={service: 3 for service in chain})
        try:
            result = MilpSolver(time_limit_s=20).solve(problem)
        except InfeasiblePlacement:
            return  # nothing to verify
        # Cores per node.
        per_node: dict = {}
        for (node, _service), count in result.instances.items():
            per_node[node] = per_node.get(node, 0) + count
        assert all(used <= 2 for used in per_node.values())
        # Instance capacity.
        loads: dict = {}
        for flow in flows:
            nodes = result.assignments[flow.flow_id]
            for service, node in zip(flow.chain, nodes):
                loads[(node, service)] = loads.get((node, service), 0) + 1
        for key, load in loads.items():
            assert load <= result.instances.get(key, 0) * 3
        # Routes connect the chain.
        for flow in flows:
            segments = result.routes[flow.flow_id]
            assert segments[0][0] == flow.entry
            assert segments[-1][-1] == flow.exit
            for path in segments:
                for a, b in zip(path, path[1:]):
                    assert topology.has_link(a, b)


graph_shapes = st.lists(st.booleans(), min_size=1, max_size=5)


class TestCompileProperties:
    @given(read_only_flags=graph_shapes)
    @settings(max_examples=30, deadline=None)
    def test_compiled_rules_cover_every_vertex(self, read_only_flags):
        graph = ServiceGraph("prop")
        names = [f"v{i}" for i in range(len(read_only_flags))]
        for name, read_only in zip(names, read_only_flags):
            graph.add_service(name, read_only=read_only)
        for a, b in zip(names, names[1:]):
            graph.add_edge(a, b, default=True)
        graph.add_edge(names[-1], EXIT, default=True)
        graph.set_entry(names[0])
        rules = [entry for _host, entry in compile_distributed_rules(
            graph, dict.fromkeys(names, "h0"), ("h0",))]
        scopes = {rule.scope for rule in rules}
        assert scopes == set(names) | {"eth0"}
        # Each vertex rule's default matches its default edge.
        by_scope = {rule.scope: rule for rule in rules}
        for a, b in zip(names, names[1:]):
            assert by_scope[a].default_action == ToService(b)
        assert by_scope[names[-1]].default_action == ToPort("eth1")
        # Parallel chains only contain read-only runs.
        for chain in graph.parallel_chains():
            assert all(graph.is_read_only(service) for service in chain)
