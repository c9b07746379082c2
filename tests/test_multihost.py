"""Multi-host service chains over the Fabric (Fig. 3's deployment) and
the placement → deployment bridge."""

import pytest

from repro.core import (
    EXIT,
    SdnfvApp,
    ServiceGraph,
    compile_distributed_rules,
)
from repro.core.placement import (
    DivisionSolver,
    FlowRequest,
    PlacementProblem,
)
from repro.dataplane import NfvHost
from repro.net import FiveTuple, FlowMatch, Packet
from repro.nfs import CounterNf, NoOpNf
from repro.sim import MS
from repro.topology import Fabric, Link, NodeSpec, Topology, build_network


def two_host_graph():
    graph = ServiceGraph("split")
    graph.add_service("a", read_only=True)
    graph.add_service("b", read_only=True)
    graph.add_service("c", read_only=True)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", "c", default=True)
    graph.add_edge("c", EXIT, default=True)
    graph.set_entry("a")
    return graph


def two_host_topology():
    topology = Topology()
    for name in ("host1", "host2"):
        topology.add_node(NodeSpec(name=name, cores=2))
    topology.add_link(Link(a="host1", b="host2"))
    return topology


@pytest.fixture
def two_hosts(sim):
    network = build_network(sim, two_host_topology())
    app = SdnfvApp(sim)
    for host in network.hosts.values():
        app.register_host(host)
    return app, network


class TestFabric:
    def test_duplicate_host_rejected(self, sim, host):
        fabric = Fabric(sim)
        fabric.add_host(host)
        with pytest.raises(ValueError):
            fabric.add_host(host)

    def test_unknown_host_rejected(self, sim, host):
        fabric = Fabric(sim)
        fabric.add_host(host)
        with pytest.raises(KeyError):
            fabric.connect("host0", "eth1", "ghost", "eth0")

    def test_double_wiring_a_port_rejected(self, sim):
        fabric = Fabric(sim)
        a = NfvHost(sim, name="a")
        b = NfvHost(sim, name="b")
        c = NfvHost(sim, name="c")
        for host in (a, b, c):
            fabric.add_host(host)
        fabric.connect("a", "eth1", "b", "eth0", bidirectional=False)
        with pytest.raises(ValueError):
            fabric.connect("a", "eth1", "c", "eth0", bidirectional=False)

    def test_wire_carries_frames_with_delay(self, sim, flow):
        fabric = Fabric(sim)
        a = NfvHost(sim, name="a")
        b = NfvHost(sim, name="b")
        fabric.add_host(a)
        fabric.add_host(b)
        fabric.connect("a", "eth1", "b", "eth0", delay_ns=100_000,
                       bidirectional=False)
        from repro.dataplane import FlowTableEntry, ToPort
        a.install_rule(FlowTableEntry(scope="eth0", match=FlowMatch.any(),
                                      actions=(ToPort("eth1"),)))
        b.install_rule(FlowTableEntry(scope="eth0", match=FlowMatch.any(),
                                      actions=(ToPort("eth1"),)))
        out = []
        b.port("eth1").on_egress = lambda p: out.append(sim.now)
        a.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=5 * MS)
        assert len(out) == 1
        assert out[0] > 100_000  # wire delay applied
        assert fabric.frames_carried == 1


class TestMultiHostDeployment:
    def test_chain_split_across_hosts(self, sim, two_hosts, flow):
        _app, network = two_hosts
        host1, host2 = network.host("host1"), network.host("host2")
        host1.add_nf(CounterNf("a"))
        host1.add_nf(CounterNf("b"))
        c_nf = CounterNf("c")
        host2.add_nf(c_nf)
        graph = two_host_graph()
        graph.validate()
        placement = {"a": "host1", "b": "host1", "c": "host2"}
        # Install the compiled cover by hand: b's edge to c leaves
        # host1 on its trunk, and host2's arrival rule on the trunk's
        # far end (to-host1) hands packets to c.
        for name, entry in compile_distributed_rules(
                graph, placement, network.all_hosts,
                topology=network.topology):
            network.host(name).install_rule(entry)
        out = []
        host2.port("eth1").on_egress = out.append
        for _ in range(5):
            host1.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=20 * MS)
        assert len(out) == 5
        assert host1.stats.per_service_packets["a"] == 5
        assert host1.stats.per_service_packets["b"] == 5
        assert c_nf.packets_seen == 5
        assert network.fabric.frames_carried == 5

    def test_app_deploy_with_placement(self, sim, two_hosts, flow):
        app, network = two_hosts
        host1, host2 = network.host("host1"), network.host("host2")
        host1.add_nf(NoOpNf("a"))
        host1.add_nf(NoOpNf("b"))
        host2.add_nf(NoOpNf("c"))
        graph = two_host_graph()
        app.deploy(graph, ingress_port="eth0", exit_port="eth1",
                   placement={"a": "host1", "b": "host1", "c": "host2"},
                   network=network)
        out = []
        host2.port("eth1").on_egress = out.append
        for _ in range(3):
            host1.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=20 * MS)
        assert len(out) == 3


class TestPlacementBridge:
    def _problem(self):
        flow = FlowRequest(flow_id="f0", entry="host1", exit="host2",
                           chain=("a", "b", "c"), bandwidth_gbps=0.1)
        return PlacementProblem(topology=two_host_topology(), flows=[flow],
                                flows_per_core={"a": 4, "b": 4, "c": 4})

    def test_placement_for_yields_service_map(self):
        problem = self._problem()
        result = DivisionSolver(batch_size=1,
                                time_limit_per_batch_s=10).solve(problem)
        mapping = result.placement_for(problem.flows[0])
        assert set(mapping) == {"a", "b", "c"}
        assert set(mapping.values()) <= {"host1", "host2"}

    def test_placement_for_unplaced_flow_raises(self):
        problem = self._problem()
        result = DivisionSolver(batch_size=1,
                                time_limit_per_batch_s=10).solve(problem)
        ghost = FlowRequest(flow_id="ghost", entry="host1", exit="host2",
                            chain=("a",))
        with pytest.raises(KeyError):
            result.placement_for(ghost)

    def test_placed_flow_runs_on_fabric(self, sim):
        """Placement engine output drives a real multi-host deployment."""
        problem = self._problem()
        result = DivisionSolver(batch_size=1,
                                time_limit_per_batch_s=10).solve(problem)
        mapping = result.placement_for(problem.flows[0])

        network = build_network(sim, problem.topology)
        app = SdnfvApp(sim)
        hosts = network.hosts
        for host in hosts.values():
            app.register_host(host)
        for service, node in mapping.items():
            hosts[node].add_nf(NoOpNf(service))

        graph = two_host_graph()
        app.deploy(graph, ingress_port="eth0", exit_port="eth1",
                   placement=mapping, network=network)
        exit_host = hosts[mapping["c"]]
        out = []
        exit_host.port("eth1").on_egress = out.append
        entry_host = hosts[mapping["a"]]
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80)
        entry_host.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=20 * MS)
        assert len(out) == 1


class TestTelemetryAndFailure:
    def test_periodic_telemetry_snapshots(self, sim, flow):
        app = SdnfvApp(sim)
        host = NfvHost(sim, name="t0")
        app.register_host(host)
        host.add_nf(NoOpNf("svc"))
        seen = []
        app.start_telemetry(interval_ns=10 * MS,
                            callback=lambda snap: seen.append(snap))
        sim.run(until=55 * MS)
        assert len(app.telemetry) == 5
        assert seen[0].hosts["t0"].services == ["svc"]

    def test_telemetry_interval_validation(self, sim):
        app = SdnfvApp(sim)
        with pytest.raises(ValueError):
            app.start_telemetry(interval_ns=0)

    def test_vm_failure_shifts_traffic_to_replica(self, sim, flow):
        from repro.control import NfvOrchestrator
        from tests.conftest import install_chain
        orchestrator = NfvOrchestrator(sim)
        host = NfvHost(sim, name="f0")
        orchestrator.register_host(host)
        vm_a = host.add_nf(NoOpNf("svc"))
        vm_b = host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        out = []
        host.port("eth1").on_egress = out.append

        def traffic():
            for _ in range(40):
                host.inject("eth0", Packet(flow=flow, size=128))
                yield sim.timeout(100_000)

        sim.process(traffic())
        at_failure = {}
        sim.schedule(2 * MS, lambda: (
            at_failure.setdefault("a", vm_a.packets_processed),
            orchestrator.stop_vm(host, vm_a)))
        sim.run(until=20 * MS)
        assert len(out) == 40  # no interruption for the flow
        # The failed VM received nothing after removal; the survivor
        # carried the rest.
        assert vm_a.packets_processed == at_failure["a"]
        assert (vm_a.packets_processed + vm_b.packets_processed) == 40
        assert vm_b.packets_processed >= 20

    def test_last_vm_failure_drops_with_count(self, sim, flow):
        from repro.control import NfvOrchestrator
        from tests.conftest import install_chain
        orchestrator = NfvOrchestrator(sim)
        host = NfvHost(sim, name="f1")
        orchestrator.register_host(host)
        only_vm = host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        orchestrator.stop_vm(host, only_vm)
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=5 * MS)
        assert host.stats.dropped_no_vm == 1
