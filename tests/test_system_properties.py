"""System-wide property-based tests: invariants under randomized chains,
verdicts, and traffic patterns."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import (
    FlowTableEntry,
    NfvHost,
    ToPort,
    ToService,
    Verdict,
)
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP
from repro.nfs.base import NetworkFunction
from repro.sim import MS, S, Simulator

from tests.conftest import install_chain


class RandomVerdictNf(NetworkFunction):
    """Returns a scripted sequence of verdicts (cycled)."""

    read_only = True

    def __init__(self, service_id, script):
        super().__init__(service_id)
        self.script = script
        self._position = 0

    def process(self, packet, ctx):
        verdict = self.script[self._position % len(self.script)]
        self._position += 1
        return verdict


verdict_strategy = st.sampled_from([
    Verdict.default(),
    Verdict.discard(),
    Verdict.send_to_port("eth1"),
])


@st.composite
def chain_scenarios(draw):
    chain_length = draw(st.integers(min_value=1, max_value=4))
    scripts = [draw(st.lists(verdict_strategy, min_size=1, max_size=4))
               for _ in range(chain_length)]
    packet_count = draw(st.integers(min_value=1, max_value=30))
    return chain_length, scripts, packet_count


class TestPacketConservation:
    @given(scenario=chain_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_every_packet_accounted_for(self, scenario):
        """rx == tx + all drop counters, for any chain and verdicts."""
        chain_length, scripts, packet_count = scenario
        sim = Simulator()
        host = NfvHost(sim, name="prop0")
        services = [f"s{i}" for i in range(chain_length)]
        for service, script in zip(services, scripts):
            host.add_nf(RandomVerdictNf(service, script))
        install_chain(host, services)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        for _ in range(packet_count):
            host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=1 * S)
        stats = host.stats
        accounted = (stats.tx_packets + stats.dropped_by_nf
                     + stats.dropped_ring_full + stats.dropped_no_rule
                     + stats.dropped_no_vm)
        assert stats.rx_packets == packet_count
        assert accounted == packet_count

    @given(scenario=chain_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_refcounts_return_to_zero(self, scenario):
        """Zero-copy accounting: every buffer fully released, even with
        parallel fan-out."""
        chain_length, scripts, packet_count = scenario
        sim = Simulator()
        host = NfvHost(sim, name="prop1")
        services = [f"s{i}" for i in range(chain_length)]
        for service, script in zip(services, scripts):
            host.add_nf(RandomVerdictNf(service, script))
        install_chain(host, services)
        if chain_length > 1:
            host.manager.register_parallel_chain(services)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 2, 80)
        packets = [Packet(flow=flow, size=128)
                   for _ in range(packet_count)]
        for packet in packets:
            host.inject("eth0", packet)
        sim.run(until=1 * S)
        assert all(packet.ref_count == 0 for packet in packets)


class TestCrossLayerMessageProperties:
    @given(port_count=st.integers(min_value=2, max_value=4),
           flow_ports=st.lists(st.integers(min_value=1, max_value=5000),
                               min_size=1, max_size=8, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_change_default_isolation(self, port_count, flow_ports):
        """Per-flow ChangeDefault never affects other flows."""
        from repro.dataplane import ChangeDefault
        sim = Simulator()
        ports = ["eth0"] + [f"out{i}" for i in range(port_count)]
        host = NfvHost(sim, name="prop2", ports=ports)
        from repro.nfs import NoOpNf
        host.add_nf(NoOpNf("svc"))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("svc"),)))
        host.install_rule(FlowTableEntry(
            scope="svc", match=FlowMatch.any(),
            actions=tuple(ToPort(p) for p in ports[1:])))
        flows = [FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, port, 80)
                 for port in flow_ports]
        # Redirect only the first flow.
        host.manager.apply_message(ChangeDefault(
            sender_service="svc", flows=FlowMatch.exact(flows[0]),
            service="svc", target=f"port:{ports[-1]}"))
        for flow in flows:
            entry = host.flow_table.lookup("svc", flow)
            if flow == flows[0]:
                assert entry.default_action == ToPort(ports[-1])
            else:
                assert entry.default_action == ToPort(ports[1])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_request_me_then_skip_me_round_trip(self, seed):
        """RequestMe followed by SkipMe restores the original default."""
        from repro.dataplane import RequestMe, SkipMe
        from repro.nfs import NoOpNf
        sim = Simulator()
        host = NfvHost(sim, name="prop3")
        host.add_nf(NoOpNf("det"))
        host.add_nf(NoOpNf("scrub"))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("det"),)))
        host.install_rule(FlowTableEntry(
            scope="det", match=FlowMatch.any(),
            actions=(ToPort("eth1"), ToService("scrub"))))
        host.install_rule(FlowTableEntry(
            scope="scrub", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP,
                         seed % 60_000 + 1, 80)
        host.manager.apply_message(RequestMe(
            sender_service="scrub", service="scrub"))
        assert host.flow_table.lookup(
            "det", flow).default_action == ToService("scrub")
        host.manager.apply_message(SkipMe(
            sender_service="scrub", service="scrub"))
        assert host.flow_table.lookup(
            "det", flow).default_action == ToPort("eth1")


class TestVmPriorityConflicts:
    def test_vm_priority_policy_through_manager(self, sim, flow):
        """§4.2's alternative conflict policy: the highest-priority VM's
        verdict wins even against a discard."""
        class Dropper(NetworkFunction):
            read_only = True

            def process(self, packet, ctx):
                return Verdict.discard()

        class Passer(NetworkFunction):
            read_only = True

            def process(self, packet, ctx):
                return Verdict.default()

        host = NfvHost(sim, name="prio0",
                       conflict_policy="vm_priority")
        host.add_nf(Dropper("drop_nf"), priority=5)   # low priority
        host.add_nf(Passer("pass_nf"), priority=0)    # high priority
        install_chain(host, ["drop_nf", "pass_nf"])
        host.manager.register_parallel_chain(["drop_nf", "pass_nf"])
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(3):
            host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=10 * MS)
        # The passer outranks the dropper, so packets survive.
        assert len(out) == 3
