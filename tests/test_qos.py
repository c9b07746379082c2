"""QoS tests: DSCP marking and strict-priority egress scheduling."""

import pytest

from repro.dataplane import NfvHost
from repro.dataplane.manager import NicPort
from repro.dataplane.qos import (
    DSCP_EXPEDITED,
    PRIORITY_ANNOTATION,
    PriorityNicPort,
    dscp_to_priority,
)
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.mempool import PacketPool
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.nfs import DscpMarker, MarkingRule
from repro.nfs.base import NfContext
from repro.sim import MS, S

from tests.conftest import install_chain


def _ctx(sim):
    from repro.sim.randomness import RandomStreams
    return NfContext(sim=sim, service_id="marker", vm_id="vm-q",
                     submit_message=lambda m: None,
                     streams=RandomStreams(0))


class TestDscpMapping:
    def test_expedited_is_top_priority(self):
        assert dscp_to_priority(DSCP_EXPEDITED, levels=3) == 0

    def test_best_effort_is_last(self):
        assert dscp_to_priority(0, levels=3) == 2
        assert dscp_to_priority(0, levels=2) == 1

    def test_assured_is_middle(self):
        assert dscp_to_priority(10, levels=3) == 1


class TestDscpMarker:
    def test_first_match_marks(self, sim, flow, udp_flow):
        marker = DscpMarker("marker", rules=[
            MarkingRule(match=FlowMatch(protocol=PROTO_UDP),
                        dscp=DSCP_EXPEDITED),
            MarkingRule(match=FlowMatch.any(), dscp=0),
        ])
        ctx = _ctx(sim)
        voip = Packet(flow=udp_flow, size=128)
        bulk = Packet(flow=flow, size=1024)
        marker.process(voip, ctx)
        marker.process(bulk, ctx)
        assert voip.ip.dscp == DSCP_EXPEDITED
        assert voip.annotations[PRIORITY_ANNOTATION] == 0
        assert bulk.ip.dscp == 0
        assert marker.marked == 2

    def test_no_match_no_default_leaves_packet(self, sim, flow):
        marker = DscpMarker("marker", rules=[
            MarkingRule(match=FlowMatch(dst_port=9999), dscp=46)])
        packet = Packet(flow=flow, size=128)
        marker.process(packet, _ctx(sim))
        assert PRIORITY_ANNOTATION not in packet.annotations
        assert marker.unmarked == 1

    def test_dscp_range_validated(self):
        with pytest.raises(ValueError):
            MarkingRule(match=FlowMatch.any(), dscp=64)
        with pytest.raises(ValueError):
            DscpMarker("m", default_dscp=-1)


class TestPriorityPort:
    @pytest.mark.parametrize("port_class", [NicPort, PriorityNicPort])
    def test_frames_wait_for_a_downed_link(self, sim, port_class):
        """Frames queued while the link is down leave only once it is
        back up, back to back at the line rate."""
        port = port_class(sim, "p", line_rate_gbps=1.0)
        sent = []
        port.on_egress = lambda packet: sent.append(sim.now)
        port.set_link(False)
        sim.schedule(1 * MS, lambda: port.set_link(True))
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        for _ in range(3):
            port.transmit(Packet(flow=flow, size=1000))
        sim.run()
        assert sent == [1_008_192, 1_016_384, 1_024_576]

    def test_levels_validated(self, sim):
        with pytest.raises(ValueError):
            PriorityNicPort(sim, "p0", priority_levels=1)
        with pytest.raises(ValueError):
            PriorityNicPort(sim, "p0", queue_frames=0)

    def test_priority_traffic_overtakes_bulk(self, sim):
        """With a congested slow link, expedited frames jump the queue."""
        port = PriorityNicPort(sim, "slow", line_rate_gbps=0.01)
        order = []
        port.on_egress = lambda p: order.append(
            p.annotations.get("tag"))
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        # Enqueue 5 bulk frames, then 2 expedited ones behind them.
        for i in range(5):
            bulk = Packet(flow=flow, size=1024)
            bulk.annotations["tag"] = f"bulk{i}"
            port.transmit(bulk)
        for i in range(2):
            urgent = Packet(flow=flow, size=128)
            urgent.annotations["tag"] = f"urgent{i}"
            urgent.annotations[PRIORITY_ANNOTATION] = 0
            port.transmit(urgent)
        sim.run(until=10 * S)
        assert len(order) == 7
        # The urgent frames finish before most of the bulk backlog
        # (the frame already on the wire can't be preempted).
        urgent_positions = [order.index("urgent0"), order.index("urgent1")]
        assert max(urgent_positions) <= 2
        assert port.per_priority_tx[0] == 2

    def test_same_nanosecond_burst_sends_the_urgent_frame_first(self, sim):
        """The pick waits one zero-delay timer, so an expedited frame
        that arrives in the same nanosecond as a bulk burst, after it,
        still goes out first."""
        port = PriorityNicPort(sim, "burst", line_rate_gbps=1.0)
        order = []
        port.on_egress = lambda p: order.append(p.annotations["tag"])
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        for i in range(4):
            bulk = Packet(flow=flow, size=1024)
            bulk.annotations["tag"] = f"bulk{i}"
            port.transmit(bulk)
        urgent = Packet(flow=flow, size=128)
        urgent.annotations["tag"] = "urgent"
        urgent.annotations[PRIORITY_ANNOTATION] = 0
        port.transmit(urgent)
        sim.run()
        assert order == ["urgent", "bulk0", "bulk1", "bulk2", "bulk3"]
        assert port.per_priority_tx == [1, 0, 4]

    def test_unwired_port_leaves_frames_in_egress_by_priority(self, sim):
        """With no ``on_egress`` hook, frames land in ``port.egress`` in
        the order the wire served them: most urgent level first."""
        port = PriorityNicPort(sim, "unwired", line_rate_gbps=1.0)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        for tag, priority in (("bulk0", 2), ("assured", 1),
                              ("bulk1", 2), ("urgent", 0)):
            packet = Packet(flow=flow, size=1000)
            packet.annotations["tag"] = tag
            packet.annotations[PRIORITY_ANNOTATION] = priority
            port.transmit(packet)
        sim.run()
        assert [packet.annotations["tag"]
                for packet in port.egress.items] == [
            "urgent", "assured", "bulk0", "bulk1"]
        # Back to back at the line rate: 8,192 ns per 1000 B frame.
        assert sim.now == 4 * 8_192
        assert port.tx_packets == 4
        assert port.per_priority_tx == [1, 1, 2]

    def test_classification_via_dscp_field(self, sim):
        port = PriorityNicPort(sim, "p1")
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_UDP, 1, 5060)
        packet = Packet(flow=flow, size=128)
        import dataclasses
        packet.ip = dataclasses.replace(packet.ip, dscp=DSCP_EXPEDITED)
        assert port.classify(packet) == 0
        assert port.classify(Packet(flow=flow, size=128)) == 2

    def test_queue_overflow_counted(self, sim):
        port = PriorityNicPort(sim, "p2", line_rate_gbps=0.001,
                               queue_frames=2)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        for _ in range(5):
            port.transmit(Packet(flow=flow, size=1024))
        assert port.tx_dropped == 3

    def test_queue_overflow_frees_pooled_frames(self, sim):
        """A pooled frame dropped at a full queue goes back to its pool."""
        pool = PacketPool(capacity=8)
        port = PriorityNicPort(sim, "p3", line_rate_gbps=0.001,
                               queue_frames=2)
        port.on_egress = lambda packet: packet.free()
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        for _ in range(5):
            port.transmit(pool.alloc(flow, size=1024))
        sim.run(until=1 * S)
        assert port.tx_dropped == 3
        assert port.tx_packets == 2
        assert pool.in_flight == 0

    def test_congested_port_behind_a_host_recycles_pooled_frames(self, sim):
        """The NF Manager hands the port zero-reference frames: a full
        queue returns them to the pool, and the host counts them as
        TX-ring drops, not as sent."""
        host = NfvHost(sim, name="qos1", ports=("eth0",))
        port = PriorityNicPort(sim, "eth1", line_rate_gbps=0.02,
                               queue_frames=4)
        host.manager.ports["eth1"] = port
        pool = host.packet_pool
        port.on_egress = pool.reclaim
        host.add_nf(DscpMarker("marker", rules=[
            MarkingRule(match=FlowMatch(protocol=PROTO_UDP),
                        dscp=DSCP_EXPEDITED)]), ring_slots=1024)
        install_chain(host, ["marker"])
        voip = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_UDP, 1, 5060)
        bulk = FiveTuple("10.0.0.3", "10.0.0.4", PROTO_TCP, 2, 80)
        ring_drops = host.stats.dropped_ring_full

        def traffic():
            for _ in range(100):
                for _burst in range(2):
                    host.inject("eth0", pool.alloc(flow=bulk, size=1024,
                                                   created_at=sim.now))
                host.inject("eth0", pool.alloc(flow=voip, size=128,
                                               created_at=sim.now))
                yield sim.timeout(500_000)

        sim.process(traffic())
        sim.run(until=1 * S)
        assert port.tx_dropped > 0
        assert host.stats.dropped_ring_full - ring_drops == port.tx_dropped
        assert host.stats.tx_packets == port.tx_packets
        assert pool.in_flight == 0

    def test_end_to_end_marking_and_scheduling(self, sim):
        """Marker NF + priority egress inside a full host: latency of
        marked traffic stays low while bulk congests the link."""
        host = NfvHost(sim, name="qos0", ports=("eth0",))
        # Replace the default egress with a slow priority port.
        port = PriorityNicPort(sim, "eth1", line_rate_gbps=0.02)
        host.manager.ports["eth1"] = port
        marker = DscpMarker("marker", rules=[
            MarkingRule(match=FlowMatch(protocol=PROTO_UDP),
                        dscp=DSCP_EXPEDITED)])
        host.add_nf(marker, ring_slots=4096)
        install_chain(host, ["marker"])
        voip_flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_UDP, 1, 5060)
        bulk_flow = FiveTuple("10.0.0.3", "10.0.0.4", PROTO_TCP, 2, 80)
        latencies = {"voip": [], "bulk": []}
        port.on_egress = lambda p: latencies[
            "voip" if p.flow == voip_flow else "bulk"].append(
                sim.now - p.created_at)

        def traffic():
            # Bulk offered at ~33 Mbps over a 20 Mbps link: sustained
            # congestion, so scheduling order dominates latency.
            for _ in range(200):
                for _burst in range(2):
                    host.inject("eth0", Packet(flow=bulk_flow, size=1024,
                                               created_at=sim.now))
                host.inject("eth0", Packet(flow=voip_flow, size=128,
                                           created_at=sim.now))
                yield sim.timeout(500_000)

        sim.process(traffic())
        sim.run(until=40 * S)
        assert latencies["voip"] and latencies["bulk"]
        mean_voip = sum(latencies["voip"]) / len(latencies["voip"])
        mean_bulk = sum(latencies["bulk"]) / len(latencies["bulk"])
        # Strict priority: marked traffic is an order of magnitude ahead.
        assert mean_voip < mean_bulk / 5
