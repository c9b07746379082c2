"""End-to-end scenarios assembling the full stack: the paper's use cases
running through SDNFV app + controller + orchestrator + dataplane + NFs."""

import pytest

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import DROP, EXIT
from repro.dataplane import NfvHost
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP
from repro.nfs import (
    DdosDetector,
    DdosScrubber,
    Firewall,
    FirewallRule,
    IntrusionDetector,
    MemcachedProxy,
    PolicyEngine,
    Sampler,
    Scrubber,
    Transcoder,
    VideoFlowDetector,
)
from repro.nfs.ddos import DDOS_ALARM_KEY
from repro.sim import MS, S
from repro.workloads import DdosRampWorkload, MemcachedWorkload
from repro.workloads.sessions import video_reply_payload

from tests.conftest import install_chain


class TestAnomalyDetectionUseCase:
    """§2.2's first use case: firewall → sampler → (ddos ∥ ids) → scrubber."""

    def _build(self, sim, sample_rate=1.0):
        app = SdnfvApp(sim)
        host = NfvHost(sim, name="sec0")
        app.register_host(host)
        self.firewall = Firewall("firewall", rules=[
            FirewallRule(match=FlowMatch(dst_port=23), allow=False)])
        self.sampler = Sampler("sampler", analysis_service="ddos",
                               sample_rate=sample_rate)
        self.ids = IntrusionDetector("ids", alert_service="scrubber")
        self.ddos = DdosDetector("ddos", threshold_gbps=50.0)
        self.scrubber = Scrubber("scrubber")
        host.add_nf(self.firewall)
        host.add_nf(self.sampler)
        host.add_nf(self.ids)
        host.add_nf(self.ddos)
        host.add_nf(self.scrubber)

        graph = ServiceGraph("anomaly")
        graph.add_service("firewall", read_only=True)
        graph.add_service("sampler", read_only=True)
        graph.add_service("ddos", read_only=True)
        graph.add_service("ids", read_only=True)
        graph.add_service("scrubber")
        graph.add_edge("firewall", "sampler", default=True)
        graph.add_edge("sampler", EXIT, default=True)
        graph.add_edge("sampler", "ddos")
        graph.add_edge("ddos", "ids", default=True)
        graph.add_edge("ids", EXIT, default=True)
        graph.add_edge("ids", "scrubber")
        graph.add_edge("scrubber", EXIT, default=True)
        graph.add_edge("scrubber", DROP)
        graph.set_entry("firewall")
        app.deploy(graph)
        return app, host

    def test_clean_traffic_flows_through(self, sim, flow):
        _app, host = self._build(sim)
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(5):
            host.inject("eth0", Packet(flow=flow, size=256,
                                       payload="GET / HTTP/1.1"))
        sim.run(until=100 * MS)
        assert len(out) == 5
        # Parallel ddos∥ids both saw the sampled packets.
        assert self.ids.packets_seen == 5
        assert self.ddos.packets_seen == 5
        # Two fused groups per packet: firewall∥sampler and ddos∥ids.
        assert host.stats.parallel_groups == 10

    def test_firewall_blocks_telnet(self, sim):
        _app, host = self._build(sim)
        telnet = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 999, 23)
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(3):
            host.inject("eth0", Packet(flow=telnet, size=128))
        sim.run(until=100 * MS)
        assert not out
        assert self.firewall.denied == 3

    def test_malicious_payload_diverted_and_dropped(self, sim, flow):
        _app, host = self._build(sim)
        out = []
        host.port("eth1").on_egress = out.append
        bad = Packet(flow=flow, size=256,
                     payload="GET /?q=' OR 1=1 HTTP/1.1")
        host.inject("eth0", bad)
        sim.run(until=100 * MS)
        assert not out
        assert self.ids.alerts >= 1
        assert self.scrubber.confirmed == 1

    def test_unsampled_traffic_bypasses_analysis(self, sim, flow):
        _app, host = self._build(sim, sample_rate=0.0)
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(5):
            host.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=100 * MS)
        assert len(out) == 5
        assert self.ids.packets_seen == 0


class TestDdosMitigationTimeline:
    """§5.2's Fig. 9 scenario: detect → alarm → boot scrubber →
    RequestMe reroute → outgoing traffic recovers."""

    def test_full_timeline(self, sim):
        controller = ControlPlane(sim)
        orchestrator = NfvOrchestrator(sim)
        app = SdnfvApp(sim, controller=controller,
                       orchestrator=orchestrator)
        host = NfvHost(sim, name="d0", controller=controller)
        app.register_host(host)
        detector = DdosDetector("detector", threshold_gbps=0.04,
                                prefix_bits=16, window_ns=500 * MS)
        host.add_nf(detector)

        graph = ServiceGraph("ddos")
        graph.add_service("detector", read_only=True)
        graph.add_service("scrubber")
        graph.add_edge("detector", EXIT, default=True)
        graph.add_edge("detector", "scrubber")
        graph.add_edge("scrubber", EXIT, default=True)
        graph.set_entry("detector")
        app.deploy(graph, proactive=True)

        scrubbers = []

        def boot_scrubber(host_name, message):
            match = message.value["match"]

            def factory():
                scrubber = DdosScrubber("scrubber",
                                        attack_matches=[match])
                scrubbers.append(scrubber)
                return scrubber

            app.launch_nf(host_name, factory)

        app.on_message(DDOS_ALARM_KEY, boot_scrubber)

        workload = DdosRampWorkload(
            sim, host, normal_mbps=20.0, attack_start_ns=2 * S,
            attack_ramp_mbps_per_s=20.0, attack_max_mbps=100.0,
            packet_size=1024, window_ns=1 * S)
        sim.run(until=25 * S)

        assert detector.alarms_sent == 1
        assert scrubbers and scrubbers[0].scrubbed > 0
        # Outgoing traffic at the end is back near the normal rate even
        # though incoming keeps rising (the scrubber eats the attack).
        out_end = workload.out_meter.mean_gbps(22 * S, 25 * S)
        in_end = workload.in_meter.mean_gbps(22 * S, 25 * S)
        assert in_end > 3 * out_end
        assert out_end == pytest.approx(0.020, rel=0.4)
        # Normal traffic still flows (not scrubbed).
        assert scrubbers[0].passed > 0


class TestVideoPolicyFlip:
    """§5.3's Fig. 11 mechanism, at small scale: ChangeDefault releases
    flows; RequestMe recalls them on a policy change."""

    def _build(self, sim):
        app = SdnfvApp(sim)
        host = NfvHost(sim, name="v0")
        app.register_host(host)
        self.detector = VideoFlowDetector("vd")
        self.policy = PolicyEngine("pe", detector_service="vd",
                                   transcoder_service="tc",
                                   exit_port="eth1")
        self.transcoder = Transcoder("tc", keep_ratio=0.5)
        host.add_nf(self.detector)
        host.add_nf(self.policy)
        host.add_nf(self.transcoder)

        graph = ServiceGraph("video")
        graph.add_service("vd", read_only=True)
        graph.add_service("pe")
        graph.add_service("tc")
        graph.add_edge("vd", "pe", default=True)
        graph.add_edge("vd", EXIT)
        graph.add_edge("pe", "tc", default=True)
        graph.add_edge("pe", EXIT)
        graph.add_edge("tc", EXIT, default=True)
        graph.set_entry("vd")
        app.deploy(graph)
        return app, host

    def test_flows_released_bypass_policy_engine(self, sim, flow):
        _app, host = self._build(sim)
        out = []
        host.port("eth1").on_egress = out.append
        host.inject("eth0", Packet(flow=flow, size=512,
                                   payload=video_reply_payload()))
        sim.run(until=50 * MS)
        seen_before = self.policy.packets_seen
        assert seen_before == 1
        # Subsequent packets of the released flow skip the policy engine.
        for _ in range(5):
            host.inject("eth0", Packet(flow=flow, size=512))
        sim.run(until=100 * MS)
        assert self.policy.packets_seen == seen_before
        assert len(out) == 6

    def test_policy_flip_recalls_existing_flows(self, sim, flow):
        _app, host = self._build(sim)
        out = []
        host.port("eth1").on_egress = out.append
        host.inject("eth0", Packet(flow=flow, size=512,
                                   payload=video_reply_payload()))
        sim.run(until=50 * MS)
        self.policy.set_throttle(True)
        sim.run(until=60 * MS)
        # The recall (RequestMe) pulls the flow back through pe, which
        # redirects to the transcoder; keep_ratio drops half.
        for _ in range(10):
            host.inject("eth0", Packet(flow=flow, size=512))
        sim.run(until=200 * MS)
        assert self.policy.packets_seen >= 2
        assert self.transcoder.packets_seen == 10
        assert self.transcoder.dropped == 5
        assert len(out) == 6  # 1 pre-flip + 5 kept


class TestMemcachedUseCase:
    def test_proxy_spreads_keys_and_measures_rtt(self, sim):
        host = NfvHost(sim, name="mc0")
        proxy = MemcachedProxy("mc", servers=[
            ("10.8.0.10", 11211), ("10.8.0.11", 11211),
            ("10.8.0.12", 11211)])
        host.add_nf(proxy)
        install_chain(host, ["mc"])
        workload = MemcachedWorkload(sim, host,
                                     requests_per_second=200_000,
                                     key_space=1000)
        sim.run(until=50 * MS)
        assert workload.forwarded > 5_000
        assert len(proxy.per_server) == 3
        assert workload.latency.mean_us() < 120


class TestPacketConservation:
    """System-wide invariant: every received packet is accounted for."""

    def test_rx_equals_tx_plus_drops_anomaly(self, sim, flow):
        case = TestAnomalyDetectionUseCase()
        _app, host = case._build(sim, sample_rate=0.5)
        for i in range(50):
            payload = "' OR 1=1" if i % 7 == 0 else "clean payload"
            host.inject("eth0", Packet(
                flow=FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP,
                               1000 + i, 80),
                size=256, payload=payload))
        sim.run(until=2 * S)
        stats = host.stats
        accounted = (stats.tx_packets + stats.dropped_by_nf
                     + stats.dropped_ring_full + stats.dropped_no_rule
                     + stats.dropped_no_vm)
        assert accounted == stats.rx_packets
