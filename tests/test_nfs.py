"""Unit tests for every network function in the library.

NFs are tested directly against a stub context (no full host needed),
plus a few checks of their message-sending behaviour.
"""

import pytest

from repro.dataplane import NfvHost
from repro.dataplane.actions import NfVerdict, ToPort, ToService
from repro.dataplane.messages import ChangeDefault, RequestMe, UserMessage
from repro.net import FiveTuple, FlowMatch, HttpRequest, HttpResponse, Packet
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.memcached import MemcachedRequest
from repro.nfs import (
    AntFlowDetector,
    ComputeNf,
    CounterNf,
    DdosDetector,
    DdosScrubber,
    Firewall,
    FirewallRule,
    HttpCache,
    IntrusionDetector,
    MemcachedProxy,
    NoOpNf,
    PolicyEngine,
    QualityDetector,
    Sampler,
    Scrubber,
    TrafficShaper,
    Transcoder,
    VideoFlowDetector,
)
from repro.nfs.base import NetworkFunction, NfContext
from repro.nfs.ddos import DDOS_ALARM_KEY
from repro.sim import S
from repro.sim.randomness import RandomStreams
from repro.workloads.sessions import video_reply_payload


class StubCtx(NfContext):
    """NfContext against a message list instead of a manager."""

    def __init__(self, sim, service_id="svc", seed=0):
        self.messages = []
        super().__init__(sim=sim, service_id=service_id, vm_id="vm-test",
                         submit_message=self.messages.append,
                         streams=RandomStreams(seed))


@pytest.fixture
def ctx(sim):
    def make(service_id="svc"):
        return StubCtx(sim, service_id=service_id)
    return make


def pkt(flow, size=128, payload=""):
    return Packet(flow=flow, size=size, payload=payload)


class TestBase:
    def test_service_id_required(self):
        with pytest.raises(ValueError):
            NoOpNf("")

    def test_process_must_be_overridden(self, sim, flow, ctx):
        nf = NetworkFunction("base")
        with pytest.raises(NotImplementedError):
            nf.process(pkt(flow), ctx())

    def test_handle_packet_checks_verdict_type(self, sim, flow, ctx):
        class BadNf(NetworkFunction):
            def process(self, packet, ctx):
                return "not a verdict"

        with pytest.raises(TypeError):
            BadNf("bad").handle_packet(pkt(flow), ctx())

    def test_packets_seen_counted(self, sim, flow, ctx):
        nf = NoOpNf("noop")
        for _ in range(3):
            nf.handle_packet(pkt(flow), ctx())
        assert nf.packets_seen == 3


class TestNoOpAndCounter:
    def test_noop_default_verdict(self, sim, flow, ctx):
        assert NoOpNf("n").process(pkt(flow), ctx()).kind is (
            NfVerdict.DEFAULT)

    def test_counter_accumulates_per_flow(self, sim, flow, udp_flow, ctx):
        nf = CounterNf("c")
        context = ctx()
        nf.process(pkt(flow, size=100), context)
        nf.process(pkt(flow, size=100), context)
        nf.process(pkt(udp_flow, size=64), context)
        assert nf.packets[flow] == 2
        assert nf.bytes[udp_flow] == 64
        assert nf.totals() == (3, 264)


class TestCompute:
    def test_constant_cost(self, sim, flow, ctx):
        nf = ComputeNf("c", cost_ns=5000)
        assert nf.processing_cost_ns(pkt(flow), ctx()) == 5000

    def test_jittered_cost_in_range(self, sim, flow, ctx):
        nf = ComputeNf("c", cost_ns=5000, jitter_ns=1000)
        context = ctx()
        costs = {nf.processing_cost_ns(pkt(flow), context)
                 for _ in range(50)}
        assert all(4000 <= cost <= 6000 for cost in costs)
        assert len(costs) > 1

    def test_jitter_cannot_exceed_cost(self):
        with pytest.raises(ValueError):
            ComputeNf("c", cost_ns=100, jitter_ns=200)


class TestVmStream:
    """A VM's random stream is built on its first draw, seeded from the
    host's seed and the VM id alone."""

    def test_no_generator_until_something_draws(self, sim):
        host = NfvHost(sim, name="h0", seed=5)
        vms = [host.add_nf(ComputeNf(service, cost_ns=1000))
               for service in ("a", "b", "c")]
        assert host.manager.streams._streams == {}
        vms[1].ctx.rng.random()
        assert list(host.manager.streams._streams) == [vms[1].vm_id]

    def test_first_draws_match_a_fresh_stream(self, sim, flow):
        host = NfvHost(sim, name="h0", seed=5)
        nf = ComputeNf("c", cost_ns=5000, jitter_ns=1000)
        vm = host.add_nf(nf)
        fresh = RandomStreams(5).stream(vm.vm_id)
        assert ([nf.processing_cost_ns(pkt(flow), vm.ctx)
                 for _ in range(8)]
                == [int(fresh.integers(4000, 6001)) for _ in range(8)])
        assert vm.ctx.rng is host.manager.streams.stream(vm.vm_id)


class TestFirewall:
    def test_default_allow(self, sim, flow, ctx):
        nf = Firewall("fw")
        assert nf.process(pkt(flow), ctx()).kind is NfVerdict.DEFAULT
        assert nf.allowed == 1

    def test_deny_rule_discards(self, sim, flow, ctx):
        nf = Firewall("fw", rules=[FirewallRule(
            match=FlowMatch(dst_port=80), allow=False)])
        assert nf.process(pkt(flow), ctx()).kind is NfVerdict.DISCARD
        assert nf.denied == 1

    def test_first_match_wins(self, sim, flow, ctx):
        nf = Firewall("fw", rules=[
            FirewallRule(match=FlowMatch(src_ip="10.0.0.1"), allow=True),
            FirewallRule(match=FlowMatch(dst_port=80), allow=False),
        ])
        assert nf.process(pkt(flow), ctx()).kind is NfVerdict.DEFAULT

    def test_default_deny_posture(self, sim, flow, ctx):
        nf = Firewall("fw", default_allow=False)
        assert nf.process(pkt(flow), ctx()).kind is NfVerdict.DISCARD


class TestSampler:
    def test_random_sampling_rate(self, sim, flow, ctx):
        nf = Sampler("s", analysis_service="ids", sample_rate=0.3)
        context = ctx()
        for _ in range(1000):
            nf.process(pkt(flow), context)
        assert 200 < nf.sampled < 400
        assert nf.sampled + nf.passed == 1000

    def test_sampled_packets_sent_to_analysis(self, sim, flow, ctx):
        nf = Sampler("s", analysis_service="ids", sample_rate=1.0)
        verdict = nf.process(pkt(flow), ctx())
        assert verdict.destination == ToService("ids")

    def test_header_match_selection(self, sim, flow, udp_flow, ctx):
        nf = Sampler("s", analysis_service="ids",
                     header_match=FlowMatch(protocol=PROTO_TCP))
        context = ctx()
        assert nf.process(pkt(flow), context).kind is NfVerdict.SEND
        assert nf.process(pkt(udp_flow), context).kind is (
            NfVerdict.DEFAULT)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Sampler("s", analysis_service="ids", sample_rate=1.5)


class TestIds:
    def test_clean_payload_passes(self, sim, flow, ctx):
        nf = IntrusionDetector("ids")
        verdict = nf.process(pkt(flow, payload="hello world"), ctx())
        assert verdict.kind is NfVerdict.DEFAULT
        assert nf.alerts == 0

    def test_sql_exploit_detected_and_diverted(self, sim, flow, ctx):
        nf = IntrusionDetector("ids", alert_service="scrubber")
        verdict = nf.process(
            pkt(flow, payload="GET /?q=' OR 1=1 -- HTTP/1.1"), ctx())
        assert verdict.destination == ToService("scrubber")
        assert nf.alerts == 1

    def test_flow_stays_flagged(self, sim, flow, ctx):
        nf = IntrusionDetector("ids", alert_service="scrubber")
        context = ctx()
        nf.process(pkt(flow, payload="UNION SELECT password"), context)
        clean_follow_up = nf.process(pkt(flow, payload="innocent"),
                                     context)
        assert clean_follow_up.destination == ToService("scrubber")

    def test_detection_without_alert_service_annotates(self, sim, flow,
                                                       ctx):
        nf = IntrusionDetector("ids")
        packet = pkt(flow, payload="<script>alert(1)</script>")
        verdict = nf.process(packet, ctx())
        assert verdict.kind is NfVerdict.DEFAULT
        assert packet.annotations["ids_alert"]

    def test_scan_cost_scales_with_payload(self, sim, flow, ctx):
        nf = IntrusionDetector("ids", scan_ns_per_byte=1.0)
        small = nf.processing_cost_ns(pkt(flow, payload="x" * 100), ctx())
        large = nf.processing_cost_ns(pkt(flow, payload="x" * 1000),
                                      ctx())
        assert large > small


class TestDdos:
    def _attack_packets(self, count, prefix="66.66"):
        return [pkt(FiveTuple(f"{prefix}.{i % 250 + 1}.1", "10.3.0.1",
                              PROTO_UDP, 1000 + i, 80), size=1024)
                for i in range(count)]

    def test_alarm_raised_once_over_threshold(self, sim, flow):
        context = StubCtx(sim, service_id="ddos")
        nf = DdosDetector("ddos", threshold_gbps=0.001,
                          window_ns=S)
        for packet in self._attack_packets(200):
            nf.process(packet, context)
        alarms = [m for m in context.messages
                  if isinstance(m, UserMessage)
                  and m.key == DDOS_ALARM_KEY]
        assert len(alarms) == 1
        assert alarms[0].value["match"].matches(
            self._attack_packets(1)[0].flow)

    def test_below_threshold_silent(self, sim):
        context = StubCtx(sim, service_id="ddos")
        nf = DdosDetector("ddos", threshold_gbps=100.0, window_ns=S)
        for packet in self._attack_packets(50):
            nf.process(packet, context)
        assert not context.messages

    def test_aggregates_across_flows_in_prefix(self, sim):
        """Many small flows, none individually large, still trip it."""
        context = StubCtx(sim, service_id="ddos")
        nf = DdosDetector("ddos", threshold_gbps=0.0005, prefix_bits=16,
                          window_ns=S)
        for packet in self._attack_packets(100):
            nf.process(packet, context)
        assert nf.alarms_sent == 1

    def test_scrubber_drops_attack_passes_normal(self, sim, flow):
        context = StubCtx(sim, service_id="scrub")
        nf = DdosScrubber("scrub", attack_matches=[
            FlowMatch(src_ip="66.66.0.0", src_prefix_bits=16)],
            request_on_register=False)
        attack = self._attack_packets(3)
        for packet in attack:
            assert nf.process(packet, context).kind is NfVerdict.DISCARD
        assert nf.process(pkt(flow), context).kind is NfVerdict.DEFAULT
        assert nf.scrubbed == 3 and nf.passed == 1

    def test_scrubber_requests_traffic_on_register(self, sim):
        context = StubCtx(sim, service_id="scrub")
        nf = DdosScrubber("scrub")
        nf.on_register(context)
        assert any(isinstance(m, RequestMe) and m.service == "scrub"
                   for m in context.messages)


class TestScrubber:
    def test_confirmed_malicious_dropped(self, sim, flow, ctx):
        nf = Scrubber("scrub")
        verdict = nf.process(pkt(flow, payload="DROP TABLE users"), ctx())
        assert verdict.kind is NfVerdict.DISCARD
        assert nf.confirmed == 1

    def test_false_positive_forwarded(self, sim, flow, ctx):
        nf = Scrubber("scrub")
        verdict = nf.process(pkt(flow, payload="perfectly fine"), ctx())
        assert verdict.kind is NfVerdict.DEFAULT
        assert nf.false_positives == 1


class TestVideoNfs:
    def test_detector_classifies_from_http(self, sim, flow, ctx):
        nf = VideoFlowDetector("vd")
        packet = pkt(flow, payload=video_reply_payload())
        nf.process(packet, ctx())
        assert nf.is_video_flow(flow) is True
        assert packet.annotations.get("video")
        assert nf.video_flows == 1

    def test_detector_non_video(self, sim, flow, ctx):
        nf = VideoFlowDetector("vd")
        payload = HttpResponse(
            headers={"Content-Type": "text/html"}).serialize()
        nf.process(pkt(flow, payload=payload), ctx())
        assert nf.is_video_flow(flow) is False

    def test_detector_remembers_flow_state(self, sim, flow, ctx):
        nf = VideoFlowDetector("vd")
        context = ctx()
        nf.process(pkt(flow, payload=video_reply_payload()), context)
        data_packet = pkt(flow, payload="")  # mid-flow data
        nf.process(data_packet, context)
        assert data_packet.annotations.get("video")

    def test_policy_engine_releases_flows_when_not_throttling(
            self, sim, flow):
        context = StubCtx(sim, service_id="pe")
        nf = PolicyEngine("pe", detector_service="vd",
                          transcoder_service="tc", exit_port="eth1")
        nf.on_register(context)
        verdict = nf.process(pkt(flow), context)
        assert verdict.destination == ToPort("eth1")
        changes = [m for m in context.messages
                   if isinstance(m, ChangeDefault)]
        assert len(changes) == 1
        assert changes[0].service == "vd"
        assert changes[0].target == "port:eth1"
        # Second packet of the same flow: no duplicate message.
        nf.process(pkt(flow), context)
        assert len([m for m in context.messages
                    if isinstance(m, ChangeDefault)]) == 1

    def test_policy_engine_throttles_to_transcoder(self, sim, flow):
        context = StubCtx(sim, service_id="pe")
        nf = PolicyEngine("pe", detector_service="vd",
                          transcoder_service="tc", exit_port="eth1",
                          throttle=True)
        nf.on_register(context)
        verdict = nf.process(pkt(flow), context)
        assert verdict.destination == ToService("tc")

    def test_policy_flip_sends_request_me(self, sim, flow):
        context = StubCtx(sim, service_id="pe")
        nf = PolicyEngine("pe", detector_service="vd",
                          transcoder_service="tc", exit_port="eth1")
        nf.on_register(context)
        nf.process(pkt(flow), context)
        nf.set_throttle(True)
        requests = [m for m in context.messages
                    if isinstance(m, RequestMe)]
        assert len(requests) == 1 and requests[0].service == "pe"
        assert not nf.flows_released  # released set cleared for re-decide

    def test_policy_flip_idempotent(self, sim):
        context = StubCtx(sim, service_id="pe")
        nf = PolicyEngine("pe", detector_service="vd",
                          transcoder_service="tc", exit_port="eth1")
        nf.on_register(context)
        nf.set_throttle(True)
        nf.set_throttle(True)
        assert len(context.messages) == 1

    def test_quality_detector_threshold(self, sim, flow, ctx):
        nf = QualityDetector("qd", min_bitrate_kbps=800)
        good = pkt(flow)
        good.annotations["bitrate_kbps"] = 2000
        nf.process(good, ctx())
        assert good.annotations["transcode_ok"]
        bad = pkt(flow)
        bad.annotations["bitrate_kbps"] = 1000
        nf.process(bad, ctx())
        assert not bad.annotations["transcode_ok"]

    def test_transcoder_halves_flow(self, sim, flow, ctx):
        nf = Transcoder("tc", keep_ratio=0.5)
        context = ctx()
        verdicts = [nf.process(pkt(flow), context) for _ in range(10)]
        kept = sum(1 for v in verdicts if v.kind is NfVerdict.DEFAULT)
        assert kept == 5
        assert nf.dropped == 5

    def test_transcoder_keep_ratio_bounds(self):
        with pytest.raises(ValueError):
            Transcoder("tc", keep_ratio=0.0)

    def test_transcoder_per_flow_credit(self, sim, flow, udp_flow, ctx):
        nf = Transcoder("tc", keep_ratio=0.5)
        context = ctx()
        first_a = nf.process(pkt(flow), context)
        first_b = nf.process(pkt(udp_flow), context)
        # Each flow's first packet is dropped independently (credit 0.5).
        assert first_a.kind is NfVerdict.DISCARD
        assert first_b.kind is NfVerdict.DISCARD

    def test_transcoder_lowers_bitrate_annotation(self, sim, flow, ctx):
        nf = Transcoder("tc", keep_ratio=1.0)
        packet = pkt(flow)
        packet.annotations["bitrate_kbps"] = 2000
        nf.process(packet, ctx())
        assert packet.annotations["bitrate_kbps"] == 1000


class TestHttpCache:
    def _request(self, path="/a.mp4"):
        return HttpRequest(method="GET", path=path,
                           host="cdn.example").serialize()

    def _response(self, path="/a.mp4"):
        return HttpResponse(headers={"Content-Type": "video/mp4"},
                            body="DATA").serialize()

    def test_miss_then_hit(self, sim, flow, ctx):
        nf = HttpCache("cache", reply_port="eth0")
        context = ctx()
        request = pkt(flow, payload=self._request())
        assert nf.process(request, context).kind is NfVerdict.DEFAULT
        assert nf.misses == 1
        response = pkt(flow.reversed(), payload=self._response())
        response.annotations["request_key"] = ("cdn.example", "/a.mp4")
        nf.process(response, context)
        hit = pkt(flow, payload=self._request())
        verdict = nf.process(hit, context)
        assert verdict.destination == ToPort("eth0")
        assert nf.hits == 1
        assert hit.annotations["served_from_cache"]

    def test_lru_eviction(self, sim, flow, ctx):
        nf = HttpCache("cache", capacity=2)
        context = ctx()
        for path in ("/1", "/2", "/3"):
            response = pkt(flow, payload=self._response(path))
            response.annotations["request_key"] = ("cdn.example", path)
            nf.process(response, context)
        assert nf.lookup("cdn.example", "/1") is None
        assert nf.lookup("cdn.example", "/3") is not None

    def test_non_http_passthrough(self, sim, flow, ctx):
        nf = HttpCache("cache")
        assert nf.process(pkt(flow, payload="binary"),
                          ctx()).kind is NfVerdict.DEFAULT


class TestShaper:
    def test_conformant_traffic_passes(self, sim, flow):
        context = StubCtx(sim, service_id="shaper")
        nf = TrafficShaper("shaper", rate_mbps=1000.0, burst_kb=64)
        verdict = nf.process(pkt(flow, size=500), context)
        assert verdict.kind is NfVerdict.DEFAULT

    def test_burst_beyond_bucket_policed(self, sim, flow):
        context = StubCtx(sim, service_id="shaper")
        nf = TrafficShaper("shaper", rate_mbps=1.0, burst_kb=1.0)
        verdicts = [nf.process(pkt(flow, size=500), context)
                    for _ in range(10)]
        assert any(v.kind is NfVerdict.DISCARD for v in verdicts)
        assert nf.policed > 0

    def test_tokens_refill_over_time(self, sim, flow):
        nf = TrafficShaper("shaper", rate_mbps=100.0, burst_kb=2.0)
        context = StubCtx(sim, service_id="shaper")
        while nf.process(pkt(flow, size=1000),
                         context).kind is NfVerdict.DEFAULT:
            pass
        sim._queue.clear()
        sim.now = 10 * S  # let the bucket refill
        assert nf.process(pkt(flow, size=1000),
                          context).kind is NfVerdict.DEFAULT

    def test_per_flow_buckets_independent(self, sim, flow, udp_flow):
        context = StubCtx(sim, service_id="shaper")
        nf = TrafficShaper("shaper", rate_mbps=1.0, burst_kb=1.0,
                           per_flow=True)
        while nf.process(pkt(flow, size=1000),
                         context).kind is NfVerdict.DEFAULT:
            pass
        # The other flow still has a full bucket.
        assert nf.process(pkt(udp_flow, size=500),
                          context).kind is NfVerdict.DEFAULT


class TestAntDetector:
    def _drive(self, sim, nf, context, flow, size, gap_ns, duration_ns):
        start = sim.now
        while sim.now - start < duration_ns:
            nf.process(pkt(flow, size=size), context)
            sim.now += gap_ns  # direct clock drive for a unit test

    def test_ant_reroutes_to_fast_path(self, sim, flow):
        context = StubCtx(sim, service_id="ant")
        nf = AntFlowDetector("ant", fast_target="port:fast",
                             slow_target="port:slow",
                             window_ns=S, ant_max_packet_size=256,
                             ant_max_rate_mbps=10.0)
        self._drive(sim, nf, context, flow, size=64,
                    gap_ns=1_000_000, duration_ns=3 * S)
        changes = [m for m in context.messages
                   if isinstance(m, ChangeDefault)]
        assert changes and changes[-1].target == "port:fast"
        assert nf.classification[flow] == "ant"

    def test_elephant_stays_on_slow_path(self, sim, flow):
        context = StubCtx(sim, service_id="ant")
        nf = AntFlowDetector("ant", fast_target="port:fast",
                             slow_target="port:slow", window_ns=S,
                             ant_max_packet_size=256,
                             ant_max_rate_mbps=1.0)
        self._drive(sim, nf, context, flow, size=1024,
                    gap_ns=10_000, duration_ns=2 * S)
        assert nf.classification[flow] == "elephant"
        changes = [m for m in context.messages
                   if isinstance(m, ChangeDefault)]
        assert changes[-1].target == "port:slow"

    def test_phase_change_reclassifies(self, sim, flow):
        """The Fig. 8 scenario: elephant -> ant -> elephant."""
        context = StubCtx(sim, service_id="ant")
        nf = AntFlowDetector("ant", fast_target="port:fast",
                             slow_target="port:slow", window_ns=S,
                             ant_max_packet_size=256,
                             ant_max_rate_mbps=5.0)
        self._drive(sim, nf, context, flow, size=64,
                    gap_ns=5_000, duration_ns=2 * S)   # fast: elephant
        self._drive(sim, nf, context, flow, size=64,
                    gap_ns=2_000_000, duration_ns=3 * S)  # slow: ant
        self._drive(sim, nf, context, flow, size=64,
                    gap_ns=5_000, duration_ns=3 * S)   # fast again
        assert nf.reclassifications >= 3
        targets = [m.target for m in context.messages
                   if isinstance(m, ChangeDefault)]
        assert "port:fast" in targets and targets[-1] == "port:slow"


class TestMemcachedProxy:
    def test_rewrites_destination_by_key(self, sim, flow, ctx):
        servers = [("10.8.0.10", 11211), ("10.8.0.11", 11211)]
        nf = MemcachedProxy("mc", servers=servers)
        request = MemcachedRequest(command="get", key="user:1")
        packet = pkt(flow, payload=request.serialize())
        verdict = nf.process(packet, ctx())
        assert verdict.kind is NfVerdict.DEFAULT
        assert (packet.flow.dst_ip, packet.flow.dst_port) in servers
        assert packet.annotations["memcached_key"] == "user:1"

    def test_same_key_same_server(self, sim, flow, ctx):
        nf = MemcachedProxy("mc", servers=[("a", 1), ("b", 2), ("c", 3)])
        assert (nf.server_for_key("hello")
                == nf.server_for_key("hello"))

    def test_keys_spread_across_servers(self, sim, ctx):
        nf = MemcachedProxy("mc", servers=[("a", 1), ("b", 2), ("c", 3)])
        servers = {nf.server_for_key(f"key{i}") for i in range(100)}
        assert len(servers) == 3

    def test_unparseable_payload_passes_through(self, sim, flow, ctx):
        nf = MemcachedProxy("mc", servers=[("a", 1)])
        packet = pkt(flow, payload="not memcached")
        verdict = nf.process(packet, ctx())
        assert verdict.kind is NfVerdict.DEFAULT
        assert nf.parse_errors == 1
        assert packet.flow == flow  # untouched

    def test_needs_servers(self):
        with pytest.raises(ValueError):
            MemcachedProxy("mc", servers=[])

    def test_parse_cost_override(self):
        nf = MemcachedProxy("mc", servers=[("a", 1)], parse_cost_ns=0)
        assert nf.per_packet_cost_ns == 0
