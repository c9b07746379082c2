"""DPI protocol classifier tests."""

import pytest

from repro.dataplane import FlowTableEntry, NfvHost, ToPort, ToService
from repro.dataplane.actions import NfVerdict
from repro.net import FiveTuple, FlowMatch, HttpRequest, Packet
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.memcached import MemcachedRequest
from repro.nfs import (
    PROTOCOL_ANNOTATION,
    CounterNf,
    ProtocolClassifier,
    classify_payload,
)
from repro.nfs.base import NfContext
from repro.sim import MS


def _ctx(sim):
    from repro.sim.randomness import RandomStreams
    return NfContext(sim=sim, service_id="dpi", vm_id="vm-d",
                     submit_message=lambda m: None,
                     streams=RandomStreams(0))


class TestClassifyPayload:
    @pytest.mark.parametrize("payload,expected", [
        ("GET /index.html HTTP/1.1", "http"),
        ("HTTP/1.1 200 OK\r\n\r\n", "http"),
        ("POST /api HTTP/1.1", "http"),
        ("get user:42\r\n", "memcached"),
        ("VALUE user:42 0 5\r\nhello\r\nEND\r\n", "memcached"),
        ("\x16\x03\x01\x02\x00", "tls"),
        ("", "unknown"),
        ("random bytes", "unknown"),
    ])
    def test_signatures(self, payload, expected):
        assert classify_payload(payload) == expected


class TestProtocolClassifier:
    def test_flow_keeps_first_classification(self, sim, flow):
        dpi = ProtocolClassifier("dpi")
        ctx = _ctx(sim)
        first = Packet(flow=flow, payload="GET / HTTP/1.1")
        dpi.process(first, ctx)
        # Later opaque data packets inherit the flow's protocol.
        data = Packet(flow=flow, payload="")
        dpi.process(data, ctx)
        assert data.annotations[PROTOCOL_ANNOTATION] == "http"
        assert dpi.protocol_of(flow) == "http"

    def test_unknown_upgrades_when_signature_appears(self, sim, flow):
        dpi = ProtocolClassifier("dpi")
        ctx = _ctx(sim)
        dpi.process(Packet(flow=flow, payload=""), ctx)
        assert dpi.protocol_of(flow) == "unknown"
        dpi.process(Packet(flow=flow,
                           payload="get key1\r\n"), ctx)
        assert dpi.protocol_of(flow) == "memcached"

    def test_steering_sends_to_mapped_service(self, sim, flow):
        dpi = ProtocolClassifier("dpi", steering={"http": "cache"})
        verdict = dpi.process(
            Packet(flow=flow, payload="GET / HTTP/1.1"), _ctx(sim))
        assert verdict.kind is NfVerdict.SEND
        assert verdict.destination == ToService("cache")

    def test_unsteered_protocol_defaults(self, sim, flow):
        dpi = ProtocolClassifier("dpi", steering={"http": "cache"})
        verdict = dpi.process(
            Packet(flow=flow, payload="\x16\x03\x01"), _ctx(sim))
        assert verdict.kind is NfVerdict.DEFAULT
        assert dpi.counts["tls"] == 1

    def test_scan_cost_scales(self, sim, flow):
        dpi = ProtocolClassifier("dpi", scan_ns_per_byte=1.0)
        ctx = _ctx(sim)
        small = dpi.processing_cost_ns(Packet(flow=flow, payload="x"),
                                       ctx)
        big = dpi.processing_cost_ns(
            Packet(flow=flow, payload="x" * 2000), ctx)
        assert big > small

    def test_in_dataplane_with_steering(self, sim):
        """HTTP to the cache path, memcached straight out."""
        host = NfvHost(sim, name="dpi0")
        dpi = ProtocolClassifier("dpi", steering={"http": "cachecounter"})
        cache_counter = CounterNf("cachecounter")
        host.add_nf(dpi)
        host.add_nf(cache_counter)
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("dpi"),)))
        host.install_rule(FlowTableEntry(
            scope="dpi", match=FlowMatch.any(),
            actions=(ToPort("eth1"), ToService("cachecounter"))))
        host.install_rule(FlowTableEntry(
            scope="cachecounter", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        out = []
        host.port("eth1").on_egress = out.append
        web = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        mc = FiveTuple("10.0.0.1", "10.0.0.3", PROTO_UDP, 2, 11211)
        host.inject("eth0", Packet(
            flow=web, size=256,
            payload=HttpRequest(path="/x").serialize()))
        host.inject("eth0", Packet(
            flow=mc, size=128,
            payload=MemcachedRequest(command="get", key="k").serialize()))
        sim.run(until=10 * MS)
        assert len(out) == 2
        assert cache_counter.packets_seen == 1  # only the HTTP packet
        assert dpi.counts == {"http": 1, "memcached": 1}
