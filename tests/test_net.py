"""Packet substrate tests: headers, flows, matching, payload protocols."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    FiveTuple,
    FlowMatch,
    HttpRequest,
    HttpResponse,
    Ipv4Header,
    MemcachedRequest,
    MemcachedResponse,
    Packet,
    TcpHeader,
    UdpHeader,
    classify_content_type,
    ip_to_int,
    ip_to_str,
    wire_bits,
)
from repro.net.headers import PROTO_TCP, PROTO_UDP, protocol_name
from repro.net.http import is_video_content
from repro.net.packet import transmission_ns

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(ip_to_str)
ports = st.integers(min_value=0, max_value=65535)
flows = st.builds(FiveTuple, src_ip=ips, dst_ip=ips,
                  protocol=st.sampled_from([PROTO_TCP, PROTO_UDP]),
                  src_port=ports, dst_port=ports)


class TestIpConversion:
    @given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, value):
        assert ip_to_int(ip_to_str(value)) == value

    @pytest.mark.parametrize("bad", ["1.2.3", "256.0.0.1", "a.b.c.d",
                                     "1.2.3.4.5", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_out_of_range_int(self):
        with pytest.raises(ValueError):
            ip_to_str(1 << 32)


class TestHeaders:
    def test_ipv4_validates_addresses(self):
        with pytest.raises(ValueError):
            Ipv4Header(src_ip="999.0.0.1")

    def test_ipv4_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            Ipv4Header(protocol=99)

    def test_ttl_decrement(self):
        header = Ipv4Header(ttl=1)
        header.decrement_ttl()
        assert header.ttl == 0
        with pytest.raises(ValueError):
            header.decrement_ttl()

    def test_tcp_flags_validated(self):
        with pytest.raises(ValueError):
            TcpHeader(flags=frozenset({"WAT"}))

    @pytest.mark.parametrize("port", [-1, 70000])
    def test_port_ranges(self, port):
        with pytest.raises(ValueError):
            UdpHeader(src_port=port)

    def test_protocol_names(self):
        assert protocol_name(PROTO_TCP) == "tcp"
        assert protocol_name(123) == "123"


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self, flow):
        back = flow.reversed()
        assert back.src_ip == flow.dst_ip
        assert back.dst_port == flow.src_port
        assert back.reversed() == flow

    @given(flow=flows, buckets=st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_hash_bucket_stable_and_in_range(self, flow, buckets):
        bucket = flow.hash_bucket(buckets)
        assert 0 <= bucket < buckets
        assert flow.hash_bucket(buckets) == bucket

    def test_hash_bucket_rejects_zero(self, flow):
        with pytest.raises(ValueError):
            flow.hash_bucket(0)


class TestFlowMatch:
    def test_any_matches_everything(self, flow, udp_flow):
        assert FlowMatch.any().matches(flow)
        assert FlowMatch.any().matches(udp_flow)

    def test_exact_matches_only_that_flow(self, flow, udp_flow):
        match = FlowMatch.exact(flow)
        assert match.matches(flow)
        assert not match.matches(udp_flow)
        assert match.is_exact
        assert match.exact_key() == flow

    def test_partial_field_match(self, flow):
        assert FlowMatch(dst_port=80).matches(flow)
        assert not FlowMatch(dst_port=443).matches(flow)

    def test_prefix_match(self):
        match = FlowMatch(src_ip="10.1.0.0", src_prefix_bits=16)
        inside = FiveTuple("10.1.200.7", "1.1.1.1", PROTO_TCP, 1, 2)
        outside = FiveTuple("10.2.0.1", "1.1.1.1", PROTO_TCP, 1, 2)
        assert match.matches(inside)
        assert not match.matches(outside)

    def test_prefix_requires_src_ip(self):
        with pytest.raises(ValueError):
            FlowMatch(src_prefix_bits=8)

    def test_zero_bits_prefix_matches_all_sources(self, flow):
        match = FlowMatch(src_ip="99.99.99.99", src_prefix_bits=0)
        assert match.matches(flow)

    def test_specificity_counts_fields(self, flow):
        assert FlowMatch.any().specificity == 0
        assert FlowMatch(dst_port=80, protocol=6).specificity == 2
        assert FlowMatch.exact(flow).specificity == 5

    @given(flow=flows)
    @settings(max_examples=100, deadline=None)
    def test_exact_always_matches_own_flow(self, flow):
        assert FlowMatch.exact(flow).matches(flow)

    def test_repr_eq_and_hash_cover_the_six_fields(self, flow):
        prefix = FlowMatch(src_ip="10.1.0.0", src_prefix_bits=16)
        exact = FlowMatch.exact(flow)
        assert repr(prefix) == (
            "FlowMatch(src_ip='10.1.0.0', dst_ip=None, protocol=None, "
            "src_port=None, dst_port=None, src_prefix_bits=16)")
        assert repr(exact) == (
            "FlowMatch(src_ip='10.0.0.1', dst_ip='10.0.0.2', protocol=6, "
            "src_port=1234, dst_port=80, src_prefix_bits=32)")
        for match in (prefix, exact, FlowMatch.any()):
            fields = (match.src_ip, match.dst_ip, match.protocol,
                      match.src_port, match.dst_port, match.src_prefix_bits)
            assert hash(match) == hash(fields)
        # Filling the caches changes neither equality nor the hash.
        filled = FlowMatch(src_ip="10.1.0.0", src_prefix_bits=16)
        assert filled.matches(flow) is False
        assert filled == prefix and hash(filled) == hash(prefix)
        assert prefix != FlowMatch(src_ip="10.1.0.0", src_prefix_bits=8)
        assert prefix != ("10.1.0.0", None, None, None, None, 16)

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("kind", ["prefix16", "exact"])
    def test_pickle_round_trip_matches_the_same_flows(self, flow, udp_flow,
                                                      fill, kind):
        inside = FiveTuple("10.1.200.7", "10.0.0.2", PROTO_TCP, 1234, 80)
        probes = [flow, udp_flow, inside]
        match = (FlowMatch(src_ip="10.1.0.0", src_prefix_bits=16)
                 if kind == "prefix16" else FlowMatch.exact(flow))
        expected = [kind == "exact", False, kind == "prefix16"]
        if fill:
            assert [match.matches(probe) for probe in probes] == expected
            match.exact_key()
        copy = pickle.loads(pickle.dumps(match, pickle.HIGHEST_PROTOCOL))
        assert copy == match and hash(copy) == hash(match)
        assert repr(copy) == repr(match)
        assert copy.specificity == match.specificity
        assert [copy.matches(probe) for probe in probes] == expected
        assert copy.exact_key() == match.exact_key()
        assert copy.subsumes(match) and match.subsumes(copy)

    def test_malformed_src_ip_raises_on_first_use(self, flow):
        match = FlowMatch(src_ip="10.1.0", src_prefix_bits=16)
        with pytest.raises(ValueError):
            match.matches(flow)
        with pytest.raises(ValueError):
            match.subsumes(FlowMatch(src_ip="10.1.2.3"))
        # A /0 prefix contains every address and never parses its own.
        assert FlowMatch(src_ip="not an ip", src_prefix_bits=0).matches(flow)


class TestPacket:
    def test_headers_derived_from_flow(self, flow):
        packet = Packet(flow=flow, size=128)
        assert packet.ip.src_ip == flow.src_ip
        assert packet.l4.dst_port == flow.dst_port

    def test_minimum_frame_size(self, flow):
        with pytest.raises(ValueError):
            Packet(flow=flow, size=32)

    def test_rewrite_destination(self, flow):
        packet = Packet(flow=flow, size=128)
        packet.rewrite_destination("9.9.9.9", 1111)
        assert packet.flow.dst_ip == "9.9.9.9"
        assert packet.ip.dst_ip == "9.9.9.9"
        assert packet.l4.dst_port == 1111
        assert packet.flow.src_ip == flow.src_ip

    def test_refcounting(self, flow):
        packet = Packet(flow=flow)
        packet.add_reference(2)
        assert packet.ref_count == 3
        assert not packet.release()
        assert not packet.release()
        assert packet.release()
        with pytest.raises(RuntimeError):
            packet.release()

    def test_add_reference_positive(self, flow):
        with pytest.raises(ValueError):
            Packet(flow=flow).add_reference(0)

    def test_packet_ids_unique(self, flow):
        a, b = Packet(flow=flow), Packet(flow=flow)
        assert a.packet_id != b.packet_id

    def test_wire_bits_includes_overhead(self):
        assert wire_bits(64) == (64 + 24) * 8

    def test_transmission_time(self):
        # 64B frame = 704 wire bits; at 10 Gbps that's ~70 ns.
        assert transmission_ns(64, 10.0) == round(704 / 10)
        with pytest.raises(ValueError):
            transmission_ns(64, 0)


class TestHttp:
    def test_request_roundtrip(self):
        request = HttpRequest(method="GET", path="/v.mp4",
                              host="cdn.example",
                              headers={"Range": "bytes=0-"})
        parsed = HttpRequest.parse(request.serialize())
        assert parsed == request

    def test_response_roundtrip(self):
        response = HttpResponse(status=206, reason="Partial Content",
                                headers={"Content-Type": "video/mp4"},
                                body="DATA")
        parsed = HttpResponse.parse(response.serialize())
        assert parsed == response

    def test_classify_video(self):
        payload = HttpResponse(
            headers={"Content-Type": "video/mp4"}).serialize()
        assert classify_content_type(payload) == "video/mp4"
        assert is_video_content("video/mp4")
        assert not is_video_content("text/html")
        assert not is_video_content(None)

    def test_classify_non_http_returns_none(self):
        assert classify_content_type("random payload") is None
        assert classify_content_type("") is None


class TestMemcached:
    def test_get_roundtrip(self):
        request = MemcachedRequest(command="get", key="user:42")
        assert MemcachedRequest.parse(request.serialize()) == request

    def test_set_roundtrip(self):
        request = MemcachedRequest(command="set", key="k", value="hello")
        assert MemcachedRequest.parse(request.serialize()) == request

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            MemcachedRequest(command="get", key="has space")
        with pytest.raises(ValueError):
            MemcachedRequest(command="get", key="")

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            MemcachedRequest(command="flush", key="k")

    def test_malformed_parse(self):
        with pytest.raises(ValueError):
            MemcachedRequest.parse("gibberish\r\n")

    def test_response_hit_and_miss(self):
        hit = MemcachedResponse(key="k", value="v")
        miss = MemcachedResponse(key="k", value=None)
        assert hit.hit and "VALUE k" in hit.serialize()
        assert not miss.hit and miss.serialize() == "END\r\n"

    def test_wire_length_includes_udp_frame_header(self):
        request = MemcachedRequest(command="get", key="abc")
        assert request.wire_length() == 8 + len(request.serialize())
