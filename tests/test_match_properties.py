"""Property-based tests for FlowMatch algebra: matches vs subsumes, and
the integer-compiled matching against a string-parsing reference."""

import ipaddress
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FiveTuple, FlowMatch
from repro.net.headers import PROTO_TCP, PROTO_UDP

ips = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.1.0.1", "192.168.5.9"])
ports = st.sampled_from([80, 443, 8080, 11211])
protocols = st.sampled_from([PROTO_TCP, PROTO_UDP])

flows = st.builds(FiveTuple, src_ip=ips, dst_ip=ips, protocol=protocols,
                  src_port=ports, dst_port=ports)


@st.composite
def matches(draw):
    src_ip = draw(st.one_of(st.none(), ips))
    prefix = 32
    if src_ip is not None:
        prefix = draw(st.sampled_from([8, 16, 24, 32]))
    return FlowMatch(
        src_ip=src_ip,
        dst_ip=draw(st.one_of(st.none(), ips)),
        protocol=draw(st.one_of(st.none(), protocols)),
        src_port=draw(st.one_of(st.none(), ports)),
        dst_port=draw(st.one_of(st.none(), ports)),
        src_prefix_bits=prefix,
    )


class TestSubsumptionAlgebra:
    @given(match=matches())
    @settings(max_examples=100, deadline=None)
    def test_reflexive(self, match):
        assert match.subsumes(match)

    @given(a=matches(), b=matches(), flow=flows)
    @settings(max_examples=300, deadline=None)
    def test_subsumption_implies_match_containment(self, a, b, flow):
        """If A subsumes B, every flow B matches, A matches too."""
        if a.subsumes(b) and b.matches(flow):
            assert a.matches(flow)

    @given(a=matches(), b=matches(), c=matches())
    @settings(max_examples=200, deadline=None)
    def test_transitive(self, a, b, c):
        if a.subsumes(b) and b.subsumes(c):
            assert a.subsumes(c)

    @given(match=matches())
    @settings(max_examples=100, deadline=None)
    def test_any_is_top(self, match):
        assert FlowMatch.any().subsumes(match)

    @given(flow=flows, match=matches())
    @settings(max_examples=200, deadline=None)
    def test_exact_is_bottom(self, flow, match):
        exact = FlowMatch.exact(flow)
        if match.matches(flow):
            assert match.subsumes(exact)
        else:
            assert not match.subsumes(exact)

    @given(flow=flows)
    @settings(max_examples=100, deadline=None)
    def test_specificity_antitone_with_subsumption(self, flow):
        """Strictly removing a constraint can only widen the match."""
        exact = FlowMatch.exact(flow)
        widened = FlowMatch(src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                            protocol=flow.protocol,
                            src_port=flow.src_port, dst_port=None)
        assert widened.subsumes(exact)
        assert widened.specificity < exact.specificity


# ----------------------------------------------------------------------
# Integer-compiled matching vs a string-parsing reference
# ----------------------------------------------------------------------

def reference_in_prefix(pattern_ip: str, bits: int, address: str) -> bool:
    """``address`` inside ``pattern_ip/bits``, parsed by ``ipaddress``."""
    network = ipaddress.ip_network(f"{pattern_ip}/{bits}", strict=False)
    return ipaddress.ip_address(address) in network


def reference_matches(match: FlowMatch, flow: FiveTuple) -> bool:
    if match.src_ip is not None and not reference_in_prefix(
            match.src_ip, match.src_prefix_bits, flow.src_ip):
        return False
    return all(getattr(match, field) in (None, getattr(flow, field))
               for field in ("dst_ip", "protocol", "src_port", "dst_port"))


def reference_subsumes(a: FlowMatch, b: FlowMatch) -> bool:
    for field in ("dst_ip", "protocol", "src_port", "dst_port"):
        if getattr(a, field) is not None and getattr(a, field) != getattr(
                b, field):
            return False
    if a.src_ip is None:
        return True
    return (b.src_ip is not None
            and b.src_prefix_bits >= a.src_prefix_bits
            and reference_in_prefix(a.src_ip, a.src_prefix_bits, b.src_ip))


def reference_overlaps(a: FlowMatch, b: FlowMatch) -> bool:
    for field in ("dst_ip", "protocol", "src_port", "dst_port"):
        if None not in (getattr(a, field), getattr(b, field)) and (
                getattr(a, field) != getattr(b, field)):
            return False
    if a.src_ip is None or b.src_ip is None:
        return True
    return ipaddress.ip_network(
        f"{a.src_ip}/{a.src_prefix_bits}", strict=False).overlaps(
        ipaddress.ip_network(f"{b.src_ip}/{b.src_prefix_bits}",
                             strict=False))


any_ips = st.ip_addresses(v=4).map(str)


@st.composite
def address_pairs(draw):
    """A pattern address and one sharing a random-length prefix with it,
    so every prefix length sees both containment outcomes."""
    pattern = int(draw(st.ip_addresses(v=4)))
    low_bits = draw(st.integers(0, 32))
    noise = draw(st.integers(0, (1 << low_bits) - 1))
    other = ipaddress.IPv4Address(pattern ^ noise)
    return str(ipaddress.IPv4Address(pattern)), str(other)


def wide_match(draw, src_ip: str | None) -> FlowMatch:
    return FlowMatch(
        src_ip=src_ip,
        dst_ip=draw(st.one_of(st.none(), ips)),
        protocol=draw(st.one_of(st.none(), protocols)),
        src_port=draw(st.one_of(st.none(), ports)),
        dst_port=draw(st.one_of(st.none(), ports)),
        src_prefix_bits=(32 if src_ip is None
                         else draw(st.integers(0, 32))),
    )


@st.composite
def match_and_flow(draw):
    pattern, address = draw(address_pairs())
    match = wide_match(draw, draw(st.one_of(st.none(), st.just(pattern))))
    flow = FiveTuple(address, draw(ips), draw(protocols), draw(ports),
                     draw(ports))
    return match, flow


@st.composite
def match_pairs(draw):
    pattern, address = draw(address_pairs())
    a = wide_match(draw, draw(st.one_of(st.none(), st.just(pattern))))
    b = wide_match(draw, draw(st.one_of(st.none(), st.just(address))))
    return a, b


@st.composite
def malformed_ips(draw):
    octet = st.integers(0, 255).map(str)
    kind = draw(st.sampled_from(["count", "range", "text"]))
    if kind == "count":
        size = draw(st.sampled_from([1, 2, 3, 5, 6]))
        return ".".join(draw(st.lists(octet, min_size=size,
                                      max_size=size)))
    parts = draw(st.lists(octet, min_size=4, max_size=4))
    index = draw(st.integers(0, 3))
    if kind == "range":
        parts[index] = str(draw(st.one_of(st.integers(256, 99999),
                                          st.integers(-999, -1))))
    else:
        parts[index] = draw(st.sampled_from(["", "x", "1a", "0x1", "1.5"]))
    return ".".join(parts)


class TestCompiledMatchingAgreesWithReference:
    @given(case=match_and_flow())
    @settings(max_examples=500, deadline=None)
    def test_matches_equals_reference(self, case):
        match, flow = case
        expected = reference_matches(match, flow)
        assert match.matches(flow) is expected
        # Second call runs on the populated caches.
        assert match.matches(flow) is expected

    @given(pair=match_pairs())
    @settings(max_examples=500, deadline=None)
    def test_subsumes_equals_reference(self, pair):
        a, b = pair
        expected = reference_subsumes(a, b)
        assert a.subsumes(b) is expected
        assert a.subsumes(b) is expected

    @given(pair=match_pairs())
    @settings(max_examples=500, deadline=None)
    def test_overlaps_equals_reference(self, pair):
        a, b = pair
        expected = reference_overlaps(a, b)
        assert a.overlaps(b) is expected
        assert b.overlaps(a) is expected
        if a.subsumes(b):
            assert expected

    @given(pair=address_pairs(), bits=st.integers(0, 32))
    @settings(max_examples=300, deadline=None)
    def test_every_prefix_length(self, pair, bits):
        pattern, address = pair
        match = FlowMatch(src_ip=pattern, src_prefix_bits=bits)
        flow = FiveTuple(address, "10.0.0.1", PROTO_TCP, 1, 2)
        assert match.matches(flow) is reference_in_prefix(pattern, bits,
                                                          address)

    @given(flow=st.builds(FiveTuple, src_ip=any_ips, dst_ip=any_ips,
                          protocol=protocols, src_port=ports,
                          dst_port=ports))
    @settings(max_examples=200, deadline=None)
    def test_exact_match_of_arbitrary_flow(self, flow):
        assert FlowMatch.exact(flow).matches(flow)
        assert FlowMatch.exact(flow).subsumes(FlowMatch.exact(flow))


class TestMalformedAddresses:
    @given(bad=malformed_ips(), bits=st.integers(1, 32))
    @settings(max_examples=200, deadline=None)
    def test_malformed_pattern_raises_every_call(self, bad, bits):
        match = FlowMatch(src_ip=bad, src_prefix_bits=bits)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 2)
        for _ in range(2):
            with pytest.raises(ValueError):
                match.matches(flow)
            with pytest.raises(ValueError):
                match.subsumes(FlowMatch(src_ip="10.0.0.1"))

    @given(bad=malformed_ips(), bits=st.integers(1, 32))
    @settings(max_examples=200, deadline=None)
    def test_malformed_flow_address_raises_every_call(self, bad, bits):
        match = FlowMatch(src_ip="10.0.0.1", src_prefix_bits=bits)
        flow = FiveTuple(bad, "10.0.0.2", PROTO_TCP, 1, 2)
        for _ in range(2):
            with pytest.raises(ValueError):
                match.matches(flow)
            with pytest.raises(ValueError):
                match.subsumes(FlowMatch(src_ip=bad))

    @given(bad=malformed_ips())
    @settings(max_examples=50, deadline=None)
    def test_zero_length_prefix_never_parses(self, bad):
        """A /0 source prefix matches every source without parsing."""
        match = FlowMatch(src_ip=bad, src_prefix_bits=0)
        assert match.matches(FiveTuple(bad, "10.0.0.2", PROTO_TCP, 1, 2))
        assert match.subsumes(FlowMatch(src_ip=bad))


class TestPickleWithPopulatedCaches:
    """Sharded workers ship flows and matches through pickle."""

    @given(flow=st.builds(FiveTuple, src_ip=any_ips, dst_ip=any_ips,
                          protocol=protocols, src_port=ports,
                          dst_port=ports))
    @settings(max_examples=100, deadline=None)
    def test_five_tuple_round_trip(self, flow):
        FlowMatch(src_ip=flow.src_ip, src_prefix_bits=8).matches(flow)
        flow.hash_bucket(16)
        copy = pickle.loads(pickle.dumps(flow))
        assert copy == flow
        assert hash(copy) == hash(flow)
        assert copy.hash_bucket(16) == flow.hash_bucket(16)

    @given(case=match_and_flow())
    @settings(max_examples=100, deadline=None)
    def test_flow_match_round_trip(self, case):
        match, flow = case
        verdict = match.matches(flow)
        assert match.specificity >= 0
        copy = pickle.loads(pickle.dumps(match))
        assert copy == match
        assert hash(copy) == hash(match)
        assert repr(copy) == repr(match)
        assert copy.matches(flow) is verdict
        assert copy.subsumes(match) and match.subsumes(copy)
