"""Protocol header models.

These are structural models, not byte-exact codecs: the fields are the ones
the SDNFV data plane matches on or rewrites (the memcached proxy rewrites
destination IP/port; the flow table matches the 5-tuple).  Each header knows
its wire length so packet sizes stay honest.
"""

from __future__ import annotations

import dataclasses
import functools

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_PROTO_NAMES = {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}


@functools.lru_cache(maxsize=4096)
def ip_to_int(address: str) -> int:
    """Parse dotted-quad IPv4 into an int (validates each octet).

    Memoised for the most recent 4096 addresses: every lazily built
    ``Ipv4Header`` (and every ``dataclasses.replace`` of one) re-validates
    its addresses, which are almost always ones already seen.  Failures
    are not cached, so a malformed address raises on every call.
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"IPv4 octet out of range: {address!r}")
        value = (value << 8) | octet
    return value


def ip_to_str(value: int) -> str:
    """Format an int as dotted-quad IPv4."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 int out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF)
                    for shift in (24, 16, 8, 0))


@dataclasses.dataclass
class EthernetHeader:
    """Layer-2 header (14 bytes on the wire)."""

    src_mac: str = "00:00:00:00:00:01"
    dst_mac: str = "00:00:00:00:00:02"
    ethertype: int = 0x0800  # IPv4

    WIRE_LENGTH = 14


@dataclasses.dataclass
class Ipv4Header:
    """Layer-3 header (20 bytes, no options)."""

    src_ip: str = "10.0.0.1"
    dst_ip: str = "10.0.0.2"
    protocol: int = PROTO_TCP
    ttl: int = 64
    dscp: int = 0

    WIRE_LENGTH = 20

    def __post_init__(self) -> None:
        # Validate eagerly; a malformed address should fail at construction,
        # not deep inside a flow-table lookup.
        ip_to_int(self.src_ip)
        ip_to_int(self.dst_ip)
        if self.protocol not in _PROTO_NAMES:
            raise ValueError(f"unsupported IP protocol: {self.protocol}")

    def decrement_ttl(self) -> None:
        if self.ttl <= 0:
            raise ValueError("TTL already expired")
        self.ttl -= 1


@dataclasses.dataclass
class TcpHeader:
    """Layer-4 TCP header (20 bytes, no options)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: frozenset[str] = frozenset()

    WIRE_LENGTH = 20

    def __post_init__(self) -> None:
        _check_port(self.src_port)
        _check_port(self.dst_port)
        allowed = {"SYN", "ACK", "FIN", "RST", "PSH"}
        unknown = set(self.flags) - allowed
        if unknown:
            raise ValueError(f"unknown TCP flags: {sorted(unknown)}")


@dataclasses.dataclass
class UdpHeader:
    """Layer-4 UDP header (8 bytes)."""

    src_port: int = 0
    dst_port: int = 0

    WIRE_LENGTH = 8

    def __post_init__(self) -> None:
        _check_port(self.src_port)
        _check_port(self.dst_port)


def _check_port(port: int) -> None:
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")


def protocol_name(protocol: int) -> str:
    """Human-readable protocol name (for logs and table dumps)."""
    return _PROTO_NAMES.get(protocol, str(protocol))
