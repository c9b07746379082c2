"""Packet and protocol substrate.

Models the parts of the network stack that SDNFV's data plane inspects:
5-tuples, header fields used for matching, and the application payloads
(HTTP, memcached) that the application-aware NFs parse.
"""

from repro.net.flow import FiveTuple, FlowMatch
from repro.net.headers import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
    ip_to_int,
    ip_to_str,
)
from repro.net.http import HttpRequest, HttpResponse, classify_content_type
from repro.net.memcached import MemcachedRequest, MemcachedResponse
from repro.net.mempool import DEFAULT_POOL_SIZE, PacketPool
from repro.net.packet import Packet, wire_bits

__all__ = [
    "DEFAULT_POOL_SIZE",
    "EthernetHeader",
    "FiveTuple",
    "FlowMatch",
    "HttpRequest",
    "HttpResponse",
    "Ipv4Header",
    "MemcachedRequest",
    "MemcachedResponse",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PacketPool",
    "TcpHeader",
    "UdpHeader",
    "classify_content_type",
    "ip_to_int",
    "ip_to_str",
    "wire_bits",
]
