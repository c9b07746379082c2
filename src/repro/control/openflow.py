"""OpenFlow-style control messages, with the paper's repurposed semantics.

§4.1: "We repurpose the OpenFlow protocol's OFPT_FLOW_MOD messages to
define the forwarding actions between network functions.  We consider each
NF instance as a logical network port ... 'output to port SID'."  §3.3
repurposes the input-port match field to carry the Service ID scope, and
uses multi-action OUTPUT lists with a parallel flag.

These dataclasses model the message *semantics*; byte-level OpenFlow
framing is irrelevant to every experiment.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dataplane.flow_table import FlowTableEntry
from repro.net.flow import FiveTuple


@dataclasses.dataclass(frozen=True)
class PacketInMessage:
    """A flow-table miss reported to the controller (header only —
    §4.1 sends "its header to the SDN controller")."""

    host: str
    scope: str  # NIC port or Service ID where the miss occurred
    flow: FiveTuple


@dataclasses.dataclass(frozen=True)
class FlowModMessage:
    """Rules pushed to a host's NF Manager (repurposed OFPT_FLOW_MOD)."""

    host: str
    entries: tuple[FlowTableEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("empty FlowMod")


@dataclasses.dataclass(frozen=True)
class StatsRequest:
    """Controller asking a host for its counters (northbound telemetry)."""

    host: str


@dataclasses.dataclass(frozen=True)
class NfNotification:
    """NF-originated data relayed controller-ward (§3.4's Message call,
    forwarded over the repurposed southbound channel — Fig. 2 step 5)."""

    host: str
    sender_service: str
    key: str
    value: typing.Any
