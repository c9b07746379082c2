"""OpenFlow-style control messages, with the paper's repurposed semantics.

§4.1: "We repurpose the OpenFlow protocol's OFPT_FLOW_MOD messages to
define the forwarding actions between network functions.  We consider each
NF instance as a logical network port ... 'output to port SID'."  §3.3
repurposes the input-port match field to carry the Service ID scope, and
uses multi-action OUTPUT lists.  Those rules are ``FlowTableEntry``
objects installed through ``NfManager.install_rule``; parallelism is not
a rule property but a chain the manager registers from the VMs'
read-only handshake (``NfManager.register_parallel_chain``).  This
module holds the message a miss sends controller-ward.

The dataclass models the message *semantics*; byte-level OpenFlow
framing is irrelevant to every experiment.
"""

from __future__ import annotations

import dataclasses

from repro.net.flow import FiveTuple


@dataclasses.dataclass(frozen=True)
class PacketInMessage:
    """A flow-table miss reported to the controller (header only —
    §4.1 sends "its header to the SDN controller")."""

    host: str
    scope: str  # NIC port or Service ID where the miss occurred
    flow: FiveTuple
