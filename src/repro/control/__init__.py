"""The SDN control tier: controller, control plane, orchestrator, messages.

The SDN Controller and NFV Orchestrator "provide interfaces between the
SDNFV Application and the NF Manager" (§3.1).  The controller is modeled
on POX: a single-threaded request server whose saturation behaviour drives
Figs. 1 and 10.  :class:`ControlPlane` lifts that ceiling: N controller
shards partitioned over flow space behind the same interface.
"""

from repro.control.controller import ControllerStats, SdnController
from repro.control.openflow import PacketInMessage
from repro.control.orchestrator import NfvOrchestrator
from repro.control.plane import ControlPlane, ControlPlaneStats

__all__ = [
    "ControlPlane",
    "ControlPlaneStats",
    "ControllerStats",
    "NfvOrchestrator",
    "PacketInMessage",
    "SdnController",
]
