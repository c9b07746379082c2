"""The SDN control tier: controller, control plane, orchestrator, messages.

The SDN Controller and NFV Orchestrator "provide interfaces between the
SDNFV Application and the NF Manager" (§3.1).  :class:`ControlPlane` is
the controller: N shards partitioned over flow space, each a
:class:`SdnController` modeled on POX — a single-threaded request server
whose saturation behaviour drives Figs. 1 and 10.  ``shards=1`` is the
paper's single controller.
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
