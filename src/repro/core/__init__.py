"""SDNFV's core: service graphs, the SDNFV Application, and placement.

This is the paper's primary contribution (§3): the hierarchical control
framework coordinating the SDN controller, per-host NF Managers, and the
NFs themselves, driven by service-graph abstractions and a placement
engine.

The placement engine (§3.5) is an offline planner that no packet path
calls, so this package does not re-export it: import the solvers from
:mod:`repro.core.placement`, the only module that loads scipy.
"""

from repro.core.app import GraphDeployment, SdnfvApp
from repro.core.deploy_rules import (
    DistributedDeploymentError,
    compile_distributed_rules,
)
from repro.core.service_graph import DROP, EXIT, ServiceGraph
from repro.core.state import HierarchySnapshot, StateTier, classify_state

__all__ = [
    "DROP",
    "DistributedDeploymentError",
    "EXIT",
    "compile_distributed_rules",
    "GraphDeployment",
    "HierarchySnapshot",
    "SdnfvApp",
    "ServiceGraph",
    "StateTier",
    "classify_state",
]
