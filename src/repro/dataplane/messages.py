"""Cross-layer messages from NFs to the NF Manager (paper §3.4).

Each message applies to flows matching some criteria ``F`` (one flow or a
wildcard match):

- ``SkipMe(F, S)`` — any rule whose default leads to service S is rewired
  to S's own default, bypassing S.
- ``RequestMe(F, S)`` — every rule that has an edge to S makes S its
  default.
- ``ChangeDefault(F, S, T)`` — service S's default becomes T.
- ``UserMessage(S, key, value)`` — arbitrary application data for the NF
  Manager / SDNFV Application (the paper's ``Message`` call).

The message *types* live here in the dataplane (they are the NF↔Manager
wire protocol); validation policy lives in the SDNFV Application
(:mod:`repro.core.app`), which may veto messages from untrusted NFs or
fan them out to other hosts.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.dataplane.actions import Destination, Drop, ToPort, ToService
from repro.net.flow import FlowMatch


@dataclasses.dataclass(frozen=True)
class NfMessage:
    """Base class: every message names the service that sent it."""

    sender_service: str


@dataclasses.dataclass(frozen=True)
class SkipMe(NfMessage):
    """Bypass ``service`` for flows matching ``flows``."""

    flows: FlowMatch = dataclasses.field(default_factory=FlowMatch.any)
    service: str = ""

    def __post_init__(self) -> None:
        if not self.service:
            raise ValueError("SkipMe needs a service to bypass")


@dataclasses.dataclass(frozen=True)
class RequestMe(NfMessage):
    """Make ``service`` the default next hop wherever an edge to it exists."""

    flows: FlowMatch = dataclasses.field(default_factory=FlowMatch.any)
    service: str = ""

    def __post_init__(self) -> None:
        if not self.service:
            raise ValueError("RequestMe needs a service to request")


@dataclasses.dataclass(frozen=True)
class ChangeDefault(NfMessage):
    """Update service ``service``'s default action to ``target``."""

    flows: FlowMatch = dataclasses.field(default_factory=FlowMatch.any)
    service: str = ""
    # "drop", a port name prefixed "port:", or a Service ID; read by
    # parse_target.
    target: str = ""

    def __post_init__(self) -> None:
        if not self.service or not self.target:
            raise ValueError("ChangeDefault needs a service and a target")


@functools.lru_cache(maxsize=1024)
def parse_target(target: str) -> Destination:
    """The destination a ``ChangeDefault.target`` names: the one parser
    of that syntax, for the NF Manager and the SDNFV Application.
    Cached, so the rules rewritten to one target share one destination.
    """
    if target == "drop":
        return Drop()
    if target.startswith("port:"):
        return ToPort(target[len("port:"):])
    return ToService(target)


@dataclasses.dataclass(frozen=True)
class UserMessage(NfMessage):
    """Arbitrary (key, value) application data (the paper's Message call)."""

    key: str = ""
    value: typing.Any = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("UserMessage needs a key")
