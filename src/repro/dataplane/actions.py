"""Forwarding destinations, NF verdicts, and parallel conflict resolution.

The paper gives NFs three per-packet actions (§3.4): *Discard*, *Send to*
(a NIC port or a Service ID), and *Default* (follow the flow table's first
action).  When several VMs process one packet in parallel, their verdicts
may conflict; §4.2 resolves conflicts by action priority (drop beats
transmit-out beats default) or by per-VM priority.
"""

from __future__ import annotations

import dataclasses
import enum
import typing


@dataclasses.dataclass(frozen=True)
class ToService:
    """Forward to the NF registered under a Service ID."""

    service_id: str

    def __str__(self) -> str:
        return f"svc:{self.service_id}"


@dataclasses.dataclass(frozen=True)
class ToPort:
    """Forward out a NIC port."""

    port: str

    def __str__(self) -> str:
        return f"port:{self.port}"


@dataclasses.dataclass(frozen=True)
class Drop:
    """Discard the packet (used as an explicit rule action)."""

    def __str__(self) -> str:
        return "drop"


Destination = ToService | ToPort | Drop


class NfVerdict(enum.Enum):
    """What an NF asked the NF Manager to do with a finished packet."""

    DISCARD = "discard"
    SEND = "send"
    DEFAULT = "default"


@dataclasses.dataclass(frozen=True)
class Verdict:
    """An NF's completed-packet request: a kind plus optional destination."""

    kind: NfVerdict
    destination: Destination | None = None

    def __post_init__(self) -> None:
        if self.kind is NfVerdict.SEND and self.destination is None:
            raise ValueError("SEND verdict needs a destination")
        if self.kind is not NfVerdict.SEND and self.destination is not None:
            raise ValueError(f"{self.kind} verdict takes no destination")

    # Verdicts are frozen values, so the two argument-free ones are
    # shared constants rather than built and validated per packet.
    @staticmethod
    def discard() -> Verdict:
        return _DISCARD

    @staticmethod
    def default() -> Verdict:
        return _DEFAULT

    @classmethod
    def send_to_service(cls, service_id: str) -> Verdict:
        return cls(NfVerdict.SEND, ToService(service_id))

    @classmethod
    def send_to_port(cls, port: str) -> Verdict:
        return cls(NfVerdict.SEND, ToPort(port))


_DISCARD = Verdict(NfVerdict.DISCARD)
_DEFAULT = Verdict(NfVerdict.DEFAULT)


# Action-priority policy: drop > transmit out a port > send to a service >
# default (§4.2 names drop and transmit-out explicitly; service redirects
# express a deliberate NF decision so they outrank the passive default).
_ACTION_RANK = {
    NfVerdict.DISCARD: 0,
    NfVerdict.SEND: 1,
    NfVerdict.DEFAULT: 2,
}


def resolve_parallel_verdicts(
        verdicts: typing.Sequence[tuple[int, Verdict]],
        policy: str = "action_priority") -> Verdict:
    """Pick the winning verdict for a packet processed by parallel VMs.

    ``verdicts`` is a list of ``(vm_priority, verdict)`` pairs, lower
    vm_priority = more important.  ``policy`` is ``"action_priority"`` or
    ``"vm_priority"``.
    """
    if not verdicts:
        raise ValueError("no verdicts to resolve")
    if policy not in ("action_priority", "vm_priority"):
        raise ValueError(f"unknown conflict policy: {policy!r}")
    # Members that all returned one verdict object (the shared Default
    # and Discard constants) agree under either policy.
    first = verdicts[0][1]
    for _priority, verdict in verdicts:
        if verdict is not first:
            break
    else:
        return first
    if policy == "action_priority":
        def rank(pair: tuple[int, Verdict]) -> tuple[int, int, int]:
            vm_priority, verdict = pair
            port_first = 0 if isinstance(verdict.destination, ToPort) else 1
            return (_ACTION_RANK[verdict.kind], port_first, vm_priority)
        return min(verdicts, key=rank)[1]
    return min(verdicts, key=lambda pair: pair[0])[1]
