"""Runtime descriptor-ownership verification (the dynamic layer).

``NfvHost(..., verify=True)`` attaches a :class:`HostVerifier` that
shadows the hot-path hand-off points — ``PacketPool.alloc/reclaim``,
every ``RingBuffer`` producer, every ``NicPort`` ingress/egress, and
the flow-table write choke point — with thin instance-level wrappers.
The wrappers feed an :class:`OwnershipLedger` that knows, for every
pooled buffer, *which component holds it right now*, and flag:

- **double-release** — a second reclaim attempt on a buffer already
  back in the slab;
- **use-after-release** — a freed buffer re-entering a ring or port;
- **leak** — buffers still outstanding when the run should have
  drained;
- **flow-conflict** — an NF ``ChangeDefault`` and a controller rule
  install hitting the same (scope, match) with different defaults
  within the conflict window (the §3.4 stateful-control race);

and close each run with a packet-conservation audit over buffer
tenancies: ``injected == delivered + dropped + inflight``.

The wrappers are *instance attributes*, which is why the verifier can
exist at zero cost: a default (``verify=False``) host never executes a
single extra instruction, and the container classes (pool, rings,
ports, manager) deliberately stay un-slotted so they remain wrappable.
Per-buffer identity is ``Packet.packet_id`` — minted fresh on every
``_reset``, so a recycled buffer can never be confused with its
previous tenancy (no ABA).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.net.packet import Packet

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataplane.host import NfvHost
    from repro.dataplane.manager import NicPort
    from repro.dataplane.rings import RingBuffer


class OwnershipError(AssertionError):
    """Raised by :meth:`HostVerifier.assert_clean` on any finding."""


@dataclasses.dataclass(frozen=True)
class OwnershipIssue:
    """One finding: what went wrong, when (sim ns), and the evidence."""

    kind: str  # double-release | use-after-release | leak | flow-conflict
    at_ns: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind} @ {self.at_ns}ns] {self.detail}"


class OwnershipLedger:
    """Who holds every pooled buffer, at every instant.

    Keyed by ``packet_id`` (unique per tenancy).  Buffers the verifier
    never saw allocated (heap fallbacks, hand-built test packets) are
    ignored by every hook — the ledger only audits slab traffic.
    """

    def __init__(self) -> None:
        #: packet_id -> current owner label ("alloc", "nic:eth0",
        #: "ring:vm0-fw/rx", "wire:eth1", ...).
        self.live: dict[int, str] = {}
        #: packet_id -> owner label at reclaim time.
        self.freed: dict[int, str] = {}
        #: packet_ids that entered the host through a NIC port.
        self.injected_ids: set[int] = set()
        self.allocated = 0
        self.issues: list[OwnershipIssue] = []

    # -- hooks ---------------------------------------------------------
    def on_alloc(self, packet_id: int, now: int) -> None:
        self.allocated += 1
        self.live[packet_id] = "alloc"

    def on_transfer(self, packet_id: int, owner: str, now: int,
                    injected: bool = False) -> None:
        """A tracked buffer changed hands (ignored for unknown ids)."""
        if packet_id in self.freed:
            self.issues.append(OwnershipIssue(
                "use-after-release", now,
                f"buffer #{packet_id} handed to {owner} after being "
                f"reclaimed (last owner: {self.freed[packet_id]})"))
            return
        if packet_id in self.live:
            self.live[packet_id] = owner
            if injected:
                self.injected_ids.add(packet_id)

    def on_reclaim(self, packet_id: int, now: int) -> None:
        owner = self.live.pop(packet_id, None)
        if owner is not None:
            self.freed[packet_id] = owner

    def on_double_release(self, packet_id: int, now: int) -> None:
        self.issues.append(OwnershipIssue(
            "double-release", now,
            f"buffer #{packet_id} reclaimed again (freed earlier while "
            f"held by {self.freed.get(packet_id, '?')})"))

    # -- accounting ----------------------------------------------------
    def audit(self) -> dict[str, int | bool]:
        """The conservation audit over buffer tenancies.

        Of every buffer that entered through a NIC port, each must be
        accounted for exactly once: delivered onto the wire, dropped
        somewhere inside the host, or still in flight.
        """
        delivered = sum(1 for pid in self.injected_ids
                        if self.freed.get(pid, "").startswith("wire:"))
        dropped = sum(1 for pid in self.injected_ids
                      if pid in self.freed
                      and not self.freed[pid].startswith("wire:"))
        inflight = sum(1 for pid in self.injected_ids if pid in self.live)
        injected = len(self.injected_ids)
        return {
            "allocated": self.allocated,
            "injected": injected,
            "delivered": delivered,
            "dropped": dropped,
            "inflight": inflight,
            "balanced": injected == delivered + dropped + inflight,
        }


@dataclasses.dataclass
class VerifyReport:
    """Everything a verified run found, ready to assert on or print."""

    issues: list[OwnershipIssue]
    #: (packet_id, owner) for every buffer considered leaked.
    leaked: list[tuple[int, str]]
    audit: dict[str, int | bool]

    @property
    def ok(self) -> bool:
        return not self.issues and not self.leaked \
            and bool(self.audit["balanced"])

    def __str__(self) -> str:
        lines = [f"ownership audit: {self.audit}"]
        lines += [str(issue) for issue in self.issues]
        lines += [f"[leak] buffer #{pid} still held by {owner}"
                  for pid, owner in self.leaked]
        if self.ok:
            lines.append("clean: no leaks, no double-releases, "
                         "conservation holds")
        return "\n".join(lines)


class HostVerifier:
    """Attach the ownership ledger to one :class:`NfvHost`.

    ``conflict_window_ns`` bounds how close (in sim time) an NF write
    and a controller write to the same (scope, match) must land to be
    reported as a race; 0 means "same instant only".
    """

    def __init__(self, host: NfvHost,
                 conflict_window_ns: int = 0) -> None:
        self.host = host
        self.sim = host.sim
        self.conflict_window_ns = conflict_window_ns
        self.ledger = OwnershipLedger()
        #: (owner_object, attribute) pairs shadowed with wrappers.
        self._shadowed: list[tuple[object, str]] = []
        #: Writer context for flow-table writes ("nf:<service>" while an
        #: NF message is being applied, else controller/app = "control").
        self._writer: str | None = None
        self._rule_writes: dict[tuple[str, str], tuple[int, str, str]] = {}
        self._attach()

    # ------------------------------------------------------------------
    # Attachment / detachment
    # ------------------------------------------------------------------
    def _shadow(self, obj: object, attr: str,
                wrapper: typing.Callable) -> None:
        obj.__dict__[attr] = wrapper
        self._shadowed.append((obj, attr))

    def detach(self) -> None:
        """Remove every wrapper, restoring the class-level methods."""
        for obj, attr in self._shadowed:
            obj.__dict__.pop(attr, None)
        self._shadowed.clear()

    def _attach(self) -> None:
        manager = self.host.manager
        self._wrap_pool(manager.packet_pool)
        for port in manager.ports.values():
            self._wrap_port(port)
        for queue in manager._tx_queues:
            self._wrap_ring(queue)
        for vms in manager.vms_by_service.values():
            for vm in vms:
                self._wrap_ring(vm.rx_ring)
        self._wrap_manager(manager)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap_pool(self, pool) -> None:
        ledger, sim = self.ledger, self.sim
        inner_alloc, inner_reclaim = pool.alloc, pool.reclaim

        def alloc(flow, size=64, payload="", created_at=0):
            packet = inner_alloc(flow, size=size, payload=payload,
                                 created_at=created_at)
            if packet._pool is pool:  # heap fallbacks stay untracked
                ledger.on_alloc(packet.packet_id, sim.now)
            return packet

        def reclaim(packet):
            packet_id = packet.packet_id
            was_freed = packet_id in ledger.freed
            reclaimed = inner_reclaim(packet)
            if reclaimed:
                ledger.on_reclaim(packet_id, sim.now)
            elif was_freed:
                ledger.on_double_release(packet_id, sim.now)
            return reclaimed

        self._shadow(pool, "alloc", alloc)
        self._shadow(pool, "reclaim", reclaim)

    def _wrap_port(self, port: NicPort) -> None:
        ledger, sim = self.ledger, self.sim
        inner_receive, inner_transmit = port.receive, port.transmit

        def receive(packet):
            ledger.on_transfer(packet.packet_id, f"nic:{port.name}",
                               sim.now, injected=True)
            return inner_receive(packet)

        def transmit(packet):
            ledger.on_transfer(packet.packet_id, f"wire:{port.name}",
                               sim.now)
            return inner_transmit(packet)

        self._shadow(port, "receive", receive)
        self._shadow(port, "transmit", transmit)

    def _wrap_ring(self, ring: RingBuffer) -> None:
        ledger, sim = self.ledger, self.sim
        inner_one, inner_burst = ring.try_enqueue, ring.enqueue_burst
        owner = f"ring:{ring.name}"

        def _packet_of(item) -> Packet | None:
            packet = getattr(item, "packet", item)
            return packet if isinstance(packet, Packet) else None

        def try_enqueue(item):
            accepted = inner_one(item)
            packet = _packet_of(item)
            if packet is not None and accepted:
                ledger.on_transfer(packet.packet_id, owner, sim.now)
            return accepted

        def enqueue_burst(items):
            accepted = inner_burst(items)
            for item in items[:accepted]:
                packet = _packet_of(item)
                if packet is not None:
                    ledger.on_transfer(packet.packet_id, owner, sim.now)
            return accepted

        self._shadow(ring, "try_enqueue", try_enqueue)
        self._shadow(ring, "enqueue_burst", enqueue_burst)

    def _wrap_manager(self, manager) -> None:
        sim = self.sim
        inner_register = manager.register_vm
        inner_add_port = manager.add_port
        inner_install = manager.install_rule
        inner_apply = manager.apply_message

        def register_vm(nf, ring_slots=512, priority=0):
            vm = inner_register(nf, ring_slots=ring_slots,
                                priority=priority)
            self._wrap_ring(vm.rx_ring)
            return vm

        def add_port(name, line_rate_gbps=10.0):
            port = inner_add_port(name, line_rate_gbps=line_rate_gbps)
            self._wrap_port(port)
            return port

        def apply_message(message):
            sender = getattr(message, "sender_service", None)
            self._writer = f"nf:{sender}" if sender else "nf:?"
            try:
                return inner_apply(message)
            finally:
                self._writer = None

        def install_rule(entry):
            writer = self._writer or "control"
            key = (entry.scope, repr(entry.match))
            default = repr(entry.default_action)
            previous = self._rule_writes.get(key)
            if previous is not None:
                prev_ns, prev_writer, prev_default = previous
                if (sim.now - prev_ns <= self.conflict_window_ns
                        and prev_writer != writer
                        and prev_default != default):
                    self.ledger.issues.append(OwnershipIssue(
                        "flow-conflict", sim.now,
                        f"conflicting defaults for scope "
                        f"{entry.scope!r} match {key[1]}: {prev_writer} "
                        f"wrote {prev_default} then {writer} wrote "
                        f"{default} within "
                        f"{self.conflict_window_ns}ns"))
            self._rule_writes[key] = (sim.now, writer, default)
            return inner_install(entry)

        self._shadow(manager, "register_vm", register_vm)
        self._shadow(manager, "add_port", add_port)
        self._shadow(manager, "apply_message", apply_message)
        self._shadow(manager, "install_rule", install_rule)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, expect_drained: bool = True) -> VerifyReport:
        """The run's findings.

        With ``expect_drained`` (the default), every buffer still
        outstanding is reported as a leak — use after the workload has
        wound down.  Pass False mid-run to audit without leak checks.
        """
        leaked = (sorted(self.ledger.live.items()) if expect_drained
                  else [])
        return VerifyReport(issues=list(self.ledger.issues),
                            leaked=leaked, audit=self.ledger.audit())

    def assert_clean(self, expect_drained: bool = True) -> VerifyReport:
        """Raise :class:`OwnershipError` unless the run was spotless."""
        found = self.report(expect_drained=expect_drained)
        if not found.ok:
            raise OwnershipError(str(found))
        return found
