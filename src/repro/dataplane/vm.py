"""The simulated NF VM: one thread polling its RX ring, running the NF.

Paper §4.3: each VM runs a single network function as a user-space
application; each core runs a thread with its own ring buffer pair shared
with the host's RX/TX threads.  Here one :class:`NfVm` models one such
thread (replicas of a service are separate ``NfVm`` instances, which is
also how the load balancer sees them).

Failure model (§3.1: NF Managers "respond to failure or overload"): a VM
may *crash* (its thread dies, :class:`~repro.sim.events.Interrupt` is
thrown into the packet loop) or *hang* (the thread wedges mid-packet and
stops making progress).  Liveness is exposed through the same shared ring
state a real manager reads — ``last_progress_ns`` advances every time the
thread moves a descriptor, which is the heartbeat the watchdog in
:mod:`repro.faults.watchdog` samples.
"""

from __future__ import annotations

import typing

from repro.dataplane.costs import HostCosts
from repro.dataplane.descriptors import PacketDescriptor
from repro.dataplane.rings import DEFAULT_RING_SLOTS, RingBuffer
from repro.nfs.base import NetworkFunction, NfContext
from repro.sim.events import Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane.manager import NfManager


class NfVm:
    """One VM thread hosting a network function."""

    def __init__(self, manager: NfManager, nf: NetworkFunction,
                 ring_slots: int = DEFAULT_RING_SLOTS,
                 priority: int = 0) -> None:
        self.manager = manager
        self.sim = manager.sim
        self.nf = nf
        # VM ids are minted per manager, not from a module-global counter:
        # they name rings, TX assignments, and per-VM RNG streams, so they
        # must depend only on this host's registration order (a sharded
        # run builds hosts in a different global order than a monolithic
        # one, but each host sees the same local sequence).
        self.vm_id = f"vm{next(manager._vm_ids)}-{nf.service_id}"
        self.priority = priority
        self.rx_ring = RingBuffer(self.sim, name=f"{self.vm_id}/rx",
                                  slots=ring_slots)
        self.packets_processed = 0
        self.packets_lost = 0
        self.busy_ns = 0
        # Heartbeat state: when the thread last moved a descriptor, and the
        # descriptor it currently holds (None while idle on the ring).
        # With bursts, ``inflight`` is the head of the batch the thread is
        # working through; the not-yet-processed tail sits in ``_pending``
        # (salvageable on failure) and ``_busy_until_ns`` tells the
        # watchdog how long the current batch legitimately runs.
        self.last_progress_ns = 0
        self.inflight: PacketDescriptor | None = None
        self._pending: list[PacketDescriptor] = []
        self._busy_until_ns = 0
        self.failed = False
        self.failure_cause: str | None = None
        self._hung = False
        self.ctx = NfContext(
            sim=self.sim,
            service_id=nf.service_id,
            vm_id=self.vm_id,
            submit_message=manager.submit_nf_message,
            streams=manager.streams,
        )
        self._process = None

    @property
    def service_id(self) -> str:
        return self.nf.service_id

    @property
    def read_only(self) -> bool:
        return self.nf.read_only

    @property
    def crashed(self) -> bool:
        """True once the VM's thread is dead — killed, or the NF raised."""
        return self.failed or (self._process is not None
                               and not self._process.is_alive)

    def stalled(self, now_ns: int, heartbeat_timeout_ns: int) -> bool:
        """Wedged: holding a descriptor but no progress for too long.

        An idle VM (nothing in flight) is never considered stalled — it is
        legitimately blocked on its empty RX ring.  A VM inside a long
        batch is not stalled either: its heartbeat reference advances to
        the batch's expected completion time, so a 32-packet burst of a
        slow NF does not trip the watchdog mid-batch.
        """
        if self.failed or self.inflight is None:
            return False
        reference = max(self.last_progress_ns,
                        min(self._busy_until_ns, now_ns))
        return now_ns - reference >= heartbeat_timeout_ns

    def take_pending_batch(self) -> list[PacketDescriptor]:
        """Remove and return the dequeued-but-unprocessed batch tail.

        Failover salvage (``NfManager.fail_vm``): descriptors the thread
        had burst-dequeued but not started are recoverable intact — only
        the in-flight head dies with the VM.
        """
        pending, self._pending = self._pending, []
        return pending

    def start(self) -> None:
        """Begin the VM's packet loop (called at registration)."""
        if self._process is not None:
            raise RuntimeError(f"{self.vm_id} already started")
        self.nf.on_register(self.ctx)
        self._process = self.sim.process(self._run())

    # ------------------------------------------------------------------
    # Fault surface (driven by repro.faults)
    # ------------------------------------------------------------------
    def crash(self, cause: str = "crash") -> None:
        """Kill the VM thread at the current time.

        The interrupt is delivered asynchronously (at the current
        timestamp); the packet loop's cleanup then marks the VM failed
        and accounts for any in-flight descriptor.  Idempotent.
        """
        if self.failed or self._process is None or not self._process.is_alive:
            self.failed = True
            self.failure_cause = self.failure_cause or cause
            return
        self._hung = False
        self._process.interrupt(cause)

    def hang(self) -> None:
        """Wedge the VM: it stops mid-packet on its next dequeue and makes
        no further progress until crashed/terminated."""
        self._hung = True

    # ------------------------------------------------------------------
    # Packet loop
    # ------------------------------------------------------------------
    def _run(self):
        """The VM's packet loop: burst-dequeue, process, hand off.

        The thread blocks for the head descriptor, sweeps the rest of the
        burst from its ring, then serves the whole batch under a single
        occupancy charge.  ``inflight`` holds the batch head (the packet
        that dies on a crash); the tail stays in ``_pending`` until the
        batch completes, so mid-batch failures salvage it intact.  At
        ``burst_size=1`` this is event-for-event the single-packet loop.

        Only data and private helpers are bound to locals.  Ring and NF
        methods are looked up at each call, because the ownership
        verifier and simbench's tracer patch them while the loop runs;
        cost fields are read at each wake, because a ``HostOverload``
        fault rescales them in place.
        """
        sim = self.sim
        nf = self.nf
        ctx = self.ctx
        ring = self.rx_ring
        manager = self.manager
        stats = manager.stats
        costs: HostCosts = manager.costs
        service_id = nf.service_id
        submit = self._submit_batch
        try:
            while True:
                descriptor: PacketDescriptor = yield ring.get()
                batch = [descriptor]
                burst = manager.burst_size
                if burst > 1 and ring.items:
                    batch.extend(ring.dequeue_burst(burst - 1))
                stats.record_vm_batch(len(batch))
                self.inflight = descriptor
                self._pending = batch[1:]
                self.last_progress_ns = sim.now
                if self._hung:
                    # Wedged mid-packet: block on an event that never
                    # fires.  Only an interrupt (watchdog kill) resumes us.
                    yield sim.event()
                work = costs.vm_service_ns * len(batch)
                for item in batch:
                    work += nf.processing_cost_ns(item.packet, ctx)
                self._busy_until_ns = sim.now + work
                yield sim.sleep(work)
                self.busy_ns += work
                # Batch complete: emit verdicts and group the handoff by
                # delivery delay (one timer per distinct delay, not one
                # per packet).  Ring hops + poll-batching pickup are
                # latency, not occupancy: the TX tier gets the batch
                # after a non-blocking delay.  Parallel-group members are
                # staggered by their index, modeling cache contention on
                # the shared packet buffer.
                priority = self.priority
                pipeline_ns = costs.vm_pipeline_latency_ns
                handoff: dict[int, list[PacketDescriptor]] = {}
                for item in batch:
                    self.packets_processed += 1
                    item.verdict = nf.handle_packet(item.packet, ctx)
                    item.scope = service_id
                    item.vm_priority = priority
                    delay = pipeline_ns
                    if item.group_id is not None:
                        # Merge stage: journal this member's writes while
                        # still in the handler's event (before any other
                        # member can touch the shared packet).
                        manager._capture_group_writes(item)
                        delay += costs.parallel_stagger_ns * item.group_index
                    done = handoff.get(delay)
                    if done is None:
                        handoff[delay] = [item]
                    else:
                        done.append(item)
                self._pending = []
                self.inflight = None
                self.last_progress_ns = sim.now
                for delay, done in handoff.items():
                    # Bare timer lane: the handoff needs no Event object.
                    sim.call_later(delay, submit, done)
        except Interrupt as interrupt:
            self._on_killed(str(interrupt.cause or "crash"))

    def _submit_batch(self, descriptors: list[PacketDescriptor]) -> None:
        self.manager.tx_submit_burst(descriptors, self)

    def _on_killed(self, cause: str) -> None:
        self.failed = True
        self.failure_cause = cause
        self._hung = False
        if self.inflight is not None:
            # The packet the NF was holding dies with it.  A parallel-
            # group member must run group bookkeeping first: when every
            # other member already reported, the merge consumes this
            # reference and the buffer lives on — freeing it here would
            # be the use-after-release the ownership verifier exists to
            # catch.
            descriptor, self.inflight = self.inflight, None
            self.packets_lost += 1
            self.manager.stats.lost_in_nf += 1
            if not self.manager._group_member_lost(descriptor):
                descriptor.packet.free()

    def __repr__(self) -> str:
        state = " FAILED" if self.failed else ""
        return (f"<NfVm {self.vm_id} queue={self.rx_ring.occupancy} "
                f"processed={self.packets_processed}{state}>")
