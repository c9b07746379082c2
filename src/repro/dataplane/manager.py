"""The NF Manager: the per-host data plane engine (paper §4.1–4.2).

One :class:`NfManager` runs on each SDNFV host.  It owns:

- the host's **flow table** (Service-ID-scoped rules from the SDN tier),
- **RX threads** (one per NIC port) that classify arriving packets and
  dispatch descriptors into VM rings,
- **TX threads** that collect completed descriptors from VMs, resolve the
  NF's verdict against the flow table, and forward / drop / hand off,
- a **Flow Controller thread** that buffers flow-table misses and asks the
  SDN controller for rules asynchronously (31 ms off the critical path),
- a **management loop** applying cross-layer NF messages (SkipMe /
  RequestMe / ChangeDefault / Message), optionally validated by the SDNFV
  Application first,
- per-service **load balancers** and the **parallel processing** machinery
  (descriptor fan-out, reference counting, verdict merge).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing

from repro.dataplane.actions import (
    Destination,
    Drop,
    NfVerdict,
    ToPort,
    ToService,
    Verdict,
    resolve_parallel_verdicts,
)
from repro.dataplane.costs import HostCosts
from repro.dataplane.descriptors import PacketDescriptor
from repro.dataplane.flow_table import FlowTable, FlowTableEntry
from repro.dataplane.load_balancer import LoadBalancePolicy, ServiceLoadBalancer
from repro.dataplane.messages import (
    ChangeDefault,
    NfMessage,
    RequestMe,
    SkipMe,
    UserMessage,
    parse_target,
)
from repro.dataplane.rings import RingBuffer
from repro.dataplane.stats import HostStats
from repro.dataplane.vm import NfVm
from repro.net.flow import FiveTuple, FlowMatch
from repro.net.mempool import PacketPool
from repro.net.packet import Packet, transmission_ns
from repro.nfs.base import NetworkFunction
from repro.sim.events import Event
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.store import Store
from repro.sim.units import MS

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.control.plane import ControlPlane

_group_ids = itertools.count()

# Bound on the per-flow lookup-plan cache (entries, not bytes).
_PLAN_CACHE_LIMIT = 65536

# DPDK's burst model (§4.1): RX/TX threads and NFs move packets in
# batches of up to 32 descriptors per poll.
DEFAULT_BURST_SIZE = 32


@dataclasses.dataclass(frozen=True)
class ControlPlanePolicy:
    """Client-side hardening for the manager → SDN controller channel.

    §3 argues hosts must keep making local decisions when the controller
    is slow or unreachable.  With a policy attached, each flow request
    gets a ``timeout_ns`` deadline (a reply arriving later is dropped);
    after a timeout or a failed reply the manager retries with capped
    exponential backoff up to ``max_attempts`` total tries, then gives
    up and degrades (drop or :attr:`NfManager.miss_fallback`) instead of
    blocking the miss queue forever.
    """

    timeout_ns: int = 100 * MS
    max_attempts: int = 3
    backoff_base_ns: int = 10 * MS
    backoff_cap_ns: int = 500 * MS

    def __post_init__(self) -> None:
        if self.timeout_ns <= 0:
            raise ValueError("timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_base_ns < 0 or self.backoff_cap_ns < 0:
            raise ValueError("backoff must be non-negative")

    def backoff_ns(self, attempt: int) -> int:
        """Delay before retry number ``attempt + 1`` (0-based, capped)."""
        return min(self.backoff_cap_ns, self.backoff_base_ns * (2 ** attempt))


class _RequestTimeout(Exception):
    """A flow request outlived its :class:`ControlPlanePolicy` deadline.

    Private, so a northbound application that raises ``TimeoutError``
    counts as a failed request, not as a timeout.
    """


def _expire(reply: Event) -> None:
    """A flow request's deadline: fail its reply if still pending (the
    controller then drops the late answer)."""
    if not reply.triggered:
        reply.fail(_RequestTimeout())


class NicPort:
    """A NIC port: a bounded RX queue and a line-rate-limited egress.

    The RX queue is bounded like a real NIC descriptor ring: when the RX
    thread falls behind, arriving frames are dropped and counted in
    ``rx_dropped`` — this is what makes "max achievable throughput"
    measurable (Fig. 7).
    """

    def __init__(self, sim: Simulator, name: str,
                 line_rate_gbps: float = 10.0,
                 rx_frames: int = 2048,
                 stats: HostStats | None = None) -> None:
        self.sim = sim
        self.name = name
        self.line_rate_gbps = line_rate_gbps
        self.rx_dropped = 0
        self.link_dropped = 0
        # Host-level stats sink: NIC-tier drops are mirrored here so the
        # manager's summary sees frames it never got to touch.
        self.stats = stats
        self.link_up = True
        self._link_restored: Event | None = None
        self.ingress = Store(sim, capacity=rx_frames)
        # Unwired ports leave transmitted frames here.
        self.egress = Store(sim)
        self.tx_packets = 0
        self.tx_bytes = 0
        # Optional sink: when set, transmitted packets are delivered to the
        # callback instead of accumulating in the egress store.
        self.on_egress: typing.Callable[[Packet], None] | None = None
        # Wire serialization is a bare timer state machine, not a
        # generator process: transmit() starts an idle port's frame at
        # once, _tx_done starts the next backlog frame itself, and the
        # timer at the end of serialization is each frame's only kernel
        # entry.  The steady-state TX path never touches Event or
        # generator machinery.
        self._tx_backlog: collections.deque[Packet] = collections.deque()
        self._tx_busy = False
        self._tx_ns_cache: dict[int, int] = {}

    def set_link(self, up: bool) -> None:
        """Flip link state (LinkFlap faults).  While down, arriving frames
        are dropped and queued egress frames wait for the link."""
        if up == self.link_up:
            return
        self.link_up = up
        if up:
            restored, self._link_restored = self._link_restored, None
            if restored is not None:
                restored.succeed()
        else:
            self._link_restored = Event(self.sim)

    def transmit(self, packet: Packet) -> bool:
        """Queue a frame for transmission (called by TX threads).  True
        when the port took the frame; this one's backlog is unbounded."""
        if self._tx_busy:
            self._tx_backlog.append(packet)
        else:
            self._tx_busy = True
            self._tx_start(packet)
        return True

    def _tx_start(self, packet: Packet) -> None:
        """Begin serializing one frame onto the wire at the line rate."""
        if not self.link_up:
            self._link_restored.callbacks.append(
                lambda _event, packet=packet: self._tx_start(packet))
            return
        tx_ns = self._tx_ns_cache.get(packet.size)
        if tx_ns is None:
            tx_ns = transmission_ns(packet.size, self.line_rate_gbps)
            self._tx_ns_cache[packet.size] = tx_ns
        self.sim.call_later(tx_ns, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        """Hand a serialized frame to the wire, then start the next."""
        self.tx_packets += 1
        self.tx_bytes += packet.size
        on_egress = self.on_egress
        if on_egress is not None:
            on_egress(packet)
        else:
            self.egress.try_put(packet)
        backlog = self._tx_backlog
        if backlog:
            self._tx_start(backlog.popleft())
        else:
            self._tx_busy = False

    def receive(self, packet: Packet) -> bool:
        """Deliver an arriving frame into the RX queue (drop when full or
        while the link is down)."""
        if not self.link_up:
            self.link_dropped += 1
            if self.stats is not None:
                self.stats.nic_link_dropped += 1
            if packet._pool is not None:
                packet.free()
            return False
        if self.ingress.try_put(packet):
            return True
        self.rx_dropped += 1
        if self.stats is not None:
            self.stats.nic_rx_dropped += 1
        if packet._pool is not None:
            packet.free()
        return False

    def rx_burst(self, max_n: int) -> list[Packet]:
        """Non-blocking poll: up to ``max_n`` frames already waiting.

        The RX thread blocks for the first frame of a burst, then sweeps
        whatever else has accumulated in the descriptor ring — DPDK's
        ``rte_eth_rx_burst`` shape.
        """
        frames: list[Packet] = []
        while len(frames) < max_n:
            packet = self.ingress.try_get()
            if packet is None:
                break
            frames.append(packet)
        return frames


#: Sentinel for "this annotation key was absent at fan-out time".
_UNSET = object()

#: Header fields the merge journal may snapshot and re-apply; five-tuple
#: fields are excluded by construction — rewriting the flow key mid-group
#: would change what lookups and balancers see.
_MERGEABLE_FIELDS = ("dscp", "ttl", "payload")


def _read_merge_field(packet: Packet, field: str):
    if field == "payload":
        return packet.payload
    return getattr(packet.ip, field)


def _write_merge_field(packet: Packet, field: str, value) -> None:
    if field == "payload":
        packet.payload = value
        return
    ip = packet.ip
    if getattr(ip, field) != value:
        packet.ip = dataclasses.replace(ip, **{field: value})


class _ParallelGroup:
    """Bookkeeping for one packet fanned out to parallel member VMs.

    Groups of a chain admitted on its VMs' read-only bit carry no
    ``write_plan``: the packet is shared unchanged.  Profile-driven groups
    additionally run the *merge stage*: at fan-out the group snapshots
    every field and annotation key any member is allowed to write; as
    each member's handler returns, the VM loop calls :meth:`capture`,
    journaling the fields that member actually changed; the finalizer
    calls :meth:`apply`, replaying the journal in graph order so the
    merged packet's state is deterministic — last graph-order writer
    wins — regardless of the members' execution interleaving.
    """

    def __init__(self, expected: int, exit_scope: str,
                 write_plan: typing.Mapping[
                     str, tuple[tuple[str, ...], tuple[str, ...]]]
                 | None = None,
                 packet: Packet | None = None) -> None:
        self.expected = expected
        self.exit_scope = exit_scope
        self.verdicts: list[tuple[int, Verdict]] = []
        #: TX ring of the last member dispatched (the exit member's,
        #: unless the fan-out lost it); a lost last straggler's packet
        #: goes there to be merged.
        self.tx_queue: RingBuffer | None = None
        self.write_plan = write_plan
        self._field_snapshot: dict[str, typing.Any] = {}
        self._ann_snapshot: dict[str, typing.Any] = {}
        #: (group_index, kind, name, value) records; kind is "field"/"ann".
        self._journal: list[tuple[int, str, str, typing.Any]] = []
        if write_plan is not None and packet is not None:
            for fields, keys in write_plan.values():
                for field in fields:
                    if field not in self._field_snapshot:
                        self._field_snapshot[field] = (
                            _read_merge_field(packet, field))
                for key in keys:
                    if key not in self._ann_snapshot:
                        self._ann_snapshot[key] = (
                            packet.annotations.get(key, _UNSET))

    def member_done(self, descriptor: PacketDescriptor) -> bool:
        """Record one member's verdict; True when the group is complete."""
        assert descriptor.verdict is not None
        self.verdicts.append((descriptor.vm_priority, descriptor.verdict))
        return len(self.verdicts) >= self.expected

    def member_lost(self) -> bool:
        """A member was dropped before reaching its VM."""
        self.expected -= 1
        return self.expected > 0 and len(self.verdicts) >= self.expected

    def capture(self, service_id: str, group_index: int,
                packet: Packet) -> None:
        """Journal the writes one member just made to the shared packet.

        Called by the VM loop in the same event as the handler, so the
        values read here are exactly what this member left behind.  Only
        fields in the member's declared write set are examined, and only
        values differing from the fan-out snapshot are journaled — a
        member that declared a write but didn't perform it contributes
        nothing (it must not mask an earlier graph-order writer).
        """
        if self.write_plan is None:
            return
        plan = self.write_plan.get(service_id)
        if plan is None:
            return
        fields, keys = plan
        for field in fields:
            value = _read_merge_field(packet, field)
            if value != self._field_snapshot.get(field, _UNSET):
                self._journal.append((group_index, "field", field, value))
        for key in keys:
            value = packet.annotations.get(key, _UNSET)
            if value != self._ann_snapshot.get(key, _UNSET):
                self._journal.append((group_index, "ann", key, value))

    def apply(self, packet: Packet) -> None:
        """Replay the journal in graph order (ascending group index)."""
        if not self._journal:
            return
        for _index, kind, name, value in sorted(
                self._journal, key=lambda record: record[0]):
            if kind == "field":
                _write_merge_field(packet, name, value)
            elif value is _UNSET:
                packet.annotations.pop(name, None)
            else:
                packet.annotations[name] = value


class NfManager:
    """The data plane manager for one SDNFV host."""

    def __init__(self, sim: Simulator, name: str = "host0",
                 costs: HostCosts | None = None,
                 controller: ControlPlane | None = None,
                 tx_threads: int = 2,
                 load_balance: LoadBalancePolicy = (
                     LoadBalancePolicy.LEAST_QUEUE),
                 conflict_policy: str = "action_priority",
                 lookup_cache: bool = True,
                 streams: RandomStreams | None = None,
                 control_policy: ControlPlanePolicy | None = None,
                 miss_fallback: Destination | None = None,
                 burst_size: int = DEFAULT_BURST_SIZE) -> None:
        if tx_threads < 1:
            raise ValueError("need at least one TX thread")
        if burst_size < 1:
            raise ValueError("burst size must be at least 1")
        self.sim = sim
        self.name = name
        self.costs = costs or HostCosts()
        # How many descriptors each RX poll / VM poll / TX drain moves at
        # once (§4.1's DPDK burst model).  1 degenerates to the strict
        # one-descriptor-per-event pipeline.
        self.burst_size = burst_size
        self.controller = controller
        self.conflict_policy = conflict_policy
        self.lookup_cache = lookup_cache
        # Control-plane hardening: None makes one flow request that waits
        # as long as the controller takes; a policy adds a deadline per
        # attempt, retries with backoff and a bounded attempt budget.
        self.control_policy = control_policy
        # Where flows go when the control plane cannot answer: None drops
        # them; a Destination (typically the exit port — the service
        # graph's outermost default edge) forwards them unprocessed.
        self.miss_fallback = miss_fallback
        self.streams = streams or RandomStreams(seed=0)
        self.flow_table = FlowTable()
        self.stats = HostStats()
        # The host's rte_mempool analogue: packet generators and sinks
        # allocate/reclaim buffers through it.
        self.packet_pool = PacketPool(stats=self.stats)
        self.ports: dict[str, NicPort] = {}
        # Per-manager VM id mint (see NfVm.__init__): local registration
        # order, never global creation order, names a VM.
        self._vm_ids = itertools.count()
        self.vms_by_service: dict[str, list[NfVm]] = {}
        self._balancers: dict[str, ServiceLoadBalancer] = {}
        self._lb_policy = load_balance
        self._tx_queues = [RingBuffer(sim, name=f"{name}/tx{i}", slots=4096)
                           for i in range(tx_threads)]
        self._vm_tx_assignment: dict[str, RingBuffer] = {}
        self._next_tx = 0
        self._groups: dict[int, _ParallelGroup] = {}
        self._parallel_chains: dict[str, list[str]] = {}
        # What admitted each chain, keyed like the chains (first member):
        # its members' profiles, or None for a chain admitted on the VMs'
        # declared read-only bit.  A VM that joins a chain later is held
        # to the same test.
        self._chain_profiles: dict[str, dict[str, typing.Any] | None] = {}
        # Merge plans for profile-driven chains, keyed like the chains
        # (first member): service -> (mergeable fields, annotation keys)
        # that member may write.  Absent for legacy read-only chains.
        self._chain_merge_plans: dict[
            str, dict[str, tuple[tuple[str, ...], tuple[str, ...]]]] = {}
        # §4.2's lookup cache: flow -> {scope: entry}, holding only plans
        # from table generation ``_plans_generation``; the first lookup
        # after a table change empties it.
        self._plans: dict[FiveTuple, dict[str, FlowTableEntry]] = {}
        self._plans_generation = 0
        # Miss classifier (§4.1 hybrid pipeline): flows whose first
        # contact with this host has been classified as proactive-hit /
        # reactive-hit / reactive-miss.  A dict used as an insertion-
        # ordered set so eviction matches the plan cache's FIFO idiom.
        self._classified: dict[FiveTuple, None] = {}
        self._fc_queue = Store(sim)
        self._pending_flows: dict[tuple[str, FiveTuple],
                                  list[PacketDescriptor]] = {}
        self._mgmt_queue = Store(sim)
        # The SDNFV Application when NFs are untrusted: its ``validate``
        # returns a verdict at once, and the management loop charges its
        # ``validation_latency_ns``.
        self.policy_validator: typing.Any | None = None
        self.message_handlers: dict[
            str, typing.Callable[[UserMessage], None]] = {}
        # Where UserMessages without a local handler go — the SDNFV
        # Application attaches itself here (Fig. 2 step 5).
        self.user_message_sink: typing.Callable[
            [str, UserMessage], None] | None = None
        self.uninterpreted_messages: list[UserMessage] = []
        self.rejected_messages = 0
        # Optional structured observability (repro.metrics.eventlog).
        self.event_log: typing.Any | None = None
        for queue in self._tx_queues:
            sim.process(self._tx_loop(queue))
        sim.process(self._fc_loop())
        sim.process(self._mgmt_loop())

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_port(self, name: str, line_rate_gbps: float = 10.0) -> NicPort:
        """Attach a NIC port and start its RX thread."""
        if name in self.ports:
            raise ValueError(f"duplicate port {name!r}")
        port = NicPort(self.sim, name, line_rate_gbps, stats=self.stats)
        self.ports[name] = port
        self.sim.process(self._rx_loop(port))
        return port

    def register_vm(self, nf: NetworkFunction, ring_slots: int = 512,
                    priority: int = 0) -> NfVm:
        """The §3.3 handshake: a VM advertises its Service ID (and whether
        it is read-only) and gets its communication channels set up."""
        vm = NfVm(self, nf, ring_slots=ring_slots, priority=priority)
        self._check_parallel_membership(vm)
        self.vms_by_service.setdefault(vm.service_id, []).append(vm)
        self._balancers.setdefault(vm.service_id,
                                   ServiceLoadBalancer(self._lb_policy))
        self._vm_tx_assignment[vm.vm_id] = (
            self._tx_queues[self._next_tx % len(self._tx_queues)])
        self._next_tx += 1
        vm.start()
        if self.event_log is not None:
            self.event_log.record("vm_register", host=self.name,
                                  service=vm.service_id, vm=vm.vm_id,
                                  read_only=vm.read_only)
        return vm

    def unregister_vm(self, vm: NfVm) -> None:
        """Remove a VM from load balancing (it stops receiving packets)."""
        replicas = self.vms_by_service.get(vm.service_id, [])
        if vm in replicas:
            replicas.remove(vm)

    # ------------------------------------------------------------------
    # Failure handling (§3.1: "respond to failure or overload")
    # ------------------------------------------------------------------
    def fail_vm(self, vm: NfVm, cause: str = "crash") -> dict[str, int]:
        """Take a dead or wedged VM out of service and salvage its queue.

        The VM is unregistered, its thread killed (idempotent), and every
        descriptor still in its RX ring is re-dispatched: to a surviving
        replica when one exists, else along the dead service's own default
        edge (graceful degradation), else dropped with a count.  Returns
        the salvage accounting.
        """
        service = vm.service_id
        self.unregister_vm(vm)
        # Salvage order matters: the batch the VM already dequeued (but
        # had not processed) is older than anything still in its ring.
        drained = vm.take_pending_batch() + vm.rx_ring.drain()
        vm.crash(cause)
        self.stats.failed_vms += 1
        survivors = self.vms_by_service.get(service, ())
        requeued = degraded = lost = 0
        for descriptor in drained:
            if survivors:
                self.stats.requeued_packets += 1
                requeued += 1
                self._route(descriptor, ToService(service))
            elif self._bypass_dead_service(descriptor, service):
                degraded += 1
            else:
                lost += 1
                self._drop(descriptor, "dropped_no_vm")
        if self.event_log is not None:
            self.event_log.record("nf_failure", host=self.name,
                                  service=service, vm=vm.vm_id, cause=cause,
                                  requeued=requeued, degraded=degraded,
                                  lost=lost)
        return {"requeued": requeued, "degraded": degraded, "lost": lost}

    def _bypass_dead_service(self, descriptor: PacketDescriptor,
                             service: str) -> bool:
        """Route a descriptor as if ``service`` had returned Default —
        the service graph's default edge is the fallback path."""
        entry = self.flow_table.lookup(service, descriptor.packet.flow,
                                       now_ns=self.sim.now)
        if entry is None or entry.default_action == ToService(service):
            return False
        self.stats.degraded_packets += 1
        descriptor.scope = service
        self._route(descriptor, entry.default_action)
        return True

    def quarantine_service(self, service: str
                           ) -> list[FlowTableEntry] | None:
        """Reroute traffic around a service with no live VMs.

        This is ``SkipMe`` over every flow: each rule whose *default*
        leads to ``service`` is rewritten to the service's own default
        edge, so flows degrade gracefully instead of blackholing while a
        replacement boots.  Returns the displaced rules so
        :meth:`restore_service` can reinstate them — entries pointing at
        the dead service are rewritten, not leaked.
        """
        displaced = self._apply_skip_me(
            SkipMe(sender_service=service, service=service))
        if displaced is not None and self.event_log is not None:
            self.event_log.record(
                "service_quarantined", host=self.name, service=service,
                rewritten=len(displaced),
                fallback=str(self._scope_default(service, FlowMatch.any())))
        return displaced

    def restore_service(self, service: str,
                        displaced: typing.Iterable[FlowTableEntry]) -> None:
        """Reinstate rules displaced by :meth:`quarantine_service` once a
        replacement VM is serving again."""
        count = 0
        for entry in displaced:
            self.install_rule(entry)
            count += 1
        if self.event_log is not None:
            self.event_log.record("service_restored", host=self.name,
                                  service=service, reinstated=count)

    def install_rule(self, entry: FlowTableEntry) -> None:
        """Install a flow rule."""
        entry.installed_at_ns = self.sim.now
        entry.last_hit_ns = self.sim.now
        self.flow_table.install(entry)
        if self.event_log is not None:
            self.event_log.record("rule_install", host=self.name,
                                  scope=entry.scope,
                                  default=str(entry.default_action))

    def start_rule_expiry(self, interval_ns: int) -> None:
        """Periodically evict rules whose idle/hard timeouts elapsed.

        Keeps per-flow rule state bounded under flow churn (the concern
        behind §3.4's discussion of pre-populated wildcard rules and
        flow-table size).
        """
        if interval_ns <= 0:
            raise ValueError("expiry interval must be positive")
        self.sim.process(self._expiry_loop(interval_ns))

    def _expiry_loop(self, interval_ns: int):
        while True:
            yield self.sim.sleep(interval_ns)
            self.flow_table.expire(self.sim.now)

    def register_parallel_chain(
            self, services: typing.Sequence[str],
            profiles: typing.Mapping[str, typing.Any] | None = None,
    ) -> None:
        """Fuse a run of adjacent services into a parallel group.

        §3.3: when an NF registers as read-only, the manager "uses this
        information to determine if the service can be run in parallel with
        any adjacent NFs in the service graph".  After registration, any
        packet routed to ``services[0]`` is fanned out to every member at
        once; the merged verdict continues from the last member's rules.

        Without ``profiles`` (the legacy path) every member's VM must be
        declared read-only, and so must any VM that registers for a member
        later.  With ``profiles`` — a mapping of service id to its
        :class:`~repro.analysis.profiles.ActionProfile` — members may
        *write* as long as the profiles are pairwise conflict-free (this
        is what ``SdnfvApp.deploy`` registers with ``auto_parallel``);
        the group then runs the merge stage, journaling each member's
        writes and replaying them in graph order at finalization.
        Conflicting profiles are rejected here at registration, the same
        condition lint rule NF003 flags statically.
        """
        if len(services) < 2:
            raise ValueError("a parallel chain needs >= 2 services")
        if profiles is None:
            for service_id in services:
                for vm in self.vms_by_service.get(service_id, ()):
                    if not vm.read_only:
                        raise ValueError(
                            f"service {service_id!r} has a non-read-only "
                            "VM; cannot run in parallel")
            self._parallel_chains[services[0]] = list(services)
            self._chain_profiles[services[0]] = None
            return
        # Off the packet path: validate with the analysis package (the
        # data plane itself stays analysis-free; see host.py's verifier
        # import for the same pattern).
        from repro.analysis.profiles import chain_conflicts
        missing = [service for service in services
                   if service not in profiles]
        if missing:
            raise ValueError(f"no action profile for {missing!r}")
        ordered = [profiles[service] for service in services]
        issues = chain_conflicts(ordered)
        if issues:
            raise ValueError(
                f"parallel chain {list(services)!r} has conflicting "
                f"profiles: {'; '.join(issues)}")
        plan = {
            service: (
                tuple(field for field in _MERGEABLE_FIELDS
                      if field in profile.writes),
                tuple(sorted(profile.annotations_written)),
            )
            for service, profile in zip(services, ordered)
        }
        self._parallel_chains[services[0]] = list(services)
        self._chain_profiles[services[0]] = dict(zip(services, ordered))
        if any(fields or keys for fields, keys in plan.values()):
            self._chain_merge_plans[services[0]] = plan

    def set_load_balance_policy(self, policy: LoadBalancePolicy) -> None:
        self._lb_policy = policy
        for balancer in self._balancers.values():
            balancer.policy = policy

    def _check_parallel_membership(self, vm: NfVm) -> None:
        """A VM joining a chain passes the test that admitted the chain:
        it must be read-only itself if the chain was admitted on the
        declared bit, and its own profile must not conflict with the
        other members' admitted profiles if it was admitted on those."""
        for head, members in self._parallel_chains.items():
            if vm.service_id not in members:
                continue
            admitted = self._chain_profiles[head]
            if admitted is None:
                if not vm.read_only:
                    raise ValueError(
                        f"service {vm.service_id!r} is in parallel chain "
                        f"{members!r} but the registering VM is not "
                        "read-only")
                continue
            # Only here does a registration need the analysis package.
            from repro.analysis.profiles import chain_conflicts, profile_of
            issues = chain_conflicts([
                profile_of(type(vm.nf)) if service == vm.service_id
                else admitted[service] for service in members])
            if issues:
                raise ValueError(
                    f"parallel chain {members!r} has conflicting "
                    f"profiles: {'; '.join(issues)}")

    # ------------------------------------------------------------------
    # Introspection (host-tier state for the hierarchy)
    # ------------------------------------------------------------------
    def service_queue_depths(self) -> dict[str, int]:
        """Occupied ring slots per service (host-specific internal state)."""
        return {service: sum(vm.rx_ring.occupancy for vm in vms)
                for service, vms in self.vms_by_service.items()}

    def start_overload_monitor(
            self, interval_ns: int, threshold_slots: int,
            callback: typing.Callable[[str, int], None],
            consecutive: int = 3) -> None:
        """Watch per-service queue depths and report sustained overload.

        §3.1: NF Managers "track load levels of NFs for load balancing
        and respond to failure or overload".  When a service's total ring
        occupancy stays above ``threshold_slots`` for ``consecutive``
        samples, ``callback(service_id, depth)`` fires once; it re-arms
        after the service drains below half the threshold.
        """
        if interval_ns <= 0 or threshold_slots <= 0 or consecutive <= 0:
            raise ValueError("monitor parameters must be positive")
        self.sim.process(self._overload_loop(
            interval_ns, threshold_slots, callback, consecutive))

    def _overload_loop(self, interval_ns, threshold_slots, callback,
                       consecutive):
        breaches: dict[str, int] = {}
        alarmed: set[str] = set()
        while True:
            yield self.sim.sleep(interval_ns)
            for service, depth in self.service_queue_depths().items():
                if depth > threshold_slots:
                    breaches[service] = breaches.get(service, 0) + 1
                    if (breaches[service] >= consecutive
                            and service not in alarmed):
                        alarmed.add(service)
                        callback(service, depth)
                else:
                    breaches[service] = 0
                    if depth < threshold_slots // 2:
                        alarmed.discard(service)

    def services(self) -> list[str]:
        return list(self.vms_by_service)

    # ------------------------------------------------------------------
    # RX path
    # ------------------------------------------------------------------
    def _rx_loop(self, port: NicPort):
        """One RX thread: burst-poll the NIC ring, classify, dispatch.

        The thread blocks for the first frame, sweeps up to
        ``burst_size - 1`` more that already arrived, then moves the
        whole burst through classify → dispatch with one thread-occupancy
        charge, resolving the flow-table lookup plan once per (flow,
        burst): a burst has one scope, the port, so later packets of a
        flow reuse its entry for free.  At ``burst_size=1`` the event
        sequence is exactly the pre-burst one-descriptor-per-event
        pipeline.
        """
        sim = self.sim
        stats = self.stats
        costs = self.costs
        ingress = port.ingress
        scope = port.name
        classify = self._classify
        while True:
            packet: Packet = yield ingress.get()
            frames = [packet]
            burst = self.burst_size
            if burst > 1 and ingress.items:
                frames.extend(port.rx_burst(burst - 1))
            stats.record_rx_batch(len(frames))
            now = sim.now
            burst_plans: dict[FiveTuple, FlowTableEntry | None] = {}
            work = costs.rx_service_ns * len(frames)
            classified: list[tuple[PacketDescriptor,
                                   FlowTableEntry | None]] = []
            for frame in frames:
                stats.record_rx(frame.size)
                descriptor = PacketDescriptor(frame, scope, now)
                flow = frame.flow
                if flow in burst_plans:
                    entry = burst_plans[flow]
                else:
                    entry, lookup_cost = classify(scope, flow)
                    burst_plans[flow] = entry
                    work += lookup_cost
                classified.append((descriptor, entry))
            yield sim.sleep(work)
            extra = 0
            for descriptor, entry in classified:
                if entry is None:
                    self._fc_queue.try_put(descriptor)
                else:
                    extra += self._route(descriptor, entry.actions[0])
            if extra:
                yield sim.sleep(extra)

    def _classify(self, scope: str, flow: FiveTuple
                  ) -> tuple[FlowTableEntry | None, int]:
        """Find the rule for ``flow`` in ``scope``.

        Returns (entry, service_cost_ns).  With the lookup cache enabled
        (§4.2), hits on the per-flow plan are free; otherwise each hop
        pays header extraction + a hash lookup.  A plan maps scope ->
        entry, and the cache holds only plans made at the table's current
        generation: the first call after a table change empties it.
        """
        plans = self._plans
        plan = None
        if self.lookup_cache:
            generation = self.flow_table.generation
            if generation != self._plans_generation:
                plans.clear()
                self._plans_generation = generation
            else:
                plan = plans.get(flow)
                if plan is not None:
                    cached = plan.get(scope)
                    if cached is not None:
                        return cached, 0
        costs = self.costs
        cost = costs.header_extract_ns + costs.flow_lookup_ns
        entry = self.flow_table.lookup(scope, flow, now_ns=self.sim.now)
        if entry is not None:
            if flow not in self._classified:
                self._classify_first_contact(flow, entry)
            if self.lookup_cache:
                if plan is None:
                    if len(plans) >= _PLAN_CACHE_LIMIT:
                        plans.pop(next(iter(plans)))
                    plans[flow] = {scope: entry}
                else:
                    plan[scope] = entry
        return entry, cost

    def _classify_first_contact(self, flow: FiveTuple,
                                entry: FlowTableEntry | None) -> None:
        """Classify a flow's first contact with this host exactly once:
        it either hit a pre-populated rule (proactive), hit a rule an
        earlier miss pulled in (reactive hit), or missed and took the
        controller slow path (reactive miss).  The reactive-miss-rate
        metric is ``reactive_misses / flow_setups`` over these three."""
        if len(self._classified) >= _PLAN_CACHE_LIMIT:
            self._classified.pop(next(iter(self._classified)))
        self._classified[flow] = None
        if entry is None:
            self.stats.reactive_misses += 1
        elif entry.proactive:
            self.stats.proactive_hits += 1
        else:
            self.stats.reactive_hits += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _route(self, descriptor: PacketDescriptor,
               destination: Destination) -> int:
        """Dispatch a descriptor to ``destination``: a service (fanned
        out when it heads a registered parallel chain), a port or a drop.

        Returns the extra service cost (fan-out copies, queue scans) the
        calling thread must charge.
        """
        # Most hops are service hops, so that test comes first.
        if isinstance(destination, ToService):
            service_id = destination.service_id
            if self._parallel_chains and descriptor.group_id is None:
                chain = self._parallel_chains.get(service_id)
                if chain is not None:
                    return self._fan_out_members(
                        descriptor, chain,
                        plan=self._chain_merge_plans.get(service_id))
            return self._enqueue(descriptor, service_id)[1]
        if isinstance(destination, ToPort):
            self._egress(descriptor, destination.port)
            return 0
        assert isinstance(destination, Drop)
        self._drop(descriptor, "dropped_by_nf")
        return 0

    def _enqueue(self, descriptor: PacketDescriptor,
                 service_id: str) -> tuple[NfVm | None, int]:
        """Put a descriptor on the RX ring of a replica the service's
        balancer picks.

        Returns (that VM, the balancer's scan cost); the VM is None when
        the service has no replica or the ring is full, and the
        descriptor was dropped.
        """
        replicas = self.vms_by_service.get(service_id, ())
        if not replicas:
            self._drop(descriptor, "dropped_no_vm")
            return None, 0
        vm, scan_cost = self._balancers[service_id].choose(
            replicas, descriptor.packet.flow)
        self.stats.record_service(service_id)
        if not vm.rx_ring.try_enqueue(descriptor):
            self._drop(descriptor, "dropped_ring_full")
            return None, scan_cost
        return vm, scan_cost

    def _fan_out_members(self, descriptor: PacketDescriptor,
                         members: typing.Sequence[str],
                         plan: typing.Mapping[
                             str, tuple[tuple[str, ...], tuple[str, ...]]]
                         | None = None) -> int:
        group_id = next(_group_ids)
        group = _ParallelGroup(expected=len(members),
                               exit_scope=members[-1],
                               write_plan=plan, packet=descriptor.packet)
        self._groups[group_id] = group
        self.stats.parallel_groups += 1
        packet = descriptor.packet
        packet.add_reference(len(members) - 1)
        cost = self.costs.parallel_fanout_ns * (len(members) - 1)
        # The template descriptor's reference now lives in the members.
        # No member has a verdict yet, so a lost one never completes the
        # group; losing the last deletes it.
        for index, service_id in enumerate(members):
            member = PacketDescriptor(packet, service_id,
                                      descriptor.ingress_at, None, group_id,
                                      index)
            vm, scan_cost = self._enqueue(member, service_id)
            cost += scan_cost
            if vm is not None:
                group.tx_queue = self._vm_tx_assignment[vm.vm_id]
        return cost

    # ------------------------------------------------------------------
    # TX path
    # ------------------------------------------------------------------
    def tx_submit_burst(self, descriptors: typing.Sequence[PacketDescriptor],
                        vm: NfVm) -> None:
        """Hand a VM's completed batch to its TX thread in one shot."""
        queue = self._vm_tx_assignment[vm.vm_id]
        accepted = queue.enqueue_burst(descriptors)
        for descriptor in descriptors[accepted:]:
            self._drop(descriptor, "dropped_ring_full")

    def _tx_loop(self, queue: RingBuffer):
        """One TX thread: burst-drain completed descriptors, resolve.

        Mirrors the RX side: block for the head descriptor, sweep the
        rest of the burst, absorb parallel-group members and classify
        the survivors at once (one table lookup per (scope, flow) in the
        burst), then charge drain + merge + lookups in one sleep before
        routing.  ``burst_size=1`` moves one descriptor per wake.
        """
        sim = self.sim
        stats = self.stats
        costs = self.costs
        classify = self._classify
        while True:
            head: PacketDescriptor = yield queue.get()
            batch = [head]
            burst = self.burst_size
            if burst > 1 and queue.items:
                batch.extend(queue.dequeue_burst(burst - 1))
            stats.record_tx_batch(len(batch))
            work = costs.tx_service_ns * len(batch)
            burst_plans: dict[tuple[str, FiveTuple],
                              FlowTableEntry | None] = {}
            resolved: list[tuple[PacketDescriptor,
                                 FlowTableEntry | None]] = []
            for descriptor in batch:
                if descriptor.group_id is not None:
                    merged = self._absorb_group_member(descriptor)
                    if merged is None:
                        continue
                    descriptor, member_count = merged
                    work += costs.parallel_merge_ns * (member_count - 1)
                assert descriptor.verdict is not None
                key = (descriptor.scope, descriptor.packet.flow)
                if key in burst_plans:
                    entry = burst_plans[key]
                else:
                    entry, lookup_cost = classify(*key)
                    burst_plans[key] = entry
                    work += lookup_cost
                resolved.append((descriptor, entry))
            yield sim.sleep(work)
            extra = 0
            for descriptor, entry in resolved:
                if (entry is not None
                        and descriptor.verdict.kind is NfVerdict.DEFAULT):
                    extra += self._route(descriptor, entry.actions[0])
                else:
                    extra += self._resolve_verdict(descriptor, entry)
            if extra:
                yield sim.sleep(extra)

    def _capture_group_writes(self, descriptor: PacketDescriptor) -> None:
        """Journal a parallel member's packet writes (merge stage).

        Called by the VM loop in the same event as the member's handler,
        immediately after it returns.  No-op for legacy groups (no write
        plan) and for members whose profile declares no writes.
        """
        group = self._groups.get(descriptor.group_id)
        if group is not None and group.write_plan is not None:
            group.capture(descriptor.scope, descriptor.group_index,
                          descriptor.packet)

    def _absorb_group_member(
            self, descriptor: PacketDescriptor
    ) -> tuple[PacketDescriptor, int] | None:
        """Fold one parallel member in; emit the merged descriptor when all
        members have reported.  A member without a verdict is a lost last
        straggler's packet reference (see :meth:`_group_member_lost`):
        its group is already complete and merges at once."""
        group = self._groups.get(descriptor.group_id)
        if group is None:  # group finalized by member loss accounting
            self._release(descriptor.packet)
            return None
        if descriptor.verdict is not None and not group.member_done(
                descriptor):
            self._release(descriptor.packet)
            return None
        return self._merge_group(group, descriptor), len(group.verdicts)

    def _merge_group(self, group: _ParallelGroup,
                     descriptor: PacketDescriptor) -> PacketDescriptor:
        """Finalize a completed group: apply the journaled writes to the
        packet ``descriptor`` carries and return a fresh descriptor at the
        group's exit scope holding the resolved verdict."""
        del self._groups[descriptor.group_id]
        group.apply(descriptor.packet)
        verdict = resolve_parallel_verdicts(group.verdicts,
                                            policy=self.conflict_policy)
        return PacketDescriptor(descriptor.packet, group.exit_scope,
                                descriptor.ingress_at, verdict)

    def _group_member_lost(self, descriptor: PacketDescriptor) -> bool:
        """Account for a parallel-group member dying after dispatch.

        Every post-dispatch loss path (TX ring overflow, a drop verdict,
        a VM crash with the member in flight) must run group bookkeeping,
        or the group can never complete: its ``_groups`` entry leaks and
        — worse — the surviving members' verdicts are thrown away even
        though their NFs processed the packet successfully.

        When the lost member was the *last* straggler (every survivor
        already reported), the group is complete.  The lost member's
        packet reference then goes, in a verdict-less descriptor, to the
        TX ring of the group's exit member, whose thread merges it and
        pays TX service and the lookup as for any completed group.  By
        this point the survivors have all dropped their references, so
        releasing this one instead would hand the merge a reclaimed
        buffer.  Returns True exactly when that reference was consumed;
        the caller must then skip its own release.  When that ring is
        full, the group ends as a ``dropped_ring_full`` drop.
        """
        group_id = descriptor.group_id
        if group_id is None:
            return False
        group = self._groups.get(group_id)
        if group is None:
            return False
        if group.member_lost():
            straggler = PacketDescriptor(descriptor.packet, descriptor.scope,
                                         descriptor.ingress_at, None,
                                         group_id)
            assert group.tx_queue is not None
            if group.tx_queue.try_enqueue(straggler):
                return True
            del self._groups[group_id]
            self.stats.dropped_ring_full += 1
            return False
        if group.expected <= 0:
            # Every member died before any verdict: nothing to merge.
            del self._groups[group_id]
        return False

    def _resolve_verdict(self, descriptor: PacketDescriptor,
                         entry: FlowTableEntry | None) -> int:
        """Route a descriptor by its NF's verdict under ``entry``; one
        with no verdict yet (a packet that missed on ingress) follows the
        Default."""
        verdict = descriptor.verdict
        if verdict is not None and verdict.kind is NfVerdict.DISCARD:
            self._drop(descriptor, "dropped_by_nf")
            return 0
        if entry is None:
            # Mid-chain miss: ask the control plane like any other miss.
            self._fc_queue.try_put(descriptor)
            return 0
        if verdict is not None and verdict.kind is NfVerdict.SEND:
            destination = verdict.destination
            assert destination is not None
            if not entry.allows(destination):
                # §3.4: Send-to "is only permitted if the destination is one
                # of the allowable next hops listed in the flow table".
                self.stats.policy_violations += 1
                destination = entry.default_action
            return self._route(descriptor, destination)
        return self._route(descriptor, entry.default_action)

    # ------------------------------------------------------------------
    # Flow Controller thread (SDN miss path, §4.1)
    # ------------------------------------------------------------------
    def _fc_loop(self):
        while True:
            descriptor: PacketDescriptor = yield self._fc_queue.get()
            key = (descriptor.scope, descriptor.packet.flow)
            if key in self._pending_flows:
                self._pending_flows[key].append(descriptor)
                continue
            self._pending_flows[key] = [descriptor]
            if descriptor.packet.flow not in self._classified:
                self._classify_first_contact(descriptor.packet.flow, None)
            self.stats.sdn_requests += 1
            if self.event_log is not None:
                self.event_log.record("sdn_request", host=self.name,
                                      scope=descriptor.scope,
                                      flow=str(descriptor.packet.flow))
            # Resolve each flow in its own process so one slow controller
            # round trip doesn't head-of-line-block other misses.
            self.sim.process(self._resolve_miss(key))

    def _resolve_miss(self, key: tuple[str, FiveTuple]):
        scope, flow = key
        if self.controller is None:
            for descriptor in self._pending_flows.pop(key):
                self._drop(descriptor, "dropped_no_rule")
            return
        rules = yield from self._request_rules(scope, flow)
        if rules is None:
            # Control plane unreachable (or its app failed the request):
            # degrade instead of blocking — the data plane stays alive.
            self._degrade_pending(key)
            return
        for rule in rules:
            self.install_rule(rule)
        buffered = self._pending_flows.pop(key)
        for descriptor in buffered:
            entry, _cost = self._classify(descriptor.scope,
                                          descriptor.packet.flow)
            if entry is None:
                self._drop(descriptor, "dropped_no_rule")
            else:
                self._resolve_verdict(descriptor, entry)

    def _request_rules(self, scope: str, flow: FiveTuple):
        """Ask the controller for rules; None means giving up.

        Without a :class:`ControlPlanePolicy` this is one request that
        waits as long as the controller takes.  With one, a bare timer
        fails each attempt's reply that is still pending ``timeout_ns``
        later, and a failed attempt is retried with capped exponential
        backoff up to ``max_attempts`` tries.
        """
        policy = self.control_policy
        attempts = 1 if policy is None else policy.max_attempts
        for attempt in range(attempts):
            reply = self.controller.flow_request(self.name, scope, flow)
            if policy is not None:
                self.sim.call_later(policy.timeout_ns, _expire, reply)
            try:
                rules = yield reply
            except _RequestTimeout:
                self.stats.sdn_timeouts += 1
                if self.event_log is not None:
                    self.event_log.record("sdn_timeout", host=self.name,
                                          scope=scope, attempt=attempt)
            except Exception:  # noqa: BLE001 - controller fault isolation
                pass
            else:
                return list(rules or ())
            if attempt + 1 < attempts:
                self.stats.sdn_retries += 1
                yield self.sim.sleep(policy.backoff_ns(attempt))
        if policy is not None and self.event_log is not None:
            self.event_log.record("controller_unreachable", host=self.name,
                                  scope=scope, attempts=attempts)
        return None

    def _degrade_pending(self, key: tuple[str, FiveTuple]) -> None:
        """Release a miss queue without rules: fallback-forward or drop."""
        buffered = self._pending_flows.pop(key)
        self.stats.miss_fallbacks += 1
        if self.miss_fallback is not None:
            for descriptor in buffered:
                self.stats.degraded_packets += 1
                self._route(descriptor, self.miss_fallback)
        else:
            for descriptor in buffered:
                self._drop(descriptor, "dropped_no_rule")
        if self.event_log is not None:
            self.event_log.record(
                "miss_degraded", host=self.name, scope=key[0],
                packets=len(buffered),
                fallback=str(self.miss_fallback) if self.miss_fallback
                else "drop")

    # ------------------------------------------------------------------
    # Cross-layer messages (§3.4)
    # ------------------------------------------------------------------
    def submit_nf_message(self, message: NfMessage) -> None:
        """Entry point for NFs (via NfContext): queue a message."""
        self._mgmt_queue.try_put(message)

    def _mgmt_loop(self):
        while True:
            message: NfMessage = yield self._mgmt_queue.get()
            validator = self.policy_validator
            if validator is not None:
                approved = validator.validate(self.name, message)
                if validator.validation_latency_ns:
                    yield self.sim.sleep(validator.validation_latency_ns)
                if not approved:
                    self.rejected_messages += 1
                    if self.event_log is not None:
                        self.event_log.record(
                            "message_rejected", host=self.name,
                            kind=type(message).__name__,
                            sender=message.sender_service)
                    continue
            if self.event_log is not None:
                self.event_log.record("message_applied", host=self.name,
                                      kind=type(message).__name__,
                                      sender=message.sender_service)
            self.apply_message(message)

    def apply_message(self, message: NfMessage) -> None:
        """Apply an (already validated) cross-layer message to the table."""
        if isinstance(message, ChangeDefault):
            self._rewrite((message.service,), message.flows,
                          parse_target(message.target))
        elif isinstance(message, SkipMe):
            self._apply_skip_me(message)
        elif isinstance(message, RequestMe):
            self._apply_request_me(message)
        elif isinstance(message, UserMessage):
            handler = self.message_handlers.get(message.sender_service)
            if handler is not None:
                handler(message)
            elif self.user_message_sink is not None:
                self.user_message_sink(self.name, message)
            else:
                self.uninterpreted_messages.append(message)
        else:
            raise TypeError(f"unknown message type {type(message).__name__}")

    def _apply_skip_me(self, message: SkipMe
                       ) -> list[FlowTableEntry] | None:
        """Rewire the rules defaulting to S to S's own default for F.
        Returns the rules rewritten, or None when S has no default for F
        or defaults to itself."""
        bypass = ToService(message.service)
        bypass_default = self._scope_default(message.service, message.flows)
        if bypass_default is None or bypass_default == bypass:
            return None
        return self._rewrite(
            self._other_scopes(message.service), message.flows,
            bypass_default, lambda entry: entry.default_action == bypass)

    def _apply_request_me(self, message: RequestMe) -> None:
        """Rewrite every rule (including per-flow specializations) that has
        an edge to the requesting service so it becomes the default."""
        wanted = ToService(message.service)
        self._rewrite(self._other_scopes(message.service), message.flows,
                      wanted, lambda entry: (wanted in entry.actions
                                             and entry.default_action
                                             != wanted))

    def _other_scopes(self, service: str) -> list[str]:
        return [scope for scope in self.flow_table.scopes()
                if scope != service]

    def _scope_default(self, scope: str,
                       flows: FlowMatch) -> Destination | None:
        """The default action service ``scope`` applies to ``flows``."""
        exact = flows.exact_key()
        if exact is not None:
            entry = self.flow_table.lookup(scope, exact)
            return entry.default_action if entry else None
        entries = self.flow_table.entries(scope)
        if not entries:
            return None
        # Prefer the rule whose match equals F, else the scope's broadest.
        for entry in entries:
            if entry.match == flows:
                return entry.default_action
        broadest = min(entries, key=lambda rule: rule.match.specificity)
        return broadest.default_action

    def _rewrite(self, scopes: typing.Iterable[str], flows: FlowMatch,
                 new_default: Destination,
                 selects: typing.Callable[[FlowTableEntry], bool]
                 | None = None) -> list[FlowTableEntry]:
        """Make ``new_default`` the default of the rules in ``scopes``
        that route ``flows`` and that ``selects`` picks (every rule when
        None): §3.4's one operation behind ChangeDefault, SkipMe and
        RequestMe.

        An exact ``flows`` copies the rule the flow hits in each scope,
        when selected, into a per-flow rule.  A wildcard rewrites the
        selected rules it subsumes where they stand in the table, then
        carves a priority+1 override for ``flows`` out of the best
        selected broader rule, but only when the scope selects every
        rule that overlaps ``flows``: an override never takes a flow
        from a rule the message leaves alone.  Every write goes through
        :meth:`install_rule`.  Returns the rules rewritten or copied, as
        they were.
        """
        exact = flows.exact_key()
        rewritten: list[FlowTableEntry] = []
        for scope in scopes:
            if exact is not None:
                template = self.flow_table.specialization_template(
                    scope, exact)
                if template is not None and (selects is None
                                             or selects(template)):
                    rewritten.append(template)
                    self.install_rule(template.with_default(
                        new_default, match=flows))
                continue
            overlapping = [entry for entry in self.flow_table.entries(scope)
                           if flows.overlaps(entry.match)]
            selected = [entry for entry in overlapping
                        if selects is None or selects(entry)]
            broader: list[FlowTableEntry] = []
            for entry in selected:
                if flows.subsumes(entry.match):
                    rewritten.append(entry)
                    self.install_rule(entry.with_default(new_default))
                else:
                    broader.append(entry)
            if broader and len(selected) == len(overlapping):
                template = max(broader, key=lambda rule: (
                    rule.priority, rule.match.specificity))
                self.install_rule(FlowTableEntry(
                    scope=scope, match=flows,
                    actions=template.with_default(new_default).actions,
                    priority=template.priority + 1))
        return rewritten

    # ------------------------------------------------------------------
    # Terminal actions
    # ------------------------------------------------------------------
    def _egress(self, descriptor: PacketDescriptor, port_name: str) -> None:
        port = self.ports.get(port_name)
        if port is None:
            self._drop(descriptor, "dropped_no_rule")
            return
        packet = descriptor.packet
        size = packet.size
        # Pure refcount drop — no pool reclaim here: the zero-ref buffer
        # is still on the wire (NIC TX FIFO, then fabric / egress sinks).
        # The terminal owner (pktgen's return sink, a drop path, or the
        # next host) reclaims it; a port that refuses the frame (a full
        # bounded TX ring) is that owner.
        packet.release()
        if port.transmit(packet):
            self.stats.record_tx(port_name, size)
        else:
            self.stats.dropped_ring_full += 1

    def _drop(self, descriptor: PacketDescriptor, counter: str) -> None:
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if not self._group_member_lost(descriptor):
            self._release(descriptor.packet)

    @staticmethod
    def _release(packet: Packet) -> None:
        # free(), not release(): drop paths are terminal owners, so a
        # pooled buffer goes straight back to its slab at refcount zero.
        packet.free()
