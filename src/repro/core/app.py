"""The SDNFV Application: the global tier of the control hierarchy (§3.1).

It "has purview over the entire network": it holds the service graphs and
placement decisions, compiles each deployment into flow rules once
(Fig. 2 steps 1–3) — installed at deploy time when proactive, handed out
through the SDN controller on flow-table misses otherwise — asks the NFV
orchestrator to start VMs (step 4), and validates / acts on cross-layer
messages coming up from NFs (step 5).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.orchestrator import NfvOrchestrator
from repro.control.plane import ControlPlane
from repro.dataplane.actions import Drop, ToPort
from repro.dataplane.flow_table import FlowTableEntry
from repro.dataplane.host import NfvHost
from repro.dataplane.messages import (
    ChangeDefault,
    NfMessage,
    RequestMe,
    SkipMe,
    UserMessage,
    parse_target,
)
from repro.net.flow import FiveTuple, FlowMatch
from repro.core.deploy_rules import (
    DistributedDeploymentError,
    compile_distributed_rules,
)
from repro.core.service_graph import EXIT, ServiceGraph
from repro.sim.events import Event
from repro.sim.simulator import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.watchdog import NfWatchdog


@dataclasses.dataclass
class GraphDeployment:
    """One service graph instantiated in the network."""

    graph: ServiceGraph
    match: FlowMatch
    ingress_port: str
    exit_port: str
    placement: dict[str, str] | None = None  # service -> host name
    priority: int = 0
    # Each host's share of the cover deploy compiled, in compile order
    # (a routed deployment's transit and arrival rules included).  A
    # miss is answered with copies; these entries never enter a table.
    shares: dict[str, list[FlowTableEntry]] = dataclasses.field(
        default_factory=dict, init=False, repr=False)

    def covers(self, flow: FiveTuple) -> bool:
        return self.match.matches(flow)


class SdnfvApp:
    """Global policies, graph deployment, and cross-layer coordination."""

    def __init__(self, sim: Simulator,
                 controller: ControlPlane | None = None,
                 orchestrator: NfvOrchestrator | None = None,
                 validation_latency_ns: int = 0,
                 trust_nfs: bool = True) -> None:
        self.sim = sim
        self.controller = controller
        self.orchestrator = orchestrator
        self.validation_latency_ns = validation_latency_ns
        self.trust_nfs = trust_nfs
        self.hosts: dict[str, NfvHost] = {}
        self.deployments: list[GraphDeployment] = []
        self._message_callbacks: dict[
            str, list[typing.Callable[[str, UserMessage], None]]] = {}
        self.messages_received: list[tuple[str, UserMessage]] = []
        self.rejected_messages: list[tuple[str, NfMessage]] = []
        self.telemetry: list[typing.Any] = []
        # Optional structured observability (repro.metrics.eventlog);
        # attach_event_log propagates it to hosts and the orchestrator.
        self.event_log: typing.Any | None = None
        if controller is not None and controller.northbound is None:
            controller.northbound = self

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_event_log(self, event_log: typing.Any) -> None:
        """Attach one control-event log to the app, every registered
        host, the orchestrator and the control plane."""
        self.event_log = event_log
        for host in self.hosts.values():
            host.manager.event_log = event_log
        if self.orchestrator is not None:
            self.orchestrator.event_log = event_log
        if self.controller is not None:
            self.controller.event_log = event_log

    # ------------------------------------------------------------------
    # Host / infrastructure registration
    # ------------------------------------------------------------------
    def register_host(self, host: NfvHost) -> None:
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        host.manager.user_message_sink = self._handle_user_message
        if not self.trust_nfs:
            host.manager.policy_validator = self
        if self.event_log is not None:
            host.manager.event_log = self.event_log
        if self.orchestrator is not None:
            self.orchestrator.register_host(host)

    # ------------------------------------------------------------------
    # Deployment (Fig. 2 steps 1–4)
    # ------------------------------------------------------------------
    def deploy(self, graph: ServiceGraph,
               ingress_port: str = "eth0", exit_port: str = "eth1",
               match: FlowMatch | None = None,
               placement: dict[str, str] | None = None,
               proactive: bool = True,
               priority: int = 0,
               auto_parallel: bool = False,
               network: typing.Any = None) -> GraphDeployment:
        """Instantiate a service graph.

        The graph is validated and the deployment's rule cover compiles
        once, here, so graph and placement errors surface at deploy time.
        ``proactive=True`` marks every entry proactive and installs it on
        the hosts this build realizes, in compile order, before any
        traffic (the pre-populated tables of §4.1); with
        ``proactive=False`` nothing is installed and hosts pull their
        share on flow-table misses (:meth:`rules_for`), answered from the
        cover compiled here.  An attached controller only ever serves
        those misses.

        Setting ``auto_parallel`` replaces the declared-read-only fusion with
        profile-driven layout synthesis: each host's registered NFs are
        statically analyzed (:mod:`repro.analysis.profiles`) and
        :meth:`ServiceGraph.auto_parallel_layout` fuses every adjacent run
        whose profiles are conflict-free — a superset of the read-only
        chains, with the manager's merge stage reconciling member writes
        in graph order.  Register the NFs (``host.add_nf``) *before*
        deploying: services without a VM yet fall back to the graph's
        declared bit.  The default (False) keeps the legacy behaviour
        bit-for-bit.

        Without ``network=`` the graph runs whole on one host: the host
        ``placement`` names, or, with no placement, every registered
        host.  With ``network=`` (a :class:`repro.topology.BuiltNetwork`),
        the deployment is *routed*: ``placement`` is required and may
        span hosts, arrival and transit rules compile from the network's
        topology, and a partial build installs exactly its share of the
        same global cover.

        The cover is a snapshot of graph, placement and hosts as they
        are now.  So an unrouted deployment without a placement serves
        only the hosts registered before it: a host registered later
        gets neither proactive rules nor miss answers from it.
        """
        graph.validate()  # even when no host is registered yet
        if network is None:
            hosts = self.hosts
            placed = set((placement or {}).values())
            unknown = placed - set(hosts)
            if unknown:
                raise DistributedDeploymentError(
                    f"placement names unregistered hosts {sorted(unknown)}")
            if len(placed) > 1:
                raise DistributedDeploymentError(
                    f"placement spans hosts {sorted(placed)}; deploy it "
                    "with network= so its cross-host edges are routed")
            # The graph compiles whole on each involved host, with every
            # service placed on that host.
            runs = [(placement or dict.fromkeys(graph.services, name),
                     (name,))
                    for name in hosts
                    if placement is None or name in placement.values()]
            topology = None
        else:
            if auto_parallel:
                raise ValueError(
                    "auto_parallel= is not supported with network= "
                    "deployments; register profile-driven chains per "
                    "host instead")
            if placement is None:
                raise DistributedDeploymentError(
                    "deploy(network=...) needs placement=")
            hosts = network.hosts
            # One topology-aware cover over the whole network.
            runs = [(placement, network.all_hosts or tuple(network.hosts))]
            topology = network.topology
        deployment = GraphDeployment(
            graph=graph, match=match or FlowMatch.any(),
            ingress_port=ingress_port, exit_port=exit_port,
            placement=None if placement is None else dict(placement),
            priority=priority)
        cover = []  # this build's (host, entry) share, in compile order
        for run_placement, host_names in runs:
            for name, entry in compile_distributed_rules(
                    graph, run_placement, host_names, topology=topology,
                    match=deployment.match, ingress_port=ingress_port,
                    exit_port=exit_port, priority=priority):
                deployment.shares.setdefault(name, []).append(entry)
                if name in hosts:
                    cover.append((name, entry))
        chains = () if auto_parallel else graph.parallel_chains()
        for host_name in dict.fromkeys(name for name, _entry in cover):
            host = hosts[host_name]
            if auto_parallel:
                self._register_auto_parallel(graph, host, host_name,
                                             placement)
            for chain in chains:
                if all(placement is None or placement[service] == host_name
                       for service in chain):
                    host.manager.register_parallel_chain(chain)
        self.deployments.append(deployment)
        if self.event_log is not None:
            self.event_log.record("deploy", graph=graph.name,
                                  proactive=proactive,
                                  services=len(graph.services))
        if proactive:
            for host_name, entry in cover:
                entry = entry.copy()
                entry.proactive = True
                hosts[host_name].manager.install_rule(entry)
        return deployment

    def _register_auto_parallel(self, graph: ServiceGraph, host: NfvHost,
                                host_name: str,
                                placement: dict[str, str] | None) -> None:
        """Profile-driven chain registration for one host.

        Analysis imports stay lazy (same pattern as the ownership
        verifier): a deployment that never opts in never loads the
        analysis package.
        """
        from repro.analysis.profiles import ActionProfile, profile_of

        profiles: dict[str, typing.Any] = {}
        for service in graph.services:
            vms = host.manager.vms_by_service.get(service, ())
            if vms:
                profile = profile_of(vms[0].nf)
                for vm in vms[1:]:
                    # Heterogeneous replicas: the service's effective
                    # profile is the union of its replicas' effects.
                    profile = profile.merged_with(profile_of(vm.nf))
            elif graph.is_read_only(service):
                profile = ActionProfile.declared_read_only()
            else:
                profile = ActionProfile.opaque_profile()
            profiles[service] = profile
        for group in graph.auto_parallel_layout(profiles):
            if len(group) < 2:
                continue
            local = [service for service in group
                     if placement is None
                     or placement[service] == host_name]
            if len(local) == len(group):
                host.manager.register_parallel_chain(group,
                                                     profiles=profiles)

    def launch_nf(self, host: NfvHost | str,
                  nf_factory: typing.Callable[[], typing.Any],
                  mode: str | None = None) -> Event:
        """Start a new NF VM via the orchestrator (Fig. 2 step 4).

        ``mode`` is one of ``"boot"`` / ``"standby_process"`` /
        ``"restore"``.
        """
        if self.orchestrator is None:
            raise RuntimeError("no orchestrator attached")
        return self.orchestrator.launch_nf(host, nf_factory, mode=mode)

    # ------------------------------------------------------------------
    # Northbound interface for the SDN controller (on-demand rules)
    # ------------------------------------------------------------------
    def rules_for(self, host_name: str, scope: str,
                  flow: FiveTuple) -> list[FlowTableEntry]:
        """Rules for a reported miss: copies of the host's share of every
        deployment covering the flow, in deploy order.  Overlapping
        deployments then resolve by table priority, exactly as their
        proactive covers do."""
        return [entry.copy() for deployment in self.deployments
                if deployment.covers(flow)
                for entry in deployment.shares.get(host_name, ())]

    # ------------------------------------------------------------------
    # Cross-layer message validation (§3.4, untrusted NFs)
    # ------------------------------------------------------------------
    def validate(self, host_name: str, message: NfMessage) -> bool:
        """Policy check: NF requests must stay within the edges of the
        deployed service graphs.

        The verdict is immediate, and a rejection is recorded at once;
        the manager that asked charges ``validation_latency_ns`` as one
        sleep before it acts on the verdict.
        """
        verdict = self._is_permitted(message)
        if not verdict:
            self.rejected_messages.append((host_name, message))
        return verdict

    def _is_permitted(self, message: NfMessage) -> bool:
        if isinstance(message, UserMessage):
            return True
        if isinstance(message, ChangeDefault):
            # Every deployment whose rules the message may rewrite must
            # have the edge: those holding the service and, for one
            # exact flow, covering it.
            service = message.service
            exact = message.flows.exact_key()
            graphs = [deployment.graph for deployment in self.deployments
                      if deployment.graph.has_service(service)
                      and (exact is None or deployment.covers(exact))]
            if not graphs:
                return False
            destination = parse_target(message.target)
            if isinstance(destination, Drop):
                return True
            target = (EXIT if isinstance(destination, ToPort)
                      else destination.service_id)
            return all(graph.has_edge(service, target) for graph in graphs)
        if isinstance(message, (SkipMe, RequestMe)):
            return any(deployment.graph.has_service(message.service)
                       for deployment in self.deployments)
        return False

    # ------------------------------------------------------------------
    # NF → application messages (Fig. 2 step 5)
    # ------------------------------------------------------------------
    def on_message(self, key: str,
                   callback: typing.Callable[[str, UserMessage], None]
                   ) -> None:
        """Subscribe to UserMessages by key (e.g. a DDoS alarm handler)."""
        self._message_callbacks.setdefault(key, []).append(callback)

    def _handle_user_message(self, host_name: str,
                             message: UserMessage) -> None:
        self.messages_received.append((host_name, message))
        if self.event_log is not None:
            self.event_log.record("nf_message_up", host=host_name,
                                  key=message.key,
                                  sender=message.sender_service)
        for callback in self._message_callbacks.get(message.key, ()):
            callback(host_name, message)

    # ------------------------------------------------------------------
    # Auto-scaling: overload-driven replica instantiation
    # ------------------------------------------------------------------
    def enable_autoscaling(
            self, host: NfvHost | str,
            nf_factories: typing.Mapping[
                str, typing.Callable[[], typing.Any]],
            interval_ns: int = 100_000_000,
            threshold_slots: int = 256,
            max_replicas: int = 4,
            mode: str | None = None) -> None:
        """Boot extra replicas of overloaded services automatically.

        Wires the NF Manager's overload monitor (host tier) to the NFV
        orchestrator (global tier): sustained queue pressure on a service
        in ``nf_factories`` launches one more replica, up to
        ``max_replicas``, using a fast launch mode by default
        (``mode="standby_process"``).
        """
        if self.orchestrator is None:
            raise RuntimeError("autoscaling needs an orchestrator")
        mode = mode or "standby_process"
        self.orchestrator.launch_time_ns(mode)  # reject bad modes up front
        if isinstance(host, str):
            host = self.hosts[host]
        manager = host.manager
        pending: set[str] = set()

        def on_overload(service_id: str, depth: int) -> None:
            factory = nf_factories.get(service_id)
            if factory is None or service_id in pending:
                return
            replicas = len(manager.vms_by_service.get(service_id, ()))
            if replicas >= max_replicas:
                return
            pending.add(service_id)
            ready = self.orchestrator.launch_nf(host, factory, mode=mode)
            ready.callbacks.append(
                lambda _event: pending.discard(service_id))

        manager.start_overload_monitor(
            interval_ns=interval_ns, threshold_slots=threshold_slots,
            callback=on_overload)

    # ------------------------------------------------------------------
    # Failover: watchdog-driven replacement of dead / wedged NFs
    # ------------------------------------------------------------------
    def enable_failover(
            self, host: NfvHost | str,
            nf_factories: typing.Mapping[
                str, typing.Callable[[], typing.Any]],
            interval_ns: int = 10_000_000,
            heartbeat_timeout_ns: int = 50_000_000,
            mode: str = "standby_process",
            max_respawns: int = 8) -> NfWatchdog:
        """Detect dead or wedged NFs on ``host`` and replace them.

        Starts an :class:`~repro.faults.watchdog.NfWatchdog` on the
        host's manager; when a VM of a service in ``nf_factories`` fails,
        the watchdog salvages its queue (requeue to survivors / default-
        edge degradation), quarantines the service while it has no
        replicas, and this wiring launches a replacement through the
        orchestrator using a fast launch ``mode`` ("standby_process" or
        "restore").  When the replacement registers, quarantined rules
        are reinstated and the recovery (MTTR, packets lost) is recorded.
        ``max_respawns`` bounds replacement launches per service.
        """
        from repro.faults.watchdog import NfWatchdog

        if self.orchestrator is None:
            raise RuntimeError("failover needs an orchestrator")
        self.orchestrator.launch_time_ns(mode)  # reject bad modes up front
        if isinstance(host, str):
            host = self.hosts[host]
        respawns: dict[str, int] = {}

        def on_failure(service_id: str, vm: typing.Any,
                       cause: str) -> None:
            factory = nf_factories.get(service_id)
            if factory is None:
                return
            if respawns.get(service_id, 0) >= max_respawns:
                return
            respawns[service_id] = respawns.get(service_id, 0) + 1
            ready = self.orchestrator.launch_nf(host, factory, mode=mode)
            ready.callbacks.append(
                lambda _event: watchdog.notify_replacement(service_id))

        watchdog = NfWatchdog(
            host.manager, interval_ns=interval_ns,
            heartbeat_timeout_ns=heartbeat_timeout_ns,
            on_failure=on_failure)
        return watchdog.start()

    # ------------------------------------------------------------------
    # Telemetry: periodic upward state flow (§3.4 "NF–SDN Coordination")
    # ------------------------------------------------------------------
    def start_telemetry(self, interval_ns: int,
                        callback: typing.Callable[
                            [typing.Any], None] | None = None) -> None:
        """Periodically gather a HierarchySnapshot from every tier.

        The paper argues NF→SDN information flow (flow rates, drop rates,
        application triggers) needs first-class support; this is the
        polling half — UserMessages through :meth:`on_message` are the
        event-driven half.  Snapshots accumulate in ``telemetry``.
        """
        if interval_ns <= 0:
            raise ValueError("telemetry interval must be positive")
        self.sim.process(self._telemetry_loop(interval_ns, callback))

    def _telemetry_loop(self, interval_ns, callback):
        from repro.core.state import HierarchySnapshot
        while True:
            yield self.sim.sleep(interval_ns)
            snapshot = HierarchySnapshot.gather(self)
            self.telemetry.append(snapshot)
            if callback is not None:
                callback(snapshot)

    # ------------------------------------------------------------------
    # Network-wide rule updates initiated from the top
    # ------------------------------------------------------------------
    def broadcast_message(self, message: NfMessage,
                          hosts: typing.Iterable[str] | None = None
                          ) -> None:
        """Apply a cross-layer rewrite on many hosts (the 'affects other
        hosts' path of §3.4)."""
        for host_name in (hosts if hosts is not None else self.hosts):
            self.hosts[host_name].manager.apply_message(message)
