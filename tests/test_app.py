"""SDNFV Application tests: deployment, northbound, validation, messages."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import HierarchySnapshot, SdnfvApp, ServiceGraph
from repro.core import app as app_module
from repro.core.service_graph import EXIT
from repro.core.state import StateKind, StateTier, classify_state
from repro.dataplane import (
    ChangeDefault,
    NfvHost,
    SkipMe,
    ToService,
    UserMessage,
)
from repro.net import FiveTuple, FlowMatch, Packet
from repro.nfs import CounterNf, NoOpNf
from repro.sim import MS, S
from repro.topology import Link, NodeSpec, Topology, build_network

from tests.test_service_graph import anomaly_graph, video_graph


@pytest.fixture
def app_env(sim):
    controller = ControlPlane(sim)
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, controller=controller, orchestrator=orchestrator)
    host = NfvHost(sim, name="h0", controller=controller)
    app.register_host(host)
    return app, controller, orchestrator, host


#: Deploys a chain over a built 4-host line and prints its rule_install
#: (host, scope) sequence as JSON.
DEPLOY_ORDER_SCRIPT = """
import json
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.metrics import EventLog
from repro.sim import Simulator
from repro.topology import Link, NodeSpec, Topology, build_network

sim = Simulator()
app = SdnfvApp(sim)
app.attach_event_log(EventLog(sim))
names = ["west", "east", "north", "south"]
topology = Topology()
for name in names:
    topology.add_node(NodeSpec(name=name, cores=2))
for src, dst in zip(names, names[1:]):
    topology.add_link(Link(a=src, b=dst))
network = build_network(sim, topology)
for host in network.hosts.values():
    app.register_host(host)
services = ["a", "b", "c", "d"]
graph = ServiceGraph("four-hosts")
for service in services:
    graph.add_service(service)
for src, dst in zip(services, services[1:] + [EXIT]):
    graph.add_edge(src, dst, default=True)
graph.set_entry("a")
app.deploy(graph, placement=dict(zip(services, names)), network=network)
print(json.dumps([[event.host, event.get("scope")] for event
                  in app.event_log.filter(category="rule_install")]))
"""


class TestDeployment:
    def test_proactive_deploy_installs_rules_via_controller(self, sim,
                                                            app_env):
        app, controller, _orch, host = app_env
        host.add_nf(NoOpNf("vd"))
        host.add_nf(NoOpNf("pe"))
        host.add_nf(NoOpNf("tc"))
        host.add_nf(NoOpNf("cache"))
        app.deploy(video_graph())
        # The cover is live at deploy time; the controller serves only
        # misses, and a full proactive cover has none.
        assert len(host.flow_table) == 5  # eth0 + 4 services
        sim.run(until=controller.idle_lookup_ns + 1 * MS)
        assert controller.requests == 0

    def test_deploy_registers_parallel_chains(self, sim, app_env):
        app, _controller, _orch, host = app_env
        for name in ("firewall", "sampler", "ddos", "ids"):
            host.add_nf(CounterNf(name))
        host.add_nf(CounterNf("scrubber"))
        app.deploy(anomaly_graph())
        assert host.manager._parallel_chains.get("ddos") == ["ddos", "ids"]

    def test_end_to_end_traffic_through_deployed_graph(self, sim, app_env,
                                                       flow):
        app, controller, _orch, host = app_env
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph())
        out = []
        host.port("eth1").on_egress = out.append
        sim.run(until=50 * MS)
        host.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=100 * MS)
        assert len(out) == 1
        # Default path: vd -> pe -> tc -> cache -> out.
        for name in ("vd", "pe", "tc", "cache"):
            assert host.stats.per_service_packets[name] == 1

    def test_without_controller_rules_install_directly(self, sim):
        app = SdnfvApp(sim)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph())
        assert len(host.flow_table) == 5

    def test_duplicate_host_rejected(self, sim, app_env):
        app, _c, _o, host = app_env
        with pytest.raises(ValueError):
            app.register_host(host)

    def test_install_order_is_registration_order_under_any_hash_seed(self):
        """Hosts install in the order their topology registered them,
        so the sequence of rule installs does not depend on
        ``PYTHONHASHSEED``."""
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        orders = []
        for seed in ("0", "1"):
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, "-c", DEPLOY_ORDER_SCRIPT], env=env,
                capture_output=True, text=True, check=True)
            orders.append(json.loads(result.stdout))
        assert orders[0] == orders[1]
        assert [host for host, _scope in orders[0]][::2] == [
            "west", "east", "north", "south"]


class TestOnDemandRules:
    def test_miss_pulls_rules_from_deployment(self, sim, flow):
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph(), proactive=False)
        assert len(host.flow_table) == 0
        out = []
        host.port("eth1").on_egress = out.append
        host.inject("eth0", Packet(flow=flow, size=256))
        sim.run(until=100 * MS)
        assert len(out) == 1
        assert len(host.flow_table) == 5

    def test_uncovered_flow_gets_no_rules(self, sim, flow, udp_flow):
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        host.add_nf(NoOpNf("vd"))
        graph = ServiceGraph("web-only")
        graph.add_service("vd")
        graph.add_edge("vd", EXIT, default=True)
        graph.set_entry("vd")
        app.deploy(graph, match=FlowMatch(protocol=6), proactive=False)
        host.inject("eth0", Packet(flow=udp_flow, size=128))
        sim.run(until=100 * MS)
        assert host.stats.dropped_no_rule == 1

    @pytest.mark.parametrize("proactive", [True, False])
    def test_overlapping_deployments_follow_priority(self, sim, flow,
                                                     proactive):
        """A flow covered by two deployments takes the higher-priority
        one, whether its rules were pre-installed or pulled on a miss."""
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        graphs = {}
        for name in ("a", "b"):
            host.add_nf(NoOpNf(name))
            graphs[name] = ServiceGraph(name)
            graphs[name].add_service(name)
            graphs[name].add_edge(name, EXIT, default=True)
            graphs[name].set_entry(name)
        app.deploy(graphs["a"], proactive=proactive)
        app.deploy(graphs["b"], match=FlowMatch.exact(flow), priority=10,
                   proactive=proactive)
        out = []
        host.port("eth1").on_egress = out.append
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        assert len(out) == 1
        assert host.stats.per_service_packets["b"] == 1
        assert host.stats.per_service_packets.get("a", 0) == 0


def two_service_chain(name="chain"):
    graph = ServiceGraph(name)
    for service in ("a", "b"):
        graph.add_service(service)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", EXIT, default=True)
    graph.set_entry("a")
    return graph


def reactive_app(sim, routed):
    """A ``proactive=False`` chain a -> b behind a controller: routed
    over a 3-host line (a on h0, b on h2, h1 transit) or unrouted on
    one host."""
    controller = ControlPlane(sim)
    app = SdnfvApp(sim, controller=controller)
    if routed:
        topology = Topology()
        for name in ("h0", "h1", "h2"):
            topology.add_node(NodeSpec(name=name, cores=2))
        for a, b in (("h0", "h1"), ("h1", "h2")):
            topology.add_link(Link(a=a, b=b, delay_ns=50_000))
        network = build_network(sim, topology)
        hosts = network.hosts
        for host in hosts.values():
            host.manager.controller = controller
            app.register_host(host)
        hosts["h0"].add_nf(NoOpNf("a"))
        hosts["h2"].add_nf(NoOpNf("b"))
        app.deploy(two_service_chain(), placement={"a": "h0", "b": "h2"},
                   network=network, proactive=False)
        return app, hosts, hosts["h2"]
    host = NfvHost(sim, name="h0", controller=controller)
    app.register_host(host)
    for service in ("a", "b"):
        host.add_nf(NoOpNf(service))
    app.deploy(two_service_chain(), proactive=False)
    return app, {"h0": host}, host


def table_ids(hosts):
    return {id(entry) for host in hosts.values()
            for entry in host.flow_table.entries()}


class TestRuleCover:
    """Misses are answered from the cover deploy compiled, as copies."""

    @pytest.mark.parametrize("routed", [True, False],
                             ids=["routed", "unrouted"])
    def test_misses_never_recompile_the_cover(self, sim, flow, monkeypatch,
                                              routed):
        app, hosts, egress_host = reactive_app(sim, routed)
        calls = []
        compile_rules = app_module.compile_distributed_rules

        def counting(*args, **kwargs):
            calls.append(args)
            return compile_rules(*args, **kwargs)

        monkeypatch.setattr(app_module, "compile_distributed_rules",
                            counting)
        out = []
        egress_host.port("eth1").on_egress = out.append
        for index in range(4):
            sim.schedule((1 + index) * MS, lambda: hosts["h0"].inject(
                "eth0", Packet(flow=flow, size=128)))
        sim.run(until=100 * MS)
        assert len(out) == 4
        assert calls == []
        installed = [entry for host in hosts.values()
                     for entry in host.flow_table.entries()]
        assert installed
        assert all(entry.installed_at_ns > 0 for entry in installed)
        assert any(entry.last_hit_ns > entry.installed_at_ns
                   for entry in installed)
        in_tables = table_ids(hosts)
        for name, host in hosts.items():
            for scope in host.manager.ports:
                answer = app.rules_for(name, scope, flow)
                for entry in answer:
                    assert entry.installed_at_ns == entry.last_hit_ns == 0
                    assert entry.proactive is False
                    assert id(entry) not in in_tables
        assert app.rules_for("h0", "eth0", flow)
        assert calls == []

    def test_hybrid_misses_get_reactive_copies(self, sim, flow, udp_flow):
        """A proactive deployment for one class and a reactive one for
        the rest: the proactive cover installs marked copies, and a
        miss is answered with unmarked copies of both shares."""
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        for service in ("a", "b"):
            host.add_nf(NoOpNf(service))
        known = app.deploy(two_service_chain("known"),
                           match=FlowMatch.exact(flow), priority=10)
        rest = app.deploy(two_service_chain("rest"), proactive=False)
        installed = host.flow_table.entries()
        assert installed and all(entry.proactive for entry in installed)
        for deployment in (known, rest):
            assert all(entry.proactive is False
                       for share in deployment.shares.values()
                       for entry in share)
        in_table = table_ids({"h0": host})
        for missed in (flow, udp_flow):
            answer = app.rules_for("h0", "eth0", missed)
            assert answer
            for entry in answer:
                assert entry.proactive is False
                assert id(entry) not in in_table
        assert len(app.rules_for("h0", "eth0", flow)) == 2 * len(
            app.rules_for("h0", "eth0", udp_flow))
        out = []
        host.port("eth1").on_egress = out.append
        host.inject("eth0", Packet(flow=flow, size=128))
        host.inject("eth0", Packet(flow=udp_flow, size=128))
        sim.run(until=100 * MS)
        assert len(out) == 2
        assert host.stats.reactive_misses == 1
        assert host.stats.proactive_hits >= 1

    @pytest.mark.parametrize("proactive", [True, False])
    def test_host_registered_after_deploy_is_not_served(self, sim, flow,
                                                        proactive):
        """An unrouted deploy without placement covers the hosts
        registered when it deploys; a later host gets neither proactive
        rules nor miss answers from it."""
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        early = NfvHost(sim, name="early", controller=controller)
        app.register_host(early)
        app.deploy(two_service_chain(), proactive=proactive)
        late = NfvHost(sim, name="late", controller=controller)
        app.register_host(late)
        for host in (early, late):
            for service in ("a", "b"):
                host.add_nf(NoOpNf(service))
        assert app.rules_for("early", "eth0", flow)
        assert app.rules_for("late", "eth0", flow) == []
        assert len(late.flow_table) == 0
        late.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        assert late.stats.dropped_no_rule == 1
        assert len(late.flow_table) == 0


class TestValidation:
    def _untrusted_env(self, sim):
        app = SdnfvApp(sim, trust_nfs=False)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph())
        return app, host

    def test_change_default_along_graph_edge_allowed(self, sim, flow):
        app, host = self._untrusted_env(sim)
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="pe", flows=FlowMatch.exact(flow),
            service="pe", target="cache"))
        sim.run(until=10 * MS)
        assert not app.rejected_messages
        assert host.flow_table.lookup(
            "pe", flow).default_action == ToService("cache")

    def test_change_default_off_graph_rejected(self, sim, flow):
        app, host = self._untrusted_env(sim)
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="cache", flows=FlowMatch.exact(flow),
            service="cache", target="vd"))  # no cache->vd edge
        sim.run(until=10 * MS)
        assert len(app.rejected_messages) == 1
        assert host.manager.rejected_messages == 1

    def test_port_target_requires_exit_edge(self, sim, flow):
        app, host = self._untrusted_env(sim)
        # vd has an EXIT edge: allowed.
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="vd", flows=FlowMatch.exact(flow),
            service="vd", target="port:eth1"))
        # tc has no EXIT edge: rejected.
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="tc", flows=FlowMatch.exact(flow),
            service="tc", target="port:eth1"))
        sim.run(until=10 * MS)
        assert len(app.rejected_messages) == 1

    @staticmethod
    def _two_graph_env(sim, first_edge_to_t):
        """Two deployments of service s: one over dst port 80, one over
        443; only one of them has an s->t edge."""
        app = SdnfvApp(sim, trust_nfs=False)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        for name in ("s", "t"):
            host.add_nf(NoOpNf(name))
        with_edge = ServiceGraph("with-edge")
        with_edge.add_service("s")
        with_edge.add_service("t")
        with_edge.add_edge("s", EXIT, default=True)
        with_edge.add_edge("s", "t")
        with_edge.add_edge("t", EXIT, default=True)
        with_edge.set_entry("s")
        without_edge = ServiceGraph("without-edge")
        without_edge.add_service("s")
        without_edge.add_edge("s", EXIT, default=True)
        without_edge.set_entry("s")
        graphs = ((with_edge, without_edge) if first_edge_to_t
                  else (without_edge, with_edge))
        for graph, dst_port in zip(graphs, (80, 443)):
            app.deploy(graph, match=FlowMatch(dst_port=dst_port))
        return app, host

    @staticmethod
    def _change_s_to_t(app, sim, flows):
        app.hosts["h0"].manager.submit_nf_message(ChangeDefault(
            sender_service="s", flows=flows, service="s", target="t"))
        sim.run(until=10 * MS)
        return not app.rejected_messages

    def test_change_default_judged_by_covering_deployment(self, sim):
        """The edge is in the deployment covering the flow, not the
        first deployment holding the service: permitted."""
        app, _host = self._two_graph_env(sim, first_edge_to_t=False)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 443)
        assert self._change_s_to_t(app, sim, FlowMatch.exact(flow))

    def test_change_default_needs_edge_in_covering_deployment(self, sim):
        """The first deployment holding the service has the edge, but
        the one covering the flow does not: rejected."""
        app, _host = self._two_graph_env(sim, first_edge_to_t=True)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 443)
        assert not self._change_s_to_t(app, sim, FlowMatch.exact(flow))

    def test_wildcard_change_default_needs_edge_everywhere(self, sim):
        """A wildcard message reaches every deployment holding the
        service, so each of them must have the edge."""
        app, _host = self._two_graph_env(sim, first_edge_to_t=True)
        assert not self._change_s_to_t(app, sim, FlowMatch.any())

    def test_skipme_for_unknown_service_rejected(self, sim):
        app, host = self._untrusted_env(sim)
        host.manager.submit_nf_message(SkipMe(
            sender_service="vd", service="never-deployed"))
        sim.run(until=10 * MS)
        assert len(app.rejected_messages) == 1

    def test_user_messages_always_pass_validation(self, sim):
        app, host = self._untrusted_env(sim)
        host.manager.submit_nf_message(UserMessage(
            sender_service="vd", key="stats", value=1))
        sim.run(until=10 * MS)
        assert not app.rejected_messages

    def test_validation_latency_defers_application(self, sim, flow):
        app = SdnfvApp(sim, trust_nfs=False, validation_latency_ns=5 * MS)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        for name in ("vd", "pe", "tc", "cache"):
            host.add_nf(NoOpNf(name))
        app.deploy(video_graph())
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="pe", flows=FlowMatch.exact(flow),
            service="pe", target="cache"))
        sim.run(until=1 * MS)
        assert host.flow_table.lookup(
            "pe", flow).default_action == ToService("tc")
        sim.run(until=20 * MS)
        assert host.flow_table.lookup(
            "pe", flow).default_action == ToService("cache")


class TestMessagesUpward:
    def test_user_message_reaches_app_and_callbacks(self, sim, app_env):
        app, _controller, _orch, host = app_env
        seen = []
        app.on_message("ddos_alarm", lambda h, m: seen.append((h, m)))
        host.manager.submit_nf_message(UserMessage(
            sender_service="det", key="ddos_alarm", value={"rate": 5.0}))
        sim.run(until=10 * MS)
        assert seen and seen[0][0] == "h0"
        assert app.messages_received

    def test_alarm_can_trigger_vm_launch(self, sim, app_env, flow):
        """The §5.2 pattern: alarm → orchestrator boots a scrubber."""
        app, _controller, orchestrator, host = app_env

        def boot_scrubber(host_name, message):
            app.launch_nf(host_name, lambda: NoOpNf("scrubber"))

        app.on_message("ddos_alarm", boot_scrubber)
        host.manager.submit_nf_message(UserMessage(
            sender_service="det", key="ddos_alarm", value={}))
        sim.run(until=8 * S)
        assert "scrubber" in host.manager.vms_by_service
        assert orchestrator.launches[0].service_id == "scrubber"

    def test_broadcast_message_applies_on_all_hosts(self, sim, app_env,
                                                    flow):
        app, controller, _orch, host = app_env
        host2 = NfvHost(sim, name="h1", controller=controller)
        app.register_host(host2)
        for target in (host, host2):
            target.add_nf(NoOpNf("vd"))
            target.add_nf(NoOpNf("pe"))
            target.add_nf(NoOpNf("tc"))
            target.add_nf(NoOpNf("cache"))
        app.deploy(video_graph(), proactive=True)
        sim.run(until=200 * MS)
        app.broadcast_message(ChangeDefault(
            sender_service="pe", flows=FlowMatch.any(),
            service="pe", target="cache"))
        for target in (host, host2):
            assert target.flow_table.lookup(
                "pe", flow).default_action == ToService("cache")


class TestStateHierarchy:
    def test_classification_table(self):
        kind, tier = classify_state(internal=True)
        assert kind is StateKind.NF_INTERNAL and tier is StateTier.NF
        kind, tier = classify_state(internal=True, host_scoped=True)
        assert tier is StateTier.NF_MANAGER
        kind, tier = classify_state(internal=False)
        assert kind is StateKind.EXTERNAL_PARTITIONED
        kind, tier = classify_state(internal=False, coherent=True)
        assert tier is StateTier.SDNFV_APP

    def test_snapshot_gathers_all_tiers(self, sim, app_env, flow):
        app, _controller, _orch, host = app_env
        host.add_nf(NoOpNf("vd"))
        snapshot = HierarchySnapshot.gather(app)
        assert "h0" in snapshot.hosts
        assert snapshot.hosts["h0"].services == ["vd"]
        assert snapshot.controller is not None
        rx, tx = snapshot.total_packets()
        assert rx == tx == 0

    def test_snapshot_formats_a_sharded_plane(self, sim):
        """Requests sum over shards; max_queue is the deepest shard's."""
        plane = ControlPlane(sim, shards=2)
        app = SdnfvApp(sim, controller=plane)
        host = NfvHost(sim, name="h0", controller=plane)
        app.register_host(host)
        flows = {}
        for port in range(1, 64):
            flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, port, 80)
            flows.setdefault(plane.owner_of(flow), []).append(flow)
        # Two flows owned by shard 0, one by shard 1: all miss.
        for flow in (*flows[0][:2], flows[1][0]):
            host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=100 * MS)
        assert [shard.stats.requests for shard in plane.shards] == [2, 1]
        assert [shard.stats.max_queue for shard in plane.shards] == [2, 1]
        text = HierarchySnapshot.gather(app).format()
        assert text.endswith("  controller: requests=3 max_queue=2")
