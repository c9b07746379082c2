"""Control-plane event log: recording, filtering, and system wiring."""

import pytest

from repro.control import NfvOrchestrator
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost, UserMessage
from repro.metrics import EventLog
from repro.net import FlowMatch, Packet
from repro.nfs import NoOpNf
from repro.sim import MS, S



class TestEventLogBasics:
    def test_records_are_timestamped_and_ordered(self, sim):
        log = EventLog(sim)
        log.record("a", host="h0", x=1)
        sim.timeout(100)
        sim.run()
        log.record("b", host="h1", y=2)
        assert len(log) == 2
        assert log.events[0].timestamp_ns == 0
        assert log.events[1].timestamp_ns == 100
        assert log.events[0].get("x") == 1
        assert log.events[1].get("missing", "dflt") == "dflt"

    def test_filtering(self, sim):
        log = EventLog(sim)
        log.record("rule_install", host="h0")
        log.record("rule_install", host="h1")
        log.record("vm_launch", host="h0")
        assert len(log.filter(category="rule_install")) == 2
        assert len(log.filter(host="h0")) == 2
        assert len(log.filter(category="vm_launch", host="h1")) == 0
        assert log.categories() == {"rule_install": 2, "vm_launch": 1}

    def test_capacity_bound(self, sim):
        log = EventLog(sim, capacity=3)
        for i in range(5):
            log.record("x", n=i)
        assert len(log) == 3
        assert log.dropped == 2

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            EventLog(sim, capacity=0)

    def test_format_renders_lines(self, sim):
        log = EventLog(sim)
        log.record("deploy", host="h0", graph="video")
        text = log.format()
        assert "deploy" in text and "graph=video" in text


class TestSystemWiring:
    def test_full_timeline_recorded(self, sim, flow):
        orchestrator = NfvOrchestrator(sim)
        app = SdnfvApp(sim, orchestrator=orchestrator)
        log = EventLog(sim)
        app.attach_event_log(log)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        host.add_nf(NoOpNf("svc"))

        graph = ServiceGraph("logged")
        graph.add_service("svc", read_only=True)
        graph.add_edge("svc", EXIT, default=True)
        graph.set_entry("svc")
        app.deploy(graph)

        host.manager.submit_nf_message(UserMessage(
            sender_service="svc", key="ping", value=1))
        app.launch_nf(host, lambda: NoOpNf("extra"),
                      mode="standby_process")
        sim.run(until=1 * S)

        categories = log.categories()
        assert categories["vm_register"] == 2  # svc + extra
        assert categories["deploy"] == 1
        assert categories["rule_install"] == 2  # eth0 + svc scopes
        assert categories["vm_launch"] == 1
        assert categories["nf_message_up"] == 1
        launch = log.filter(category="vm_launch")[0]
        assert launch.get("mode") == "standby_process"

    def test_rejected_messages_logged(self, sim, flow):
        app = SdnfvApp(sim, trust_nfs=False)
        log = EventLog(sim)
        app.attach_event_log(log)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        host.add_nf(NoOpNf("svc"))
        graph = ServiceGraph("g")
        graph.add_service("svc", read_only=True)
        graph.add_edge("svc", EXIT, default=True)
        graph.set_entry("svc")
        app.deploy(graph)
        from repro.dataplane import ChangeDefault
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="svc", flows=FlowMatch.any(),
            service="svc", target="nonexistent"))
        sim.run(until=10 * MS)
        assert len(log.filter(category="message_rejected")) == 1

    def test_sdn_request_logged(self, sim, flow):
        from repro.control import ControlPlane
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        log = EventLog(sim)
        app.attach_event_log(log)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=50 * MS)
        assert len(log.filter(category="sdn_request")) == 1
