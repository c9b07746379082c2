"""Golden digests of the systems that hand work through the kernel's
stores and time waits outside the NF Manager's own loops.

The kernel, object-path and firewall goldens cover the data plane's
rings, RX/TX loops and sleeps.  These cases cover everything else that
parks a process in a :class:`~repro.sim.store.Store` or waits for time:

- ``ovs_punt``: an ``OvsSwitchSim`` punting reactive flows to a
  one-shard ``ControlPlane`` (ingress store, punt queue, controller queue);
- ``sdn_video``: ``SdnVideoSystem`` under flow churn (setup slots,
  two controller transactions per flow);
- ``twemproxy``: ``TwemproxySim`` driven past saturation (its queue);
- ``priority_port``: a congested ``PriorityNicPort`` carrying
  DSCP-marked and bulk traffic (level queues and zero-delay pick
  timers);
- ``churn_untrusted``: ``FlowChurnWorkload`` into an app that validates
  every NF message with a delay (``trust_nfs=False``);
- ``video_sessions``, ``ddos_ramp``, ``imix``, ``trace_replay`` and
  ``memcached``: each workload's pacing loop into an ``NfvHost``;
- ``reactive_telemetry``: reactive flow setup with a
  ``ControlPlaneMonitor`` and ``SdnfvApp.start_telemetry`` sampling.

Every transmitting port has an egress hook, as in the other goldens.
Each case pins one SHA-256 over the kernel's three odometers
(``events_scheduled``, ``timers_scheduled``, ``events_cancelled``), the
system's counters and its latency samples, plus a few readable facts
showing the case did its work.  A second SHA-256,
``sha256_without_odometers``, covers the same fields except
``events_scheduled`` and ``timers_scheduled``: a change that only
removes kernel entries moves the first digest and must leave the second
alone.  A change to how the kernel hands items between processes or
wakes them from a time wait must reproduce every digest exactly.
Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src python -m tests.test_handoff_golden \\
        > tests/data/handoff_golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.baselines import OvsSwitchSim, SdnVideoSystem
from repro.baselines.twemproxy import TwemproxySim
from repro.control import ControlPlane
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import NfvHost
from repro.dataplane.qos import PriorityNicPort
from repro.metrics.controlplane import ControlPlaneMonitor
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.qos import DSCP_EXPEDITED
from repro.nfs import (
    DdosDetector,
    DscpMarker,
    MarkingRule,
    MemcachedProxy,
    NoOpNf,
    PolicyEngine,
    VideoFlowDetector,
)
from repro.sim import MS, US, Simulator
from repro.workloads import (
    DdosRampWorkload,
    FlowChurnWorkload,
    FlowSpec,
    ImixSource,
    MemcachedWorkload,
    PktGen,
    TraceRecord,
    TraceReplayer,
    VideoSessionWorkload,
)

from tests.conftest import install_chain

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "handoff_golden.json")

#: Odometers that count kernel entries; ``sha256_without_odometers``
#: leaves them out.
ODOMETERS = ("events_scheduled", "timers_scheduled")

SEED = 5


def _flow(src_port: int) -> FiveTuple:
    return FiveTuple("10.0.0.1", "10.0.0.2", PROTO_UDP, src_port, 5001)


FLOW = _flow(5000)


def _egress_latencies(port) -> list[int]:
    """Wire ``port`` to a sink recording each frame's host latency."""
    samples: list[int] = []
    port.on_egress = lambda packet: samples.append(
        port.sim.now - packet.created_at)
    return samples


def _video_host(sim: Simulator, app: SdnfvApp) -> NfvHost:
    """The Fig. 10 SDNFV arm: detector -> policy engine, proactive."""
    host = NfvHost(sim, name="v0", seed=SEED)
    app.register_host(host)
    host.add_nf(VideoFlowDetector("vd"), ring_slots=1024)
    host.add_nf(PolicyEngine("pe", detector_service="vd",
                             transcoder_service="tc", exit_port="eth1"),
                ring_slots=1024)
    graph = ServiceGraph("video")
    graph.add_service("vd", read_only=True)
    graph.add_service("pe")
    graph.add_edge("vd", "pe", default=True)
    graph.add_edge("vd", EXIT)
    graph.add_edge("pe", EXIT, default=True)
    graph.set_entry("vd")
    app.deploy(graph, proactive=True)
    return host


def _noop_host(sim: Simulator) -> NfvHost:
    host = NfvHost(sim, name="h0", seed=SEED)
    host.add_nf(NoOpNf("fw"), ring_slots=1024)
    install_chain(host, ["fw"])
    return host


def ovs_punt(sim: Simulator) -> tuple:
    controller = ControlPlane(sim, service_time_ns=100 * US,
                               propagation_ns=50 * US)
    switch = OvsSwitchSim(sim, controller, punt_fraction=0.5,
                          punt_buffer=16, seed=SEED)

    def offer():
        # Punts arrive at 2x the controller's capacity: the punt buffer
        # overflows.
        pool = switch.packet_pool
        while sim.now < 20 * MS:
            switch.offer(pool.alloc(flow=FLOW, size=256))
            yield sim.timeout(25 * US)

    sim.process(offer())
    sim.run(until=40 * MS)
    counters = {
        "forwarded": switch.forwarded,
        "dropped_punts": switch.dropped_punts,
        "punts_completed": switch.punts_completed,
        "controller": controller.shards[0].snapshot(),
    }
    facts = {"dropped_punts": switch.dropped_punts,
             "punts_completed": switch.punts_completed}
    return counters, switch.out_meter.pps_series(), facts


def sdn_video(sim: Simulator) -> tuple:
    controller = ControlPlane(sim, service_time_ns=200 * US,
                               propagation_ns=200 * US)
    system = SdnVideoSystem(sim, controller, flow_setup_buffer=16)
    workload = FlowChurnWorkload(sim, system, new_flows_per_second=3000,
                                 window_ns=5 * MS, seed=SEED)
    sim.schedule(20 * MS, lambda: system.set_throttle(True))
    sim.run(until=40 * MS)
    counters = {
        "completed_flows": system.completed_flows,
        "forwarded": system.forwarded,
        "transcode_dropped": system.transcode_dropped,
        "flows_started": workload.flows_started,
        "workload_completed": workload.completed_flows,
        "controller": controller.shards[0].snapshot(),
    }
    facts = {"completed_flows": system.completed_flows,
             "transcode_dropped": system.transcode_dropped}
    return counters, workload.out_meter.pps_series(), facts


def twemproxy(sim: Simulator) -> tuple:
    proxy = TwemproxySim(sim, queue_depth=32, seed=SEED)
    sim.process(proxy.drive(rate_rps=120_000, duration_ns=5 * MS))
    sim.run(until=10 * MS)
    counters = {"served": proxy.served, "dropped": proxy.dropped}
    return counters, proxy.latency.samples_ns, dict(counters)


def priority_port(sim: Simulator) -> tuple:
    host = NfvHost(sim, name="q0", ports=("eth0",), seed=SEED)
    port = PriorityNicPort(sim, "eth1", line_rate_gbps=0.02,
                           queue_frames=16)
    host.manager.ports["eth1"] = port
    host.add_nf(DscpMarker("marker", rules=[
        MarkingRule(match=FlowMatch(protocol=PROTO_UDP),
                    dscp=DSCP_EXPEDITED)]), ring_slots=1024)
    install_chain(host, ["marker"])
    voip = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_UDP, 1, 5060)
    bulk = FiveTuple("10.0.0.3", "10.0.0.4", PROTO_TCP, 2, 80)
    latencies = _egress_latencies(port)

    def traffic():
        # ~33 Mbps of bulk over a 20 Mbps link, plus marked VoIP.
        for _ in range(100):
            for _burst in range(2):
                host.inject("eth0", Packet(flow=bulk, size=1024,
                                           created_at=sim.now))
            host.inject("eth0", Packet(flow=voip, size=128,
                                       created_at=sim.now))
            yield sim.timeout(500 * US)

    sim.process(traffic())
    sim.run(until=80 * MS)
    counters = {
        "summary": host.stats.summary(),
        "per_priority_tx": port.per_priority_tx,
        "tx_dropped": port.tx_dropped,
    }
    facts = {"per_priority_tx": port.per_priority_tx,
             "tx_dropped": port.tx_dropped}
    return counters, latencies, facts


def churn_untrusted(sim: Simulator) -> tuple:
    app = SdnfvApp(sim, trust_nfs=False, validation_latency_ns=1 * MS)
    host = _video_host(sim, app)
    workload = FlowChurnWorkload(sim, host, new_flows_per_second=4000,
                                 window_ns=5 * MS, seed=SEED)
    sim.run(until=30 * MS)
    counters = {
        "summary": host.stats.summary(),
        "completed_flows": workload.completed_flows,
        "flows_started": workload.flows_started,
        "rejected": len(app.rejected_messages),
    }
    facts = {"completed_flows": workload.completed_flows,
             "flows_started": workload.flows_started}
    return counters, workload.out_meter.pps_series(), facts


def video_sessions(sim: Simulator) -> tuple:
    host = _video_host(sim, SdnfvApp(sim))
    workload = VideoSessionWorkload(sim, host, concurrent_flows=20,
                                    mean_lifetime_ns=10 * MS,
                                    per_flow_mbps=2.0, window_ns=5 * MS,
                                    seed=SEED)
    sim.run(until=40 * MS)
    counters = {"summary": host.stats.summary(),
                "sessions_started": workload.sessions_started}
    facts = {"sessions_started": workload.sessions_started}
    return counters, workload.out_pps_series(), facts


def ddos_ramp(sim: Simulator) -> tuple:
    app = SdnfvApp(sim)
    host = NfvHost(sim, name="d0", seed=SEED)
    app.register_host(host)
    host.add_nf(DdosDetector("detector", threshold_gbps=0.05,
                             prefix_bits=16, window_ns=5 * MS),
                ring_slots=1024)
    graph = ServiceGraph("ddos")
    graph.add_service("detector", read_only=True)
    graph.add_edge("detector", EXIT, default=True)
    graph.set_entry("detector")
    app.deploy(graph, proactive=True)
    alarms: list[int] = []
    app.on_message("ddos_alarm", lambda _host, _message: alarms.append(
        sim.now))
    # The ramp reads 0 Mbps at its start and backs off 100 ms before
    # attacking, so the attack itself begins at 105 ms.
    workload = DdosRampWorkload(
        sim, host, normal_mbps=20.0, attack_start_ns=5 * MS,
        attack_ramp_mbps_per_s=20_000.0, attack_max_mbps=150.0,
        packet_size=1024, window_ns=5 * MS, seed=SEED)
    sim.run(until=130 * MS)
    counters = {
        "summary": host.stats.summary(),
        "in": workload.in_meter.pps_series(),
        "alarms": alarms,
    }
    facts = {"alarms": len(alarms)}
    return counters, workload.out_meter.pps_series(), facts


def imix(sim: Simulator) -> tuple:
    host = _noop_host(sim)
    latencies = _egress_latencies(host.port("eth1"))
    source = ImixSource(sim, host, FLOW, rate_mbps=300.0,
                        stop_ns=10 * MS, seed=SEED)
    sim.run(until=15 * MS)
    counters = {"summary": host.stats.summary(), "sent": source.sent,
                "sent_bytes": source.sent_bytes}
    return counters, latencies, {"sent": source.sent}


def trace_replay(sim: Simulator) -> tuple:
    host = _noop_host(sim)
    latencies = _egress_latencies(host.port("eth1"))
    records = [TraceRecord(timestamp_ns=(index * 37 % 11) * 3 * US
                           + index * 20 * US,
                           flow=_flow(5000 + index % 7),
                           size=64 + (index * 97) % 1400)
               for index in range(300)]
    replayer = TraceReplayer(sim, host, records, speedup=2.0)
    sim.run(until=10 * MS)
    counters = {"summary": host.stats.summary(),
                "injected": replayer.injected,
                "done": replayer.done.value}
    return counters, latencies, {"injected": replayer.injected}


def memcached(sim: Simulator) -> tuple:
    host = NfvHost(sim, name="mc0", seed=SEED)
    host.add_nf(MemcachedProxy("mc", servers=[("10.8.0.10", 11211),
                                              ("10.8.0.11", 11211)],
                               parse_cost_ns=0), ring_slots=1024)
    install_chain(host, ["mc"])
    workload = MemcachedWorkload(sim, host, requests_per_second=200_000,
                                 key_space=500, clients=8, seed=SEED)
    sim.run(until=5 * MS)
    counters = {"summary": host.stats.summary(), "sent": workload.sent,
                "forwarded": workload.forwarded}
    return counters, workload.latency.samples_ns, {
        "forwarded": workload.forwarded}


def reactive_telemetry(sim: Simulator) -> tuple:
    controller = ControlPlane(sim, service_time_ns=200 * US,
                               propagation_ns=300 * US)
    app = SdnfvApp(sim, controller=controller)
    host = NfvHost(sim, name="r0", controller=controller, seed=SEED)
    app.register_host(host)
    host.add_nf(NoOpNf("svc"), ring_slots=1024)
    graph = ServiceGraph("g")
    graph.add_service("svc")
    graph.add_edge("svc", EXIT, default=True)
    graph.set_entry("svc")
    app.deploy(graph, proactive=False)
    monitor = ControlPlaneMonitor(sim, controller, hosts=[host]).start(
        interval_ns=1 * MS)
    app.start_telemetry(2 * MS)
    gen = PktGen(sim, host, seed=SEED)
    for index in range(6):
        gen.add_flow(FlowSpec(
            flow=_flow(6000 + index),
            rate_mbps=10.0, packet_size=512, pacing="poisson",
            start_ns=index * 2 * MS, stop_ns=20 * MS))
    sim.run(until=25 * MS)
    counters = {
        "summary": host.stats.summary(),
        "monitor": monitor.summary(),
        "utilization": monitor.utilization[0].points(),
        "queue_depth": monitor.queue_depth[0].points(),
        "miss_rate": monitor.miss_rate.points(),
        "telemetry": len(app.telemetry),
    }
    facts = {"received": gen.received, "telemetry": len(app.telemetry),
             "requests": controller.requests}
    return counters, gen.latency.samples_ns, facts


CASES = {
    "ovs_punt": ovs_punt,
    "sdn_video": sdn_video,
    "twemproxy": twemproxy,
    "priority_port": priority_port,
    "churn_untrusted": churn_untrusted,
    "video_sessions": video_sessions,
    "ddos_ramp": ddos_ramp,
    "imix": imix,
    "trace_replay": trace_replay,
    "memcached": memcached,
    "reactive_telemetry": reactive_telemetry,
}


def run_case(name: str) -> dict:
    """One deterministic run; returns its digest and facts, JSON-ready."""
    sim = Simulator()
    counters, samples, facts = CASES[name](sim)
    pinned = {
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "events_cancelled": sim.events_cancelled,
        "counters": counters,
        "samples": samples,
    }
    blob = json.dumps(pinned, sort_keys=True, default=str)
    behaviour = {key: value for key, value in pinned.items()
                 if key not in ODOMETERS}
    behaviour_blob = json.dumps(behaviour, sort_keys=True, default=str)
    result = {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "sha256_without_odometers":
            hashlib.sha256(behaviour_blob.encode()).hexdigest(),
        "events_scheduled": sim.events_scheduled,
        "samples": len(samples),
        "facts": facts,
    }
    return json.loads(json.dumps(result, sort_keys=True))


def observed() -> dict:
    return {name: run_case(name) for name in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_committed_golden(name, golden):
    assert run_case(name) == golden[name]


def test_golden_exercises_each_system(golden):
    ovs = golden["ovs_punt"]["facts"]
    assert ovs["dropped_punts"] > 0 and ovs["punts_completed"] > 0
    video = golden["sdn_video"]["facts"]
    assert video["completed_flows"] > 0 and video["transcode_dropped"] > 0
    twem = golden["twemproxy"]["facts"]
    assert twem["served"] > 0 and twem["dropped"] > 0
    priority = golden["priority_port"]["facts"]
    assert priority["tx_dropped"] > 0
    assert all(count > 0 for count in priority["per_priority_tx"][::2])
    churn = golden["churn_untrusted"]["facts"]
    assert churn["completed_flows"] > 0
    assert golden["ddos_ramp"]["facts"]["alarms"] > 0
    telemetry = golden["reactive_telemetry"]["facts"]
    assert telemetry["requests"] > 0 and telemetry["telemetry"] > 0
    for run in golden.values():
        assert run["samples"] > 0


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
