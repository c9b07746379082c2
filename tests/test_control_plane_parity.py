"""Golden parity: ``ControlPlane(shards=1)`` IS the legacy controller.

With one shard and no proactive pre-population, a full reactive run —
misses, controller round trips, rule pulls, deliveries — is
*byte-identical* to the same run against the single controller the plane
replaced: packet-for-packet delivery order, every latency sample, every
stats counter, the control-event timeline, and the kernel's event
odometers.  ``PINNED`` holds that controller's runs as one SHA-256 each
(see :func:`digest`), computed before the plain front end was deleted;
``PINNED_WITHOUT_ODOMETERS`` holds the same runs without the kernel's
entry counts.  Both were re-pinned once since, when ``HostStats`` lost
six counters that were always 0; with those zero keys put back into
each summary the digests are the controller's originals.  ``PINNED``
alone was re-pinned again when the kernel began resuming a wake due
before every queued entry in place, which moved only the entry counts.

A second suite pins the hybrid pipeline's endpoints: a full proactive
cover drives the reactive slow path to zero and reproduces its pin too.
"""

import hashlib
import json

from repro.control import ControlPlane
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.metrics import EventLog
from repro.net import FiveTuple
from repro.nfs import NoOpNf
from repro.sim import MS, US, Simulator
from repro.topology import Link, NodeSpec, Topology, build_network
from repro.workloads import FlowSpec, PktGen

DURATION = 120 * MS

#: :func:`digest` of the single controller's run, keyed by ``proactive``.
PINNED = {
    False: "4a656e6f5bde101d8989abec3e80a3bbec2cc24bd62669bfb3d0e7bd5505f19c",
    True: "58745e347642261defe46420c0783e99021c2817582f93495e503aabf905a080",
}

#: The same runs' ``digest(..., odometers=False)``: everything but the
#: kernel's entry counts, so a change that only removes kernel entries
#: re-pins :data:`PINNED` and leaves these alone.
PINNED_WITHOUT_ODOMETERS = {
    False: "d6e05adcd15e90a72a62f5396f9e3d1e0f03e5c531948a435b8db4ba2465c394",
    True: "1333a585629a51ca5a15d58b644b103c9ca7a10202c5e1bbbdeeb482b16f8789",
}

FLOWS = (
    FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
    FiveTuple("10.0.0.3", "10.0.0.4", 17, 2, 53),
    FiveTuple("10.0.0.5", "10.0.0.6", 6, 3, 443),
)


def two_host_topology() -> Topology:
    topology = Topology()
    topology.add_node(NodeSpec(name="h0", cores=4))
    topology.add_node(NodeSpec(name="h1", cores=4))
    topology.add_link(Link(a="h0", b="h1", delay_ns=500 * US))
    return topology


def chain_graph() -> ServiceGraph:
    graph = ServiceGraph("parity")
    graph.add_service("a", read_only=True)
    graph.add_service("b", read_only=True)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", EXIT, default=True)
    graph.set_entry("a")
    return graph


def run_network(controller_factory, proactive: bool) -> dict:
    """One deterministic two-host run; returns everything observable."""
    sim = Simulator()
    network = build_network(sim, two_host_topology())
    controller = controller_factory(sim)
    event_log = EventLog(sim)
    app = SdnfvApp(sim, controller=controller)
    for host in network.hosts.values():
        app.register_host(host)
        host.manager.controller = controller
        host.manager.event_log = event_log
    app.attach_event_log(event_log)
    placement = {"a": "h0", "b": "h1"}
    for service, host_name in placement.items():
        network.hosts[host_name].add_nf(NoOpNf(service), ring_slots=256)
    app.deploy(chain_graph(), placement=placement, network=network,
               proactive=proactive)

    gen = PktGen(sim, network.hosts["h0"], measure_ports=())
    deliveries: list[tuple] = []
    exit_port = network.hosts["h1"].port("eth1")
    measured = exit_port.on_egress

    def recording_hook(packet):
        flow = packet.flow
        deliveries.append((sim.now, packet.created_at,
                           (flow.src_ip, flow.dst_ip, flow.protocol,
                            flow.src_port, flow.dst_port)))
        if measured is not None:
            measured(packet)

    exit_port.on_egress = recording_hook
    for index, flow in enumerate(FLOWS):
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=200.0, packet_size=256,
                              start_ns=index * MS, stop_ns=80 * MS))
    sim.run(until=DURATION)
    return {
        "deliveries": deliveries,
        "latency_samples": list(gen.latency.samples_ns),
        "summaries": {name: host.stats.summary()
                      for name, host in network.hosts.items()},
        "events": list(event_log.events),
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "events_cancelled": sim.events_cancelled,
        "sent": gen.sent,
        "frames_carried": network.fabric.frames_carried,
    }


def digest(result: dict, odometers: bool = True) -> str:
    """SHA-256 over deliveries, latency samples, per-host summaries,
    the event log's records and the kernel's three odometers.

    ``odometers=False`` leaves out ``events_scheduled`` and
    ``timers_scheduled``, which count kernel entries rather than what
    the simulated network did.
    """
    pinned = {
        "deliveries": result["deliveries"],
        "latency_samples": result["latency_samples"],
        "summaries": result["summaries"],
        "events": [(event.timestamp_ns, event.category, event.host,
                    [(name, repr(value)) for name, value in event.detail])
                   for event in result["events"]],
        "events_scheduled": result["events_scheduled"],
        "timers_scheduled": result["timers_scheduled"],
        "events_cancelled": result["events_cancelled"],
    }
    if not odometers:
        del pinned["events_scheduled"], pinned["timers_scheduled"]
    blob = json.dumps(pinned, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def single_shard(sim: Simulator) -> ControlPlane:
    return ControlPlane(sim, shards=1)


class TestReactiveGoldenParity:
    """shards=1, proactive=False — byte-identical to the legacy path."""

    def test_single_shard_plane_matches_plain_controller(self):
        plane = run_network(single_shard, proactive=False)
        assert digest(plane) == PINNED[False]
        assert digest(plane, odometers=False) \
            == PINNED_WITHOUT_ODOMETERS[False]
        # Sanity: this really was the reactive slow path end to end.
        assert plane["deliveries"]
        assert plane["summaries"]["h0"]["sdn_requests"] == len(FLOWS)
        assert plane["summaries"]["h0"]["reactive_misses"] == len(FLOWS)

    def test_reactive_run_classifies_every_flow_as_miss(self):
        h0 = run_network(single_shard, proactive=False)["summaries"]["h0"]
        assert h0["proactive_hits"] == 0
        assert h0["reactive_misses"] == len(FLOWS)


class TestProactiveParity:
    """Full pre-population: the slow path never fires, and the run
    reproduces the single controller's."""

    def test_proactive_cover_eliminates_misses(self):
        result = run_network(single_shard, proactive=True)
        for name in ("h0", "h1"):
            summary = result["summaries"][name]
            assert summary["sdn_requests"] == 0
            assert summary["reactive_misses"] == 0
        assert result["summaries"]["h0"]["proactive_hits"] == len(FLOWS)
        assert result["deliveries"]

    def test_proactive_runs_identical_across_front_ends(self):
        result = run_network(single_shard, proactive=True)
        assert digest(result) == PINNED[True]
        assert digest(result, odometers=False) \
            == PINNED_WITHOUT_ODOMETERS[True]

    def test_proactive_beats_reactive_first_packet_latency(self):
        reactive = run_network(single_shard, proactive=False)
        proactive = run_network(single_shard, proactive=True)
        # Same flows delivered, but the reactive run's first packets ate
        # a 31 ms controller round trip the proactive run never paid.
        def latencies(result):
            return [now - created for now, created, _flow
                    in result["deliveries"]]
        assert max(latencies(proactive)) < 31 * MS
        assert max(latencies(reactive)) > 31 * MS
