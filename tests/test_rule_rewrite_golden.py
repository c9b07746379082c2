"""Golden digests of the NF Manager's per-flow rule rewrites (§3.4).

Cross-layer messages rewrite flow rules: ``ChangeDefault``, ``SkipMe``
and ``RequestMe`` with exact-flow criteria specialise a wildcard rule
into a per-flow copy with a new default; with wildcard criteria they
rewrite the rules inside the criteria in place, and ``ChangeDefault``
carves a higher-priority override out of a broader rule.  The cases:

- ``churn_change_default``: ``FlowChurnWorkload`` into the Fig. 10
  detector -> policy engine host with an app that validates every
  message (``trust_nfs=False``); each new flow gets one exact-flow
  ``ChangeDefault`` on the detector;
- ``throttle_flip``: the same host with a transcoder, where
  ``PolicyEngine.set_throttle(True)`` mid-run sends a wildcard
  ``RequestMe``, then one ``ChangeDefault`` to the transcoder per flow;
- ``skip_me``: ``SkipMe`` with exact and wildcard criteria, plus an
  exact ``RequestMe``, between bursts of traffic on a three-NF chain;
- ``wildcard_override``: an exact ``ChangeDefault``, a wildcard one that
  rewrites that per-flow rule and carves an override out of the
  broader rule, then an exact one over the existing per-flow rule.

Each case pins one SHA-256 over every table entry's scope, match,
actions, priority, proactive flag, timeouts, ``installed_at_ns`` and
``last_hit_ns`` (in table order), the table's ``lookups`` and
``misses``, the host's counters (scalar, per service and per port) and
the event log's ``rule_install`` records.  ``entry_id`` and ``generation`` are left out:
they count rule copies and table mutations, which a cheaper rewrite may
do fewer of without changing any rule or any packet's path.  Regenerate
(only for a deliberate behaviour change) with::

    PYTHONPATH=src python -m tests.test_rule_rewrite_golden \\
        > tests/data/rule_rewrite_golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import FlowTableEntry, NfvHost, ToPort, ToService
from repro.dataplane.messages import ChangeDefault, RequestMe, SkipMe
from repro.metrics.eventlog import EventLog
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.nfs import NoOpNf, PolicyEngine, Transcoder, VideoFlowDetector
from repro.sim import MS, US, Simulator
from repro.workloads import FlowChurnWorkload

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "rule_rewrite_golden.json")

SEED = 9


def _flow(index: int, protocol: int = PROTO_TCP,
          dst_port: int = 80) -> FiveTuple:
    return FiveTuple("10.0.0.1", f"10.0.1.{index}", protocol,
                     1000 + index, dst_port)


def _video_host(sim: Simulator, app: SdnfvApp,
                transcoder: bool) -> tuple[NfvHost, PolicyEngine]:
    """The Fig. 10 SDNFV arm, optionally with a transcoder behind the
    policy engine."""
    host = NfvHost(sim, name="v0", seed=SEED)
    app.register_host(host)
    engine = PolicyEngine("pe", detector_service="vd",
                          transcoder_service="tc", exit_port="eth1")
    host.add_nf(VideoFlowDetector("vd"), ring_slots=1024)
    host.add_nf(engine, ring_slots=1024)
    graph = ServiceGraph("video")
    graph.add_service("vd", read_only=True)
    graph.add_service("pe")
    graph.add_edge("vd", "pe", default=True)
    graph.add_edge("vd", EXIT)
    graph.add_edge("pe", EXIT, default=True)
    if transcoder:
        host.add_nf(Transcoder("tc"), ring_slots=1024)
        graph.add_service("tc")
        graph.add_edge("pe", "tc")
        graph.add_edge("tc", EXIT, default=True)
    graph.set_entry("vd")
    app.deploy(graph, proactive=True)
    return host, engine


def _logged_app(sim: Simulator) -> tuple[SdnfvApp, EventLog]:
    app = SdnfvApp(sim, trust_nfs=False)
    log = EventLog(sim)
    app.attach_event_log(log)
    return app, log


def _attach_log(host: NfvHost) -> EventLog:
    log = EventLog(host.sim)
    host.manager.event_log = log
    return log


def _send(host: NfvHost, flows: list[FiveTuple], at_ns: int) -> None:
    """Inject one 128 B packet of each flow at ``at_ns``."""
    def inject() -> None:
        for flow in flows:
            host.inject("eth0", host.packet_pool.alloc(flow=flow, size=128))
    host.sim.schedule(at_ns - host.sim.now, inject)


def _message(host: NfvHost, message, at_ns: int) -> None:
    host.sim.schedule(at_ns - host.sim.now,
                      lambda: host.manager.submit_nf_message(message))


def _sink(host: NfvHost) -> None:
    """Reclaim every transmitted frame, as the other goldens do."""
    for port in host.manager.ports.values():
        port.on_egress = _reclaim


def _reclaim(packet: Packet) -> None:
    pool = packet.pool
    if pool is not None and packet.ref_count == 0:
        pool.reclaim(packet)


def churn_change_default(sim: Simulator) -> tuple:
    app, log = _logged_app(sim)
    host, _engine = _video_host(sim, app, transcoder=False)
    workload = FlowChurnWorkload(sim, host, new_flows_per_second=5000,
                                 window_ns=5 * MS, seed=SEED)
    sim.run(until=20 * MS)
    facts = {"flows_started": workload.flows_started,
             "completed_flows": workload.completed_flows,
             "rejected": len(app.rejected_messages)}
    return host, log, facts


def throttle_flip(sim: Simulator) -> tuple:
    app, log = _logged_app(sim)
    host, engine = _video_host(sim, app, transcoder=True)
    workload = FlowChurnWorkload(sim, host, new_flows_per_second=5000,
                                 window_ns=5 * MS, seed=SEED)
    sim.schedule(8 * MS, lambda: engine.set_throttle(True))
    sim.run(until=20 * MS)
    facts = {"flows_started": workload.flows_started,
             "flows_throttled": len(engine.flows_throttled),
             "rejected": len(app.rejected_messages)}
    return host, log, facts


def skip_me(sim: Simulator) -> tuple:
    host = NfvHost(sim, name="s0", seed=SEED)
    log = _attach_log(host)
    for service in ("a", "b", "c"):
        host.add_nf(NoOpNf(service), ring_slots=256)
    host.install_rule(FlowTableEntry(
        scope="eth0", match=FlowMatch.any(), actions=(ToService("a"),)))
    host.install_rule(FlowTableEntry(
        scope="a", match=FlowMatch.any(),
        actions=(ToService("b"), ToService("c"))))
    host.install_rule(FlowTableEntry(
        scope="a", match=FlowMatch(protocol=PROTO_UDP),
        actions=(ToService("b"), ToService("c"))))
    host.install_rule(FlowTableEntry(
        scope="b", match=FlowMatch.any(), actions=(ToService("c"),)))
    host.install_rule(FlowTableEntry(
        scope="c", match=FlowMatch.any(), actions=(ToPort("eth1"),)))
    _sink(host)
    tcp = [_flow(index) for index in range(1, 5)]
    udp = [_flow(index, PROTO_UDP, 53) for index in range(5, 8)]
    _send(host, tcp + udp, 1 * MS)
    # Exact criteria: flow 1 skips b, specialised from a's * rule.
    _message(host, SkipMe(sender_service="b", service="b",
                          flows=FlowMatch.exact(tcp[0])), 2 * MS)
    # Wildcard criteria: a's UDP rule is rewritten in place, then
    # replaced where it stands by the priority-1 override carved out of
    # a's * rule, which the message selects too.
    _message(host, SkipMe(sender_service="b", service="b",
                          flows=FlowMatch(protocol=PROTO_UDP)), 2 * MS)
    # Exact RequestMe: flow 2's rule in a makes c its default.
    _message(host, RequestMe(sender_service="c", service="c",
                             flows=FlowMatch.exact(tcp[1])), 3 * MS)
    # Exact SkipMe over the per-flow rule flow 2 now has: no-op, as c
    # is its default already; then flow 3 skips b as well.
    _message(host, SkipMe(sender_service="b", service="b",
                          flows=FlowMatch.exact(tcp[1])), 4 * MS)
    _message(host, SkipMe(sender_service="b", service="b",
                          flows=FlowMatch.exact(tcp[2])), 4 * MS)
    _send(host, tcp + udp, 5 * MS)
    sim.run(until=8 * MS)
    facts = {"per_service_packets": dict(host.stats.per_service_packets)}
    return host, log, facts


def wildcard_override(sim: Simulator) -> tuple:
    host = NfvHost(sim, name="w0", ports=("eth0", "fast", "slow"),
                   seed=SEED)
    log = _attach_log(host)
    host.add_nf(NoOpNf("det"), ring_slots=256)
    host.install_rule(FlowTableEntry(
        scope="eth0", match=FlowMatch.any(), actions=(ToService("det"),)))
    host.install_rule(FlowTableEntry(
        scope="det", match=FlowMatch.any(),
        actions=(ToPort("slow"), ToPort("fast"))))
    _sink(host)
    web = [_flow(index) for index in range(1, 4)]
    dns = [_flow(index, PROTO_UDP, 53) for index in range(4, 6)]
    _send(host, web + dns, 1 * MS)
    _message(host, ChangeDefault(sender_service="det", service="det",
                                 flows=FlowMatch.exact(web[0]),
                                 target="port:fast"), 2 * MS)
    _send(host, web + dns, 3 * MS)
    # Rewrites web[0]'s per-flow rule and carves a priority-1 override
    # for every flow to port 80 out of the * rule.
    _message(host, ChangeDefault(sender_service="det", service="det",
                                 flows=FlowMatch(dst_port=80),
                                 target="port:slow"), 4 * MS)
    _send(host, web + dns, 5 * MS)
    # Over the existing per-flow rule.
    _message(host, ChangeDefault(sender_service="det", service="det",
                                 flows=FlowMatch.exact(web[0]),
                                 target="drop"), 6 * MS)
    _send(host, web + dns, 7 * MS + 10 * US)
    sim.run(until=9 * MS)
    facts = {"per_port_tx_bytes": dict(host.stats.per_port_tx_bytes),
             "dropped_by_nf": host.stats.dropped_by_nf}
    return host, log, facts


CASES = {
    "churn_change_default": churn_change_default,
    "throttle_flip": throttle_flip,
    "skip_me": skip_me,
    "wildcard_override": wildcard_override,
}


def _entry_state(entry: FlowTableEntry) -> list:
    return [entry.scope, repr(entry.match),
            [repr(action) for action in entry.actions],
            entry.priority, entry.proactive, entry.idle_timeout_ns,
            entry.hard_timeout_ns, entry.installed_at_ns, entry.last_hit_ns]


def run_case(name: str) -> dict:
    """One deterministic run; returns its digest and facts, JSON-ready."""
    sim = Simulator()
    host, log, facts = CASES[name](sim)
    table = host.flow_table
    entries = [_entry_state(entry) for entry in table.entries()]
    installs = [[event.timestamp_ns, event.host, event.get("scope"),
                 event.get("default")]
                for event in log.filter("rule_install")]
    pinned = {
        "entries": entries,
        "lookups": table.lookups,
        "misses": table.misses,
        "counters": host.stats.summary(),
        "per_service_packets": dict(host.stats.per_service_packets),
        "per_port_tx_bytes": dict(host.stats.per_port_tx_bytes),
        "rule_installs": installs,
    }
    blob = json.dumps(pinned, sort_keys=True, default=str)
    result = {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "entries": len(entries),
        "exact_entries": sum(1 for entry in table.entries()
                             if entry.match.is_exact),
        "rule_installs": len(installs),
        "lookups": table.lookups,
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


def test_golden_exercises_each_rewrite(golden):
    churn = golden["churn_change_default"]
    assert churn["facts"]["flows_started"] > 0
    assert churn["facts"]["rejected"] == 0
    assert churn["exact_entries"] >= churn["facts"]["flows_started"] // 2
    throttle = golden["throttle_flip"]
    assert throttle["facts"]["flows_throttled"] > 0
    assert throttle["facts"]["rejected"] == 0
    skip = golden["skip_me"]
    assert skip["exact_entries"] == 3
    assert skip["facts"]["per_service_packets"]["b"] > 0
    override = golden["wildcard_override"]
    assert override["exact_entries"] == 1
    assert override["entries"] == 4


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
