"""Golden digests of the NF Manager's §4.2 lookup-plan cache.

The manager caches, per flow, the rule each scope's lookup found, and
serves later packets of the flow from that plan for free until the flow
table changes.  A cheaper cache must serve exactly the same hits and
charge exactly the same lookups.  The cases:

- ``live_past_cap``: more live flows than a monkeypatched
  ``_PLAN_CACHE_LIMIT`` holds, over a three-scope chain, with no table
  change after set-up: the cap evicts plans that are still current and
  a returning flow pays its lookups again;
- ``churn_untrusted``: ``FlowChurnWorkload`` into the Fig. 10 detector
  -> policy engine host with an app that validates every message
  (``trust_nfs=False``); each new flow's ``ChangeDefault`` changes the
  table, so no plan outlives its flow's next packet;
- ``wildcard_over_stale``: a small cap filled with plans, then a
  wildcard install that makes every one of them stale while the cache
  is full, then new and returning flows and a second wildcard install.

Each case pins one SHA-256 over the table's ``lookups`` and ``misses``,
``HostStats.summary()``, every egress frame's host latency (in egress
order) and the event log's ``rule_install`` records, plus a few
readable facts.  Regenerate (only for a deliberate behaviour change)
with::

    PYTHONPATH=src python -m tests.test_plan_cache_golden \\
        > tests/data/plan_cache_golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from unittest import mock

import pytest

from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import FlowTableEntry, NfvHost, ToPort
from repro.dataplane import manager as manager_module
from repro.metrics.eventlog import EventLog
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP
from repro.nfs import NoOpNf, PolicyEngine, VideoFlowDetector
from repro.sim import MS, US, Simulator
from repro.workloads import FlowChurnWorkload

from tests.conftest import install_chain

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "plan_cache_golden.json")

SEED = 13


def _flow(index: int) -> FiveTuple:
    dst_port = 443 if index % 2 else 80
    return FiveTuple("10.0.0.1", f"10.0.1.{index}", PROTO_TCP,
                     1000 + index, dst_port)


def _record_latencies(host: NfvHost, samples: list[int]) -> None:
    """Chain a recorder in front of every port's egress hook; frames
    nobody else takes go back to the pool."""
    sim = host.sim
    for port in host.manager.ports.values():
        sink = port.on_egress

        def record(packet: Packet, sink=sink) -> None:
            samples.append(sim.now - packet.created_at)
            if sink is not None:
                sink(packet)
            elif packet.pool is not None and packet.ref_count == 0:
                packet.pool.reclaim(packet)

        port.on_egress = record


def _send(host: NfvHost, flows: list[FiveTuple], at_ns: int) -> None:
    """Inject one 128 B packet of each flow at ``at_ns``."""
    sim = host.sim

    def inject() -> None:
        for flow in flows:
            host.inject("eth0", host.packet_pool.alloc(
                flow=flow, size=128, created_at=sim.now))
    sim.schedule(at_ns - sim.now, inject)


def _logged_host(sim: Simulator, ports: tuple[str, ...]
                 ) -> tuple[NfvHost, EventLog]:
    host = NfvHost(sim, name="p0", ports=ports, seed=SEED)
    log = EventLog(sim)
    host.manager.event_log = log
    return host, log


def live_past_cap(sim: Simulator) -> tuple:
    host, log = _logged_host(sim, ("eth0", "eth1"))
    for service in ("a", "b"):
        host.add_nf(NoOpNf(service), ring_slots=256)
    install_chain(host, ["a", "b"])
    samples: list[int] = []
    _record_latencies(host, samples)
    flows = [_flow(index) for index in range(12)]
    rng = random.Random(SEED)
    rounds = 24
    for round_index in range(rounds):
        chosen = rng.sample(flows, rng.randint(3, 9))
        _send(host, chosen, (1 + round_index) * 200 * US)
    with mock.patch.object(manager_module, "_PLAN_CACHE_LIMIT", 8):
        sim.run(until=(rounds + 5) * 200 * US)
    facts = {"tx_packets": host.stats.tx_packets,
             "generation": host.flow_table.generation}
    return host, log, samples, facts


def churn_untrusted(sim: Simulator) -> tuple:
    app = SdnfvApp(sim, trust_nfs=False)
    log = EventLog(sim)
    app.attach_event_log(log)
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
    workload = FlowChurnWorkload(sim, host, new_flows_per_second=20_000,
                                 window_ns=5 * MS, seed=SEED)
    samples: list[int] = []
    _record_latencies(host, samples)
    sim.run(until=20 * MS)
    facts = {"flows_started": workload.flows_started,
             "completed_flows": workload.completed_flows,
             "rejected": len(app.rejected_messages)}
    return host, log, samples, facts


def wildcard_over_stale(sim: Simulator) -> tuple:
    host, log = _logged_host(sim, ("eth0", "eth1", "eth2"))
    host.add_nf(NoOpNf("a"), ring_slots=256)
    install_chain(host, ["a"])
    samples: list[int] = []
    _record_latencies(host, samples)
    flows = [_flow(index) for index in range(8)]

    def install_at(entry: FlowTableEntry, at_ns: int) -> None:
        sim.schedule(at_ns - sim.now, lambda: host.install_rule(entry))

    # Four flows fill the cap with current plans (two scopes each).
    _send(host, flows[:4], 1 * MS)
    _send(host, flows[:4], 1 * MS + 300 * US)
    # A wildcard install while the cap is full: every plan goes stale.
    install_at(FlowTableEntry(scope="a", match=FlowMatch(dst_port=443),
                              actions=(ToPort("eth2"),), priority=1),
               2 * MS)
    # New flows take the place of stale plans, old flows come back; flow
    # 3 has a stale plan whose rule in "a" the install overrode.
    _send(host, [flows[4], flows[3], flows[5]], 3 * MS)
    _send(host, flows[4:6] + flows[:2], 3 * MS + 300 * US)
    _send(host, flows, 4 * MS)
    _send(host, flows[2:], 4 * MS + 300 * US)
    # A second wildcard install over a full cap of current plans.
    install_at(FlowTableEntry(scope="eth0", match=FlowMatch(dst_port=80),
                              actions=(ToPort("eth1"),), priority=1),
               5 * MS)
    _send(host, flows[::-1], 6 * MS)
    _send(host, flows[:3], 6 * MS + 300 * US)
    with mock.patch.object(manager_module, "_PLAN_CACHE_LIMIT", 4):
        sim.run(until=8 * MS)
    facts = {"tx_packets": host.stats.tx_packets,
             "per_port_tx_bytes": dict(host.stats.per_port_tx_bytes)}
    return host, log, samples, facts


CASES = {
    "live_past_cap": live_past_cap,
    "churn_untrusted": churn_untrusted,
    "wildcard_over_stale": wildcard_over_stale,
}


def run_case(name: str) -> dict:
    """One deterministic run; returns its digest and facts, JSON-ready."""
    sim = Simulator()
    host, log, samples, facts = CASES[name](sim)
    table = host.flow_table
    installs = [[event.timestamp_ns, event.host, event.get("scope"),
                 event.get("default")]
                for event in log.filter("rule_install")]
    pinned = {
        "lookups": table.lookups,
        "misses": table.misses,
        "summary": host.stats.summary(),
        "latencies_ns": samples,
        "rule_installs": installs,
    }
    blob = json.dumps(pinned, sort_keys=True, default=str)
    result = {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "lookups": table.lookups,
        "egress_frames": len(samples),
        "rule_installs": len(installs),
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


def test_golden_exercises_the_cache(golden):
    live = golden["live_past_cap"]
    # Three scopes per packet: fewer lookups than that means plan hits,
    # more than three per flow means the cap evicted live plans.
    assert 3 * 12 < live["lookups"] < 3 * live["facts"]["tx_packets"]
    assert live["rule_installs"] == 3
    churn = golden["churn_untrusted"]
    assert churn["facts"]["completed_flows"] > 0
    assert churn["facts"]["rejected"] == 0
    assert churn["rule_installs"] > churn["facts"]["flows_started"] // 2
    stale = golden["wildcard_over_stale"]
    assert stale["rule_installs"] == 4
    assert stale["lookups"] < 2 * stale["facts"]["tx_packets"]
    assert set(stale["facts"]["per_port_tx_bytes"]) >= {"eth1", "eth2"}


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
