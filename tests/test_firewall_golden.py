"""Golden digest of a short Fig. 7 Firewall -> FlowMonitor -> DscpMarker run.

The Firewall carries 16 prefix rules of mixed lengths (/0 to /32) that
allow some generated sources, deny others and miss the rest, so the run
exercises every branch of ``FlowMatch.matches`` on the packet path.
Everything the run observes is pinned: the delivered count, every RTT
sample, ``HostStats.summary()`` and the Firewall's allowed/denied
counts.  A change to how flows are matched must reproduce it exactly.
Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src python -m tests.test_firewall_golden \\
        > tests/data/fig7_firewall_golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.api import (
    EXIT,
    MS,
    FiveTuple,
    FlowMatch,
    FlowSpec,
    NfvHost,
    PktGen,
    SdnfvApp,
    ServiceGraph,
    Simulator,
)
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.nfs import DscpMarker, Firewall, FirewallRule, FlowMonitor

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "fig7_firewall_golden.json")

STOP_NS = MS // 2


def firewall_rules() -> list[FirewallRule]:
    """16 first-match rules: allows, denies and never-matching prefixes."""
    rules = [
        FirewallRule(FlowMatch(src_ip="10.1.0.0", src_prefix_bits=16),
                     allow=True),
        FirewallRule(FlowMatch(src_ip="10.0.0.0", src_prefix_bits=8),
                     allow=False),
        FirewallRule(FlowMatch(src_ip="172.16.0.0", src_prefix_bits=12),
                     allow=False),
        FirewallRule(FlowMatch(src_ip="192.168.1.128", src_prefix_bits=25),
                     allow=False),
        FirewallRule(FlowMatch(src_ip="203.0.113.0", src_prefix_bits=24),
                     allow=False),
    ]
    # Never-matching prefixes of every length class the scan must pass.
    rules += [FirewallRule(FlowMatch(src_ip=f"198.51.{index}.7",
                                     src_prefix_bits=20 + index),
                           allow=False)
              for index in range(8)]
    rules += [
        FirewallRule(FlowMatch(protocol=PROTO_UDP, dst_port=53),
                     allow=False),
        FirewallRule(FlowMatch(dst_ip="10.250.0.9"), allow=False),
        FirewallRule(FlowMatch(src_ip="0.0.0.0", src_prefix_bits=0,
                               dst_port=23), allow=False),
    ]
    assert len(rules) == 16
    return rules


#: (base source, base source port, protocol): 64 round-robin flows each;
#: the last base rolls its source address over a /24 boundary mid-spec.
TRAFFIC = (
    ("10.0.0.1", 1000, PROTO_UDP),
    ("10.1.7.9", 2000, PROTO_TCP),
    ("172.20.3.4", 3000, PROTO_UDP),
    ("192.168.1.130", 4000, PROTO_TCP),
    ("192.168.1.5", 5000, PROTO_UDP),
    ("203.0.113.255", 65500, PROTO_TCP),
)


def run_chain() -> dict:
    """One deterministic run; returns its observables, JSON-ready."""
    sim = Simulator()
    host = NfvHost(sim, name="fig7", seed=5)
    app = SdnfvApp(sim)
    app.register_host(host)
    firewall = Firewall("fw", rules=firewall_rules())
    host.add_nf(firewall, ring_slots=1024)
    host.add_nf(FlowMonitor("mon"), ring_slots=1024)
    host.add_nf(DscpMarker("dscp", default_dscp=46), ring_slots=1024)
    graph = ServiceGraph("fig7")
    for service in ("fw", "mon", "dscp"):
        graph.add_service(service)
    graph.add_edge("fw", "mon", default=True)
    graph.add_edge("mon", "dscp", default=True)
    graph.add_edge("dscp", EXIT, default=True)
    graph.set_entry("fw")
    app.deploy(graph)

    gen = PktGen(sim, host, window_ns=MS, seed=5)
    for src_ip, src_port, protocol in TRAFFIC:
        base = FiveTuple(src_ip, "10.250.0.2", protocol, src_port, 80)
        gen.add_flow(FlowSpec(flow=base, rate_mbps=1_000.0,
                              packet_size=64, stop_ns=STOP_NS,
                              flow_count=64))
    sim.run(until=STOP_NS + MS)

    samples = gen.latency.samples_ns
    return {
        "sent": gen.sent,
        "delivered": gen.received,
        "rtt_count": len(samples),
        "rtt_sha256": hashlib.sha256(
            ",".join(map(str, samples)).encode()).hexdigest(),
        "summary": host.stats.summary(),
        "firewall_allowed": firewall.allowed,
        "firewall_denied": firewall.denied,
    }


def observed() -> dict:
    return json.loads(json.dumps(run_chain(), sort_keys=True))


def test_run_matches_committed_golden():
    assert observed() == json.loads(GOLDEN_PATH.read_text())


def test_golden_exercises_allow_and_deny():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["firewall_allowed"] > 0
    assert golden["firewall_denied"] > 0
    assert golden["delivered"] > 0
    assert golden["rtt_count"] == golden["delivered"]


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
