"""Figure 10: SDNFV scales by distributing control decisions.

Paper: new video flows arrive at a configurable rate; each is established
after two packets.  "The Controller quickly becomes the bottleneck when
the input rate exceeds 1000 new flows/sec.  On the other hand, the output
rate of SDNFV can linearly increase, and achieves a maximum output rate 9
times greater."

SDN baseline: the first two packets of every flow go to the controller
(500 µs service each → 1000 flows/s ceiling).  SDNFV: the detector and
policy engine run as local NFs with proactive rules; no controller on the
per-flow path.

A second measurement sweeps offered load through line rate at 10^5
concurrent flows on the sharded kernel: a two-host chain whose traffic
round-robins over 100 000 distinct five-tuples, churning the per-flow
plan caches on every burst.  Output rate must track offered load below
saturation and plateau above it, and every packet a host received must
be transmitted or counted as dropped.
"""

import pytest

from repro.baselines import SdnVideoSystem
from repro.control import ControlPlane
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import PolicyEngine, VideoFlowDetector
from repro.sim import MS, US, S, Simulator
from repro.sim.sharded import Scenario, ShardedSimulator, TrafficSpec
from repro.topology import Link, NodeSpec, Topology
from repro.workloads import FlowChurnWorkload

RATES = [500, 1000, 2000, 4000, 9000]
MEASURE_NS = 2 * S


def measure_sdn(rate: float) -> float:
    sim = Simulator()
    controller = ControlPlane(sim, service_time_ns=500_000,
                               propagation_ns=500_000)
    system = SdnVideoSystem(sim, controller)
    workload = FlowChurnWorkload(sim, system, new_flows_per_second=rate)
    sim.run(until=MEASURE_NS)
    return system.completed_flows / (MEASURE_NS / S)


def measure_sdnfv(rate: float) -> float:
    sim = Simulator()
    app = SdnfvApp(sim)
    host = NfvHost(sim, name="sdnfv0")
    app.register_host(host)
    host.add_nf(VideoFlowDetector("vd"), ring_slots=4096)
    host.add_nf(PolicyEngine("pe", detector_service="vd",
                             transcoder_service="tc",
                             exit_port="eth1"), ring_slots=4096)
    graph = ServiceGraph("video")
    graph.add_service("vd", read_only=True)
    graph.add_service("pe")
    graph.add_edge("vd", "pe", default=True)
    graph.add_edge("vd", EXIT)
    graph.add_edge("pe", EXIT, default=True)
    graph.set_entry("vd")
    app.deploy(graph, proactive=True)
    workload = FlowChurnWorkload(sim, host, new_flows_per_second=rate)
    sim.run(until=MEASURE_NS)
    return workload.completed_flows / (MEASURE_NS / S)


def test_fig10_output_flows_vs_new_flows(report):
    def run():
        return ([measure_sdn(rate) for rate in RATES],
                [measure_sdnfv(rate) for rate in RATES])

    sdn, sdnfv = run()

    # SDN saturates near 1000 flows/s (2 × 500 µs controller work/flow).
    assert sdn[RATES.index(1000)] <= 1100
    assert sdn[-1] <= 1100
    # SDNFV keeps up with the offered rate across the sweep (linear).
    for rate, completed in zip(RATES, sdnfv):
        assert completed == pytest.approx(rate, rel=0.15)
    # Paper headline: ~9x higher max output rate.
    ratio = max(sdnfv) / max(sdn)
    assert ratio > 6.0

    columns = {"new_flows_per_s": RATES, "SDN": sdn, "SDNFV": sdnfv}
    report("fig10_flow_scaling", series_table(
        f"Fig. 10 — completed flows/s vs offered new flows/s "
        f"(SDNFV:SDN max ratio {ratio:.1f}x; paper: 9x)", columns),
        metrics=columns)


# ----------------------------------------------------------------------
# Saturation sweep at 10^5 concurrent flows (sharded)
# ----------------------------------------------------------------------

SWEEP_RATES = [6_000.0, 12_000.0, 24_000.0]
SWEEP_FLOWS = 100_000
SWEEP_DURATION = 4 * MS
SWEEP_STOP = 3 * MS
LINK_DELAY = 500 * US

#: Host-summary counters of packets that entered a host's RX path and
#: never left it: with these, ``rx_packets == tx_packets + sum(drops)``.
DROP_KEYS = ("dropped_ring_full", "dropped_by_nf", "dropped_no_rule",
             "dropped_no_vm", "lost_in_nf")


def sweep_scenario(rate_mbps: float) -> Scenario:
    topology = Topology()
    for name in ("n0", "n1"):
        topology.add_node(NodeSpec(name=name, cores=4))
    topology.add_link(Link(a="n0", b="n1", delay_ns=LINK_DELAY))
    graph = ServiceGraph("sweep")
    graph.add_service("a", read_only=True)
    graph.add_service("b", read_only=True)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", EXIT, default=True)
    graph.set_entry("a")
    return Scenario(
        topology=topology, graph=graph,
        placement={"a": "n0", "b": "n1"},
        duration_ns=SWEEP_DURATION,
        traffic=[TrafficSpec(
            host="n0",
            flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
            rate_mbps=rate_mbps, packet_size=64, stop_ns=SWEEP_STOP,
            flow_count=SWEEP_FLOWS)],
    )


def run_sweep_point(rate_mbps: float) -> dict:
    result = ShardedSimulator(sweep_scenario(rate_mbps), shards=2,
                              workers=0).run()
    totals = result.totals()
    window_s = SWEEP_STOP / 1e9
    return {
        "offered_mbps": rate_mbps,
        "output_mbps": totals["received"] * 64 * 8 / window_s / 1e6,
        "sent": totals["sent"],
        "received": totals["received"],
        "rx": totals["rx_packets"],
        "tx": totals["tx_packets"],
        "drops": sum(totals[key] for key in DROP_KEYS),
    }


def test_fig10_saturation_sweep_100k_flows(report):
    points = [run_sweep_point(rate) for rate in SWEEP_RATES]
    by_rate = dict(zip(SWEEP_RATES, points, strict=True))

    # The sweep is real: >= 10^5 packets through 10^5 distinct flows at
    # the top rate, and every packet a host received left it or was
    # counted as dropped.
    top = by_rate[SWEEP_RATES[-1]]
    assert top["sent"] >= 100_000
    assert top["rx"] == top["tx"] + top["drops"]

    # Below line rate the network keeps up with the offered load...
    under = by_rate[SWEEP_RATES[0]]
    assert under["received"] == pytest.approx(under["sent"], rel=0.05)
    # ...and above it the output rate saturates: doubling the offered
    # load again buys almost nothing.
    mid = by_rate[SWEEP_RATES[1]]
    assert top["output_mbps"] < 1.15 * mid["output_mbps"]
    assert mid["output_mbps"] > under["output_mbps"]

    columns = {
        "offered_mbps": SWEEP_RATES,
        "output_mbps": [by_rate[r]["output_mbps"] for r in SWEEP_RATES],
        "sent": [by_rate[r]["sent"] for r in SWEEP_RATES],
        "received": [by_rate[r]["received"] for r in SWEEP_RATES],
    }
    report("fig10_saturation_sweep", series_table(
        f"Fig. 10-style saturation sweep ({SWEEP_FLOWS} concurrent "
        "flows, 2-host sharded chain)", columns),
        metrics=columns,
        config={"flow_count": SWEEP_FLOWS, "packet_size": 64,
                "shards": 2, "duration_ns": SWEEP_DURATION})
