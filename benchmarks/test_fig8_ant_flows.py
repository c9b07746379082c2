"""Figure 8: the Ant Flow Detector reroutes an ant flow to a faster link.

Paper timeline (180 s): two flows share a slow link and see high latency;
at 50 s Flow 1 (64 B packets) lowers its rate, is reclassified as an ant,
and is moved to a faster link via ChangeDefault — its latency drops, and
Flow 2's latency also improves because contention on the slow link falls.
At 105 s Flow 1 raises its rate again and is reclassified as an elephant.

Scaling: the timeline runs 1:10 (18 s simulated), rates are scaled so the
slow link saturates the same way, and the detector window shrinks from
2 s to 0.2 s accordingly.
"""


from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import AntFlowDetector
from repro.sim import MS, S, Simulator
from repro.workloads import FlowSpec, PktGen
from repro.dataplane import FlowTableEntry, ToPort, ToService
from repro.net.flow import FlowMatch

# Scaled timeline (1:10 against the paper's 180 s).
PHASE1_END = 5 * S     # both flows fast: elephants
PHASE2_END = 10_500 * MS  # flow 1 slow: ant
RUN_END = 18 * S

SLOW_LINK_MBPS = 40.0   # slow shared link capacity
FAST_LINK_MBPS = 1000.0


def run_fig8():
    sim = Simulator()
    host = NfvHost(sim, name="ant0", ports=("eth0",))
    # Two egress links with very different capacities: queueing on the
    # slow link is what creates the latency difference.
    host.manager.add_port("slow", line_rate_gbps=SLOW_LINK_MBPS / 1000.0)
    host.manager.add_port("fast", line_rate_gbps=FAST_LINK_MBPS / 1000.0)
    detector = AntFlowDetector(
        "ant", fast_target="port:fast", slow_target="port:slow",
        window_ns=200 * MS, ant_max_packet_size=256,
        ant_max_rate_mbps=2.0)
    host.add_nf(detector, ring_slots=4096)
    host.install_rule(FlowTableEntry(
        scope="eth0", match=FlowMatch.any(),
        actions=(ToService("ant"),)))
    host.install_rule(FlowTableEntry(
        scope="ant", match=FlowMatch.any(),
        actions=(ToPort("slow"), ToPort("fast"))))

    flow1 = FiveTuple("10.0.1.1", "10.0.2.1", 6, 1001, 80)
    flow2 = FiveTuple("10.0.1.2", "10.0.2.2", 6, 1002, 80)
    gen = PktGen(sim, host, measure_ports=("slow", "fast"),
                 window_ns=500 * MS)
    lat1 = gen.track_flow(flow1)
    lat2 = gen.track_flow(flow2)
    # Flow 1: small packets, initially fast (elephant-rate).  Poisson
    # arrivals so the slow link sees real queueing at high utilization
    # (phase 1 runs the slow link at ~90 %).
    spec1 = gen.add_flow(FlowSpec(flow=flow1, rate_mbps=16.0,
                                  packet_size=64, pacing="poisson"))
    # Flow 2: large packets, constant rate.
    gen.add_flow(FlowSpec(flow=flow2, rate_mbps=20.0, packet_size=1024,
                          pacing="poisson"))

    timeline = {}

    def snapshot(name):
        def take():
            timeline[name] = {
                "flow1_us": (lat1.mean_us() if len(lat1) else None),
                "flow2_us": (lat2.mean_us() if len(lat2) else None),
            }
            lat1.clear()
            lat2.clear()
        return take

    sim.schedule(PHASE1_END, snapshot("phase1 (both elephants)"))
    sim.schedule(PHASE1_END, lambda: setattr(spec1, "rate_mbps", 0.8))
    sim.schedule(PHASE2_END, snapshot("phase2 (flow1 ant)"))
    sim.schedule(PHASE2_END, lambda: setattr(spec1, "rate_mbps", 16.0))
    sim.schedule(RUN_END - 1, snapshot("phase3 (flow1 elephant again)"))
    sim.run(until=RUN_END)
    return detector, timeline


def test_fig8_ant_flow_rerouting(report):
    detector, timeline = run_fig8()
    phase1 = timeline["phase1 (both elephants)"]
    phase2 = timeline["phase2 (flow1 ant)"]
    phase3 = timeline["phase3 (flow1 elephant again)"]

    # Phase 2: flow 1 was rerouted to the fast link -> latency collapses.
    assert phase2["flow1_us"] < phase1["flow1_us"] / 3
    # Flow 2 improves too: less contention on the slow link.
    assert phase2["flow2_us"] < phase1["flow2_us"] * 0.9
    # Phase 3: flow 1 back to elephant -> latency rises again.
    assert phase3["flow1_us"] > phase2["flow1_us"] * 2
    # The detector reclassified at each phase change.
    assert detector.reclassifications >= 3

    columns = {"phase": list(timeline),
               "flow1_us": [timeline[k]["flow1_us"] for k in timeline],
               "flow2_us": [timeline[k]["flow2_us"] for k in timeline]}
    report("fig8_ant_flows", series_table(
        "Fig. 8 — mean RTT per phase (us); ant phase = 5s–10.5s "
        "(timeline scaled 1:10)", columns), metrics=columns)
