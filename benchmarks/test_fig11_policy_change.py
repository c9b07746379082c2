"""Figure 11: SDNFV reacts to a policy change on all flows; SDN only on
new flows.

Paper (360 s, 400 video flows, 40 s mean lifetime, transcoder halves each
flow's rate, throttling from 60 s to 240 s): SDNFV's policy engine issues
RequestMe on the change and immediately retargets every live flow; the
SDN controller can only attach the transcoder to flows that set up after
the change, so its output rate "significantly lags behind the target".

Scaling: 1:4 in time (90 s run, 10 s lifetimes, throttle 15–60 s) and 100
concurrent flows; per-flow rate chosen so event counts stay tractable.
"""

import pytest

from repro.baselines import SdnVideoSystem
from repro.control import ControlPlane
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.nfs import PolicyEngine, Transcoder, VideoFlowDetector
from repro.sim import S, Simulator
from repro.workloads import VideoSessionWorkload

RUN_S = 90
THROTTLE_ON_S = 15
THROTTLE_OFF_S = 60
FLOWS = 100
LIFETIME_NS = 10 * S
PER_FLOW_MBPS = 0.35
PACKET = 512


def _workload(sim, system):
    return VideoSessionWorkload(
        sim, system, concurrent_flows=FLOWS,
        mean_lifetime_ns=LIFETIME_NS, per_flow_mbps=PER_FLOW_MBPS,
        packet_size=PACKET, window_ns=1 * S)


def run_sdnfv():
    sim = Simulator()
    app = SdnfvApp(sim)
    host = NfvHost(sim, name="v0")
    app.register_host(host)
    policy = PolicyEngine("pe", detector_service="vd",
                          transcoder_service="tc", exit_port="eth1")
    host.add_nf(VideoFlowDetector("vd"), ring_slots=8192)
    host.add_nf(policy, ring_slots=8192)
    host.add_nf(Transcoder("tc", keep_ratio=0.5), ring_slots=8192)
    graph = ServiceGraph("video")
    graph.add_service("vd", read_only=True)
    graph.add_service("pe")
    graph.add_service("tc")
    graph.add_edge("vd", "pe", default=True)
    graph.add_edge("vd", EXIT)
    graph.add_edge("vd", "tc")
    graph.add_edge("pe", "tc", default=True)
    graph.add_edge("pe", EXIT)
    graph.add_edge("tc", EXIT, default=True)
    graph.set_entry("vd")
    app.deploy(graph, proactive=True)
    workload = _workload(sim, host)
    sim.schedule(THROTTLE_ON_S * S, lambda: policy.set_throttle(True))
    sim.schedule(THROTTLE_OFF_S * S, lambda: policy.set_throttle(False))
    sim.run(until=RUN_S * S)
    return workload


def run_sdn():
    sim = Simulator()
    controller = ControlPlane(sim, service_time_ns=500_000,
                               propagation_ns=500_000)
    system = SdnVideoSystem(sim, controller)
    workload = _workload(sim, system)
    sim.schedule(THROTTLE_ON_S * S, lambda: system.set_throttle(True))
    sim.schedule(THROTTLE_OFF_S * S, lambda: system.set_throttle(False))
    sim.run(until=RUN_S * S)
    return workload


def _pps(workload, start_s, stop_s):
    meter = workload.out_meter
    bucket = {int(t): pps for t, pps in meter.pps_series()}
    window = [bucket.get(t, 0.0) for t in range(start_s, stop_s)]
    return sum(window) / max(1, len(window))


def test_fig11_policy_change_latency(report):
    def run():
        return run_sdnfv(), run_sdn()

    sdnfv, sdn = run()

    base_sdnfv = _pps(sdnfv, 5, THROTTLE_ON_S)
    base_sdn = _pps(sdn, 5, THROTTLE_ON_S)

    # Right after the change SDNFV is already at ~half rate...
    early_sdnfv = _pps(sdnfv, THROTTLE_ON_S + 2, THROTTLE_ON_S + 7)
    assert early_sdnfv == pytest.approx(base_sdnfv / 2, rel=0.2)
    # ...while the SDN system still sends most traffic untranscoded.
    early_sdn = _pps(sdn, THROTTLE_ON_S + 2, THROTTLE_ON_S + 7)
    assert early_sdn > base_sdn * 0.65
    # Eventually (flows churned) SDN converges toward half rate too.
    late_sdn = _pps(sdn, THROTTLE_OFF_S - 10, THROTTLE_OFF_S)
    assert late_sdn < base_sdn * 0.65
    # After throttling ends, SDNFV recovers quickly.
    recovered = _pps(sdnfv, THROTTLE_OFF_S + 5, THROTTLE_OFF_S + 15)
    assert recovered == pytest.approx(base_sdnfv, rel=0.25)

    rows_t = list(range(0, RUN_S, 5))
    columns = {"t_s": rows_t,
               "SDNFV": [_pps(sdnfv, t, t + 5) for t in rows_t],
               "SDN": [_pps(sdn, t, t + 5) for t in rows_t]}
    report("fig11_policy_change", series_table(
        f"Fig. 11 — output packets/s (throttle on at {THROTTLE_ON_S}s, "
        f"off at {THROTTLE_OFF_S}s; timeline scaled 1:4)", columns),
        metrics=columns)
