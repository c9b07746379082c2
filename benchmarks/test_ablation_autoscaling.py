"""Ablation: overload-driven autoscaling and VM launch modes.

Two of the paper's dynamic-management claims quantified:

1. §3.1's NF Managers "track load levels of NFs ... and respond to
   failure or overload": with autoscaling on, an overloaded service gets
   a replica and queueing latency collapses; without it, latency keeps
   growing with the backlog.
2. §5.2's note that the 7.75 s VM boot "can be further reduced by just
   starting a new process in a stand-by VM or by using fast VM restore
   techniques": the same scenario under the three launch modes shows the
   recovery-time difference.
"""

from repro.control import NfvOrchestrator
from repro.core import SdnfvApp
from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple, Packet
from repro.nfs import ComputeNf
from repro.sim import MS, S, Simulator

from tests.conftest import install_chain

NF_COST_NS = 60_000          # one replica sustains ~16.7 kpps
OFFERED_GAP_NS = 25_000      # 40 kpps offered: 2.4x overload
RUN_NS = int(1.5 * S)


def run_scenario(autoscale: bool, mode: str = "standby_process"):
    sim = Simulator()
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, orchestrator=orchestrator)
    host = NfvHost(sim, name=f"auto-{autoscale}-{mode}")
    app.register_host(host)
    host.add_nf(ComputeNf("svc", cost_ns=NF_COST_NS), ring_slots=16384)
    install_chain(host, ["svc"])
    if autoscale:
        app.enable_autoscaling(
            host, {"svc": lambda: ComputeNf("svc", cost_ns=NF_COST_NS)},
            interval_ns=2 * MS, threshold_slots=50, max_replicas=3,
            mode=mode)
    latencies_late = []

    def on_out(packet):
        if sim.now > RUN_NS * 2 // 3:
            latencies_late.append(sim.now - packet.created_at)

    host.port("eth1").on_egress = on_out

    def generator():
        index = 0
        while sim.now < RUN_NS:
            flow = FiveTuple("10.0.0.1", "10.0.0.2", 6,
                             1000 + index % 64, 80)
            host.inject("eth0", Packet(flow=flow, size=128,
                                       created_at=sim.now))
            index += 1
            yield sim.timeout(OFFERED_GAP_NS)

    sim.process(generator())
    sim.run(until=RUN_NS)
    replica_count = len(host.manager.vms_by_service["svc"])
    ready_at = (orchestrator.launches[0].ready_at / S
                if orchestrator.launches else None)
    mean_late_us = (sum(latencies_late) / len(latencies_late) / 1000
                    if latencies_late else float("inf"))
    return replica_count, mean_late_us, ready_at


def test_ablation_autoscaling(report):
    def run():
        baseline = run_scenario(autoscale=False)
        scaled = {mode: run_scenario(autoscale=True, mode=mode)
                  for mode in ("standby_process", "restore")}
        return baseline, scaled

    baseline, scaled = run()
    base_replicas, base_latency, _ = baseline

    assert base_replicas == 1
    standby_replicas, standby_latency, standby_ready = scaled[
        "standby_process"]
    assert standby_replicas >= 2
    # With the replica in service, late-window latency is far below the
    # ever-growing backlog of the unscaled run.
    assert standby_latency < base_latency / 3
    # Faster launch modes are ready sooner; a 7.75 s cold boot would not
    # even finish inside this scenario's 1.5 s window.
    assert standby_ready < scaled["restore"][2]
    from repro.control import NfvOrchestrator
    from repro.sim import Simulator as _Sim
    orchestrator = NfvOrchestrator(_Sim())
    assert (orchestrator.launch_time_ns("standby_process")
            < orchestrator.launch_time_ns("restore")
            < orchestrator.launch_time_ns("boot"))

    rows = ["no autoscaling", "standby_process", "restore"]
    columns = {
        "configuration": rows,
        "replicas": [base_replicas] + [scaled[m][0] for m in rows[1:]],
        "latency_us": [base_latency] + [scaled[m][1] for m in rows[1:]],
        "replica_ready_s": [0.0] + [scaled[m][2] or 0.0
                                    for m in rows[1:]]}
    report("ablation_autoscaling", series_table(
        "Ablation — autoscaling under 2.4x overload "
        "(late-window mean latency)", columns), metrics=columns)
