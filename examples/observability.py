"""Observability tour: event log, telemetry snapshots, packet taps.

Run:  python examples/observability.py

Shows the three observability surfaces around a running deployment:

- the **EventLog** records every control-plane action (rule installs,
  messages, VM launches) as a queryable timeline;
- **telemetry** gathers periodic HierarchySnapshots across all tiers;
- a **PacketTap** captures egress frames as a replayable trace.
"""

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost
from repro.dataplane.tap import PacketTap
from repro.metrics import EventLog
from repro.net import FiveTuple
from repro.nfs import FlowMonitor, NoOpNf
from repro.sim import MS, S, Simulator
from repro.workloads import FlowSpec, PktGen, trace_to_csv


def main() -> None:
    sim = Simulator()
    controller = ControlPlane(sim)
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, controller=controller, orchestrator=orchestrator)
    log = EventLog(sim)
    app.attach_event_log(log)

    host = NfvHost(sim, name="edge", controller=controller)
    app.register_host(host)
    host.add_nf(FlowMonitor("monitor", report_interval_ns=2 * S))
    host.add_nf(NoOpNf("forwarder"))

    graph = ServiceGraph("observed")
    graph.add_service("monitor", read_only=True)
    graph.add_service("forwarder", read_only=True)
    graph.add_edge("monitor", "forwarder", default=True)
    graph.add_edge("forwarder", EXIT, default=True)
    graph.set_entry("monitor")
    app.deploy(graph)

    app.start_telemetry(interval_ns=3 * S)
    tap = PacketTap.on_egress(sim, host, "eth1", max_records=10_000)

    gen = PktGen(sim, host, measure_ports=())
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 40000, 80)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=1.0, packet_size=512,
                          start_ns=50 * MS, stop_ns=9 * S))
    sim.run(until=10 * S)

    print("=== control-plane event timeline ===")
    print(log.format())
    print(f"\nevent counts: {log.categories()}")

    print("\n=== latest hierarchy snapshot ===")
    print(app.telemetry[-1].format())

    print(f"\n=== packet tap ===")
    print(f"captured {len(tap)} frames; first 3 CSV rows:")
    print("\n".join(trace_to_csv(tap.to_trace()[:3]).splitlines()[:4]))

    flow_reports = [m for _h, m in app.messages_received
                    if m.key == "flow_stats"]
    print(f"\nflow-stats reports pushed up by the monitor NF: "
          f"{len(flow_reports)}")
    assert len(log) > 0 and len(app.telemetry) >= 3 and len(tap) > 0


if __name__ == "__main__":
    main()
