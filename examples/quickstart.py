"""Quickstart: build an SDNFV host, deploy a service graph, send traffic.

Run:  python examples/quickstart.py

Builds the smallest end-to-end system: a simulated SDNFV host managed by
an SDNFV Application through a POX-like SDN controller, one firewall NF
and one counter NF chained in a service graph, and a traffic generator
measuring round-trip latency.
"""

from repro.control import ControlPlane
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost
from repro.net import FiveTuple, FlowMatch
from repro.nfs import CounterNf, Firewall, FirewallRule
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen


def main() -> None:
    sim = Simulator()

    # Control plane: POX-like controller + the SDNFV Application.
    controller = ControlPlane(sim)
    app = SdnfvApp(sim, controller=controller)

    # Data plane: one host with two NFs.
    host = NfvHost(sim, name="host0", controller=controller)
    app.register_host(host)
    firewall = Firewall("firewall", rules=[
        FirewallRule(match=FlowMatch(dst_port=23), allow=False)])
    counter = CounterNf("counter")
    host.add_nf(firewall)
    host.add_nf(counter)

    # The service graph: eth0 -> firewall -> counter -> eth1.
    graph = ServiceGraph("quickstart")
    graph.add_service("firewall", read_only=True)
    graph.add_service("counter", read_only=True)
    graph.add_edge("firewall", "counter", default=True)
    graph.add_edge("counter", EXIT, default=True)
    graph.set_entry("firewall")
    app.deploy(graph)

    # Traffic: one HTTP flow and one telnet flow the firewall blocks,
    # from 40 ms.  The proactive deploy installed the tables already, so
    # no packet waits on the controller's 31 ms round trip.
    gen = PktGen(sim, host)
    web = FiveTuple("10.0.0.1", "10.0.0.2", 6, 40000, 80)
    telnet = FiveTuple("10.0.0.1", "10.0.0.2", 6, 40001, 23)
    gen.add_flow(FlowSpec(flow=web, rate_mbps=100.0, packet_size=512,
                          start_ns=40 * MS, stop_ns=90 * MS))
    gen.add_flow(FlowSpec(flow=telnet, rate_mbps=50.0, packet_size=256,
                          start_ns=40 * MS, stop_ns=90 * MS))

    sim.run(until=150 * MS)

    print("=== flow table (Fig. 4 style) ===")
    print(host.flow_table.dump())
    print()
    print(f"sent={gen.sent}  received={gen.received}  "
          f"blocked_by_firewall={firewall.denied}")
    print(f"mean RTT: {gen.latency.mean_us():.2f} us "
          f"(min {gen.latency.min_us():.1f} / "
          f"max {gen.latency.max_us():.1f})")
    packets, bytes_ = counter.totals()
    print(f"counter NF saw {packets} packets / {bytes_} bytes")
    assert gen.received > 0 and firewall.denied > 0


if __name__ == "__main__":
    main()
