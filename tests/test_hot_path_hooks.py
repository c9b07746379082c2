"""The running packet loops go through methods patched after they start.

simbench's tracer swaps class methods in and out between slices of one
run, and the ownership verifier shadows methods per instance.  The NF
Manager's RX/TX loops, the VM loop, the NIC and PktGen are generators
and timers that start once, so a loop that bound one of these methods
into a local at start would silently bypass a later patch.  Each test
runs a host for 1 ms, patches the hot-path methods at class level with
counting wrappers (as the tracer does), runs 1 ms more, and checks that
every wrapper was entered and that the run is the same run as an
unpatched one.
"""

from __future__ import annotations

import collections
import functools

import pytest

from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost
from repro.dataplane.flow_table import FlowTable
from repro.dataplane.manager import NicPort
from repro.dataplane.rings import RingBuffer
from repro.net import FiveTuple
from repro.net.mempool import PacketPool
from repro.nfs import DscpMarker, Firewall, FlowMonitor, NoOpNf
from repro.nfs.base import NetworkFunction
from repro.sim import MS, US, Simulator
from repro.workloads import FlowSpec, PktGen

#: (owner, attribute) pairs the loops must look up at each call.
HOT_PATH = [
    (RingBuffer, "try_enqueue"),
    (RingBuffer, "enqueue_burst"),
    (RingBuffer, "get"),
    (RingBuffer, "dequeue_burst"),
    (NicPort, "receive"),
    (NicPort, "transmit"),
    (NicPort, "rx_burst"),
    (PacketPool, "alloc"),
    (PacketPool, "reclaim"),
    (FlowTable, "lookup"),
    (NetworkFunction, "handle_packet"),
]


def _chain(name: str, services: list[str],
           read_only: bool = False) -> ServiceGraph:
    graph = ServiceGraph(name)
    for service in services:
        graph.add_service(service, read_only=read_only)
    for src, dst in zip(services, services[1:], strict=False):
        graph.add_edge(src, dst, default=True)
    graph.add_edge(services[-1], EXIT, default=True)
    graph.set_entry(services[0])
    return graph


def fig7_host():
    """Saturated 64 B Firewall -> FlowMonitor -> DscpMarker chain.  Each
    packet is a new flow, so lookups keep missing the plan cache."""
    sim = Simulator()
    host = NfvHost(sim, name="fig7", seed=3)
    app = SdnfvApp(sim)
    app.register_host(host)
    host.add_nf(Firewall("fw", rules=[]))
    host.add_nf(FlowMonitor("mon"))
    host.add_nf(DscpMarker("dscp", default_dscp=46))
    app.deploy(_chain("fig7", ["fw", "mon", "dscp"]))
    gen = PktGen(sim, host, window_ns=MS, seed=3)
    gen.add_flow(FlowSpec(flow=FiveTuple("10.1.0.1", "10.250.0.2", 17,
                                         2000, 80),
                          rate_mbps=16_000.0, packet_size=64,
                          flow_count=1 << 16))
    return sim, host, gen


def table2_host():
    """Table 2's 3-VM parallel no-op chain at 100 Mbps of 1000 B."""
    sim = Simulator()
    host = NfvHost(sim, name="table2", seed=5)
    app = SdnfvApp(sim)
    app.register_host(host)
    for service in ("p0", "p1", "p2"):
        host.add_nf(NoOpNf(service))
    app.deploy(_chain("par", ["p0", "p1", "p2"], read_only=True))
    gen = PktGen(sim, host, seed=5)
    gen.add_flow(FlowSpec(flow=FiveTuple("10.0.0.3", "10.0.0.4", 6,
                                         4321, 80),
                          rate_mbps=100.0, packet_size=1000,
                          start_ns=40 * US))
    return sim, host, gen


def observables(sim, host, gen) -> dict:
    return {
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "summary": host.stats.summary(),
        "sent": gen.sent,
        "received": gen.received,
        "latency": gen.latency.samples_ns,
        "pool": (host.packet_pool.hits, host.packet_pool.misses),
        "lookups": host.flow_table.lookups,
    }


def _counting(counts: collections.Counter, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _name(owner, attr) -> str:
    return f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("build, idle", [
    (fig7_host, []),
    # Bursts of one leave nothing to sweep, and the parallel entry's
    # cached plan needs no table lookup.
    (table2_host, ["RingBuffer.dequeue_burst", "NicPort.rx_burst",
                   "FlowTable.lookup"]),
], ids=["fig7", "table2_parallel"])
def test_loops_enter_methods_patched_mid_run(build, idle, monkeypatch):
    reference = build()
    reference[0].run(until=2 * MS)

    sim, host, gen = build()
    sim.run(until=1 * MS)
    counts: collections.Counter = collections.Counter()
    for owner, attr in HOT_PATH:
        monkeypatch.setattr(owner, attr, _counting(
            counts, _name(owner, attr), getattr(owner, attr)))
    sim.run(until=2 * MS)
    monkeypatch.undo()

    missed = [_name(owner, attr) for owner, attr in HOT_PATH
              if not counts[_name(owner, attr)]]
    assert missed == idle
    assert observables(sim, host, gen) == observables(*reference)
