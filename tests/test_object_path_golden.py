"""Golden digests of the burst data path over seven Fig. 7-style runs.

Each configuration drives a two-service chain on one host through a
different corner of the RX -> classify -> ring -> VM -> TX pipeline:
full 32-packet bursts over 8 interleaved flows, tight rings that
overflow, a below-saturation trickle of one-packet bursts, a
load-balanced two-replica service, a stateful ``CounterNf``, an NF
with a data-dependent cost override, and a run under the ownership
verifier.  Everything each run observes is pinned: SHA-256 digests of
the delivery log and of the latency samples, ``HostStats.summary()``,
the kernel's three odometers, ``sent``/``received``/``gbps`` and, for
the ``CounterNf`` run, every NF's per-flow packet and byte counts.  A
change to how the data path moves packets must reproduce it exactly.
Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src python -m tests.test_object_path_golden \\
        > tests/data/object_path_golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.dataplane import NfvHost
from repro.net import FiveTuple
from repro.nfs import CounterNf, NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "object_path_golden.json")

WINDOW_NS = 1 * MS

#: Burst-32 RX batches fill completely: Fig. 7's max-throughput regime.
SATURATED_MBPS = 16_000.0


class SlowNf(NoOpNf):
    """A NoOp with a data-dependent cost override."""

    def processing_cost_ns(self, packet, ctx):
        return 400


#: name -> run_fig7 keyword arguments.
CONFIGS: dict[str, dict] = {
    "saturated_8_flows": {"flow_count": 8},
    "tight_rings_24gbps": {"rate_mbps": 24_000.0, "ring_slots": 48},
    "trickle_8gbps": {"rate_mbps": 8_000.0},
    "two_replicas": {"replicas": 2},
    "counter_nf_4_flows": {"flow_count": 4, "nf_factory": CounterNf},
    "slow_nf": {"nf_factory": SlowNf},
    "verified_8_flows": {"flow_count": 8, "verify": True},
}


def _sha256(rows) -> str:
    return hashlib.sha256("\n".join(map(str, rows)).encode()).hexdigest()


def _per_flow(counter) -> dict[str, int]:
    return {str(flow): count for flow, count in counter.items()}


def run_fig7(*, rate_mbps: float = SATURATED_MBPS, flow_count: int = 1,
             nf_factory=NoOpNf, replicas: int = 1, ring_slots: int = 256,
             verify: bool = False) -> dict:
    """One deterministic run; returns its observables, JSON-ready."""
    sim = Simulator()
    host = NfvHost(sim, name="parity", verify=verify)
    nfs = []
    for service in ("nf0", "nf1"):
        for _ in range(replicas):
            nfs.append(nf_factory(service))
            host.add_nf(nfs[-1], ring_slots=ring_slots)
    install_chain(host, ["nf0", "nf1"])
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
    gen = PktGen(sim, host, window_ns=MS)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=rate_mbps, packet_size=64,
                          stop_ns=WINDOW_NS, flow_count=flow_count))

    deliveries: list[tuple[int, int, str]] = []
    measured_hook = host.port("eth1").on_egress

    def recording_hook(packet):
        deliveries.append((sim.now, packet.created_at, str(packet.flow)))
        measured_hook(packet)

    host.port("eth1").on_egress = recording_hook
    sim.run(until=WINDOW_NS + MS)
    samples = gen.latency.samples_ns
    result = {
        "deliveries": len(deliveries),
        "deliveries_sha256": _sha256(deliveries),
        "latency_samples": len(samples),
        "latency_sha256": _sha256(samples),
        "summary": host.stats.summary(),
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "events_cancelled": sim.events_cancelled,
        "sent": gen.sent,
        "received": gen.received,
        "gbps": gen.rx_meter.mean_gbps(),
    }
    if nf_factory is CounterNf:
        result["nf_counters"] = [
            {"service": nf.service_id, "packets": _per_flow(nf.packets),
             "bytes": _per_flow(nf.bytes)}
            for nf in nfs]
    if verify:
        result["ownership_audit"] = host.verifier.assert_clean().audit
    return json.loads(json.dumps(result, sort_keys=True))


def observed() -> dict:
    return {name: run_fig7(**kwargs) for name, kwargs in CONFIGS.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_configuration(golden):
    assert sorted(golden) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_committed_golden(name, golden):
    assert run_fig7(**CONFIGS[name]) == golden[name]


def test_golden_exercises_each_corner(golden):
    assert golden["saturated_8_flows"]["received"] > 1000
    assert golden["tight_rings_24gbps"]["summary"]["dropped_ring_full"] > 0
    assert golden["trickle_8gbps"]["received"] > 0
    counters = golden["counter_nf_4_flows"]["nf_counters"]
    assert all(sum(nf["packets"].values()) > 0 for nf in counters)
    assert golden["verified_8_flows"]["ownership_audit"]["balanced"]
    for run in golden.values():
        assert run["latency_samples"] == run["received"]


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
