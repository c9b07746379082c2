"""Burst-mode data plane: ring burst ops, burst=1 parity, crash salvage.

The batched pipeline (``NfvHost(burst_size=...)``) must be a pure
efficiency refactor: ``burst_size=1`` reproduces the pre-refactor
pipeline event-for-event (checked here against golden summaries captured
before the refactor), per-slot ring accounting is identical to per-item
calls, and a VM crash mid-batch loses only the in-flight head — the
rest of the held batch is salvaged exactly like ring contents.
"""

from __future__ import annotations

import pytest

from repro.dataplane import NfvHost
from repro.dataplane.rings import RingBuffer
from repro.net import FiveTuple, Packet
from repro.nfs import ComputeNf, NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain


# ----------------------------------------------------------------------
# RingBuffer burst operations
# ----------------------------------------------------------------------
class TestRingBurstOps:
    def test_enqueue_burst_accepts_prefix_and_drops_tail(self, sim):
        ring = RingBuffer(sim, "r", slots=4)
        assert ring.enqueue_burst(list(range(6))) == 4
        assert ring.enqueued == 4
        assert ring.dropped == 2
        assert ring.occupancy == 4
        assert ring.is_full
        # A burst against a full ring accepts nothing.
        assert ring.enqueue_burst([99]) == 0
        assert ring.dropped == 3

    def test_burst_accounting_matches_per_item_calls(self, sim):
        burst_ring = RingBuffer(sim, "burst", slots=5)
        item_ring = RingBuffer(sim, "items", slots=5)
        payload = list(range(8))
        burst_ring.enqueue_burst(payload)
        for item in payload:
            item_ring.try_enqueue(item)
        assert burst_ring.enqueued == item_ring.enqueued
        assert burst_ring.dropped == item_ring.dropped
        assert burst_ring.drain() == item_ring.drain()

    def test_dequeue_burst_caps_at_max_n_and_preserves_fifo(self, sim):
        ring = RingBuffer(sim, "r", slots=8)
        ring.enqueue_burst([1, 2, 3, 4, 5])
        assert ring.dequeue_burst(3) == [1, 2, 3]
        assert ring.dequeue_burst(10) == [4, 5]
        assert ring.dequeue_burst(1) == []

    def test_wraparound_cycling_keeps_order_and_counters(self, sim):
        ring = RingBuffer(sim, "r", slots=8)
        produced = iter(range(10_000))
        offered = 0
        accepted_items = []
        consumed = []
        # Cycle bursts of varying size through the 8-slot ring so the
        # head/tail wrap many times; only the accepted prefix of each
        # burst enters the FIFO.
        for enqueue_n, dequeue_n in ((3, 1), (8, 8), (5, 2), (7, 7),
                                     (2, 0), (8, 3), (6, 6), (4, 9)) * 4:
            batch = [next(produced) for _ in range(enqueue_n)]
            offered += len(batch)
            free = ring.slots - ring.occupancy
            accepted = ring.enqueue_burst(batch)
            assert accepted == min(enqueue_n, free)
            accepted_items.extend(batch[:accepted])
            consumed.extend(ring.dequeue_burst(dequeue_n))
        consumed.extend(ring.drain())
        assert consumed == accepted_items
        assert ring.enqueued == len(accepted_items)
        assert ring.enqueued + ring.dropped == offered
        assert ring.occupancy == 0

    def test_drain_equals_full_dequeue_burst(self, sim):
        first = RingBuffer(sim, "a", slots=16)
        second = RingBuffer(sim, "b", slots=16)
        for ring in (first, second):
            ring.enqueue_burst(list(range(10)))
        assert first.drain() == second.dequeue_burst(second.occupancy)
        assert first.occupancy == second.occupancy == 0


# ----------------------------------------------------------------------
# burst_size=1 parity with the pre-refactor per-packet pipeline
# ----------------------------------------------------------------------
# HostStats/PktGen summaries of deterministic scenarios, captured on the
# per-packet pipeline immediately before the burst refactor.
GOLDEN = {
    "fig7_64B": {"rx_packets": 28572, "tx_packets": 17690,
                 "dropped_ring_full": 10882, "sent": 28572,
                 "received": 17690, "latency_mean_us": 142.349838},
    "fig7_512B": {"rx_packets": 4663, "tx_packets": 4663,
                  "dropped_ring_full": 0, "sent": 4663, "received": 4663,
                  "latency_mean_us": 28.525039},
    "table2_3vm_seq": {"rx_packets": 245, "tx_packets": 245,
                       "sent": 245, "received": 245,
                       "latency_mean_us": 29.977645},
    "parallel_2vm": {"rx_packets": 3642, "tx_packets": 3642,
                     "parallel_groups": 3642, "sent": 3642,
                     "received": 3642, "latency_mean_us": 27.268258},
}

FLOW = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)


def _summarise(host, gen):
    out = dict(host.stats.summary())
    out.update(sent=gen.sent, received=gen.received,
               latency_mean_us=round(gen.latency.mean_us(), 6))
    return out


def run_fig7_like(size: int, burst: int) -> dict:
    """2-VM sequential chain at an offered 10 Gbps (Fig. 7 workload)."""
    sim = Simulator()
    host = NfvHost(sim, name="h", burst_size=burst)
    services = ["noop0", "noop1"]
    for service in services:
        host.add_nf(NoOpNf(service), ring_slots=1024)
    install_chain(host, services)
    gen = PktGen(sim, host, window_ns=MS)
    gen.add_flow(FlowSpec(flow=FLOW, rate_mbps=10_000.0, packet_size=size,
                          stop_ns=2 * MS))
    sim.run(until=4 * MS)
    return _summarise(host, gen)


def run_table2_like(burst: int) -> dict:
    """3-VM sequential no-op chain at 100 Mbps (Table 2 workload)."""
    sim = Simulator()
    host = NfvHost(sim, name="h", burst_size=burst)
    services = ["noop0", "noop1", "noop2"]
    for service in services:
        host.add_nf(NoOpNf(service))
    install_chain(host, services)
    gen = PktGen(sim, host)
    gen.add_flow(FlowSpec(flow=FLOW, rate_mbps=100.0, packet_size=1000,
                          stop_ns=20 * MS))
    sim.run(until=40 * MS)
    return _summarise(host, gen)


def run_parallel_like(burst: int) -> dict:
    """2-VM parallel chain under Poisson arrivals."""
    sim = Simulator()
    host = NfvHost(sim, name="h", burst_size=burst)
    services = ["noop0", "noop1"]
    for service in services:
        host.add_nf(NoOpNf(service))
    install_chain(host, services)
    host.manager.register_parallel_chain(services)
    gen = PktGen(sim, host)
    gen.add_flow(FlowSpec(flow=FLOW, rate_mbps=400.0, packet_size=256,
                          stop_ns=20 * MS, pacing="poisson"))
    sim.run(until=40 * MS)
    return _summarise(host, gen)


class TestBurstOneParity:
    """burst_size=1 must reproduce the pre-refactor pipeline exactly."""

    def _check(self, name: str, summary: dict) -> None:
        for key, want in GOLDEN[name].items():
            assert summary[key] == want, f"{name}.{key}"

    def test_fig7_64B_overload(self):
        self._check("fig7_64B", run_fig7_like(64, burst=1))

    def test_fig7_512B_underload(self):
        self._check("fig7_512B", run_fig7_like(512, burst=1))

    def test_table2_sequential_chain(self):
        self._check("table2_3vm_seq", run_table2_like(burst=1))

    def test_parallel_chain_poisson(self):
        self._check("parallel_2vm", run_parallel_like(burst=1))


class TestBurst32:
    """Default-burst runs: same model outputs, conservation, batching on."""

    def test_fig7_conservation_and_batching(self):
        summary = run_fig7_like(64, burst=32)
        # Every received packet is transmitted or dropped — batching
        # never loses descriptors.
        assert summary["rx_packets"] == (summary["tx_packets"]
                                         + summary["dropped_ring_full"])
        assert summary["rx_packets"] == GOLDEN["fig7_64B"]["rx_packets"]
        # Batching actually engages under small-packet overload: far
        # fewer VM/TX wakeups than packets.
        assert 0 < summary["vm_batches"] < summary["rx_packets"] / 4
        assert 0 < summary["tx_batches"] < summary["tx_packets"] / 4

    def test_table2_latency_stays_in_calibration_band(self):
        summary = run_table2_like(burst=32)
        golden = GOLDEN["table2_3vm_seq"]
        assert summary["rx_packets"] == golden["rx_packets"]
        assert summary["tx_packets"] == golden["tx_packets"]
        # 100 Mbps of 1000 B packets never accumulates a backlog, so the
        # latency calibration is untouched by the burst knob.
        assert summary["latency_mean_us"] == pytest.approx(
            golden["latency_mean_us"], abs=0.5)


# ----------------------------------------------------------------------
# Crash mid-batch: only the in-flight head dies with the VM
# ----------------------------------------------------------------------
class TestMidBatchCrashSalvage:
    def test_crash_mid_batch_requeues_held_tail_to_survivor(self, sim,
                                                            flow):
        host = NfvHost(sim, name="h", burst_size=32)
        vm1 = host.add_nf(ComputeNf("svc", cost_ns=MS))
        host.add_nf(ComputeNf("svc", cost_ns=MS))
        install_chain(host, ["svc"])
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(40):
            host.inject("eth0", Packet(flow=flow, size=128, created_at=0))
        # Let both replicas dequeue a burst and start the batch timeout
        # (each holds ~20 packets x 1 ms of work).
        sim.run(until=2 * MS)
        assert vm1.inflight is not None
        held_tail = len(vm1._pending)
        assert held_tail > 0                   # genuinely mid-batch
        in_ring = vm1.rx_ring.occupancy
        salvage = host.manager.fail_vm(vm1)
        # The whole held batch minus the in-flight head is salvaged,
        # together with anything still queued in the ring.
        assert salvage == {"requeued": held_tail + in_ring,
                           "degraded": 0, "lost": 0}
        assert vm1.take_pending_batch() == []
        sim.run(until=200 * MS)
        # Exactly one packet (the in-flight head) died with the VM.
        assert host.stats.lost_in_nf == 1
        assert len(out) == 39
