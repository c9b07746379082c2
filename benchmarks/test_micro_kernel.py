"""Micro-benchmark: the zero-allocation hot path vs the captured baseline.

§4.1–4.2: SDNFV's prototype never allocates on the wire path — packets
live in DPDK huge-page mempools, descriptors in fixed rings, timers in
``rte_timer`` wheels.  This benchmark locks in the simulator-side
analogue: the Fig. 7 64 B workload must run ≥1.5× faster and allocate
≥3× fewer hot-path objects per packet than the committed pre-change
baseline (``benchmarks/baselines/micro_kernel_baseline.json``), while
moving *exactly* the same packets — identical RX/TX/drop conservation
counters and identical kernel events per packet.

Three phases, mirroring how the baseline was captured:

1. **calibration** — a fixed pure-Python spin (heap churn + method
   dispatch, the kernel's instruction mix) timed alongside the
   workload.  The machine this suite runs on drifts ±40% in speed
   between epochs (frequency scaling, co-tenants); dividing both sides
   of the speedup by their same-epoch spin time cancels that drift, so
   the asserted ratio compares *code*, not the clock of the day;
2. **wall** — min of ``WALL_ROUNDS`` timed runs (min filters scheduler
   noise; the workload is deterministic, so only the clock varies);
3. **allocation counting** — constructor patching on the hot-path
   classes (``Event``/``Timeout``/``Packet``/headers/descriptors);
   recycled objects skip ``__init__``, so this counts true allocations.
"""

import heapq
import json
import pathlib
import time

from repro.dataplane import NfvHost
from repro.dataplane import descriptors as _descriptors
from repro.net import FiveTuple
from repro.net import headers as _headers
from repro.net import packet as _packet
from repro.nfs import NoOpNf
from repro.sim import MS, Simulator
from repro.sim import events as _events
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

BASELINE_PATH = (pathlib.Path(__file__).parent / "baselines"
                 / "micro_kernel_baseline.json")
WINDOW_NS = 3 * MS
WALL_ROUNDS = 3
MIN_WALL_SPEEDUP = 1.5
MIN_ALLOC_IMPROVEMENT = 3.0


class _SpinObj:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 0

    def bump(self, i: int) -> int:
        self.a += i
        return self.a


def calibration_spin() -> float:
    """Machine-speed proxy: fixed pure-Python heap + dispatch churn.

    Must stay byte-identical to the copy used when the committed
    baseline was captured — the normalization only cancels machine
    drift if both epochs spin the exact same work.
    """
    obj = _SpinObj()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for i in range(400_000):
        push(heap, ((i * 7) & 1023, i))
        obj.bump(i)
        if len(heap) > 64:
            pop(heap)
    return time.perf_counter() - start

# Hot-path classes whose constructor invocations we count: one entry per
# packet/event/descriptor the pre-change pipeline allocated per hop.
_COUNTED = (_events.Event, _events.Timeout, _packet.Packet,
            _headers.EthernetHeader, _headers.Ipv4Header,
            _headers.TcpHeader, _headers.UdpHeader,
            _descriptors.PacketDescriptor)


def build():
    """The Fig. 7 64 B workload: two-NF no-op chain at 10 Gbps offered."""
    sim = Simulator()
    host = NfvHost(sim, name="micro")
    services = ["noop0", "noop1"]
    for service in services:
        host.add_nf(NoOpNf(service), ring_slots=1024)
    install_chain(host, services)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
    gen = PktGen(sim, host, window_ns=MS)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=10_000.0, packet_size=64,
                          stop_ns=2 * WINDOW_NS))
    return sim, host, gen


def drop_total(stats) -> int:
    return (stats.dropped_ring_full + stats.dropped_no_vm
            + stats.dropped_no_rule + stats.lost_in_nf
            + stats.nic_rx_dropped)


def run_wall() -> dict:
    sim, host, gen = build()
    start = time.perf_counter()
    sim.run(until=3 * WINDOW_NS)
    wall_s = time.perf_counter() - start
    stats = host.stats
    return {
        "wall_s": wall_s,
        "gbps": gen.rx_meter.mean_gbps(WINDOW_NS, 2 * WINDOW_NS),
        "rx": stats.rx_packets,
        "tx": stats.tx_packets,
        "drops": drop_total(stats),
        "events_per_pkt": sim.events_scheduled / stats.rx_packets,
        "pool_hits": stats.pool_hits,
        "pool_misses": stats.pool_misses,
        "pool_exhausted": stats.pool_exhausted,
    }


def run_counting() -> dict:
    """Count hot-path constructor invocations over one full run."""
    counts: dict[str, int] = {}
    patched = []
    for cls in _COUNTED:
        orig = cls.__init__

        def counting_init(self, *args, _orig=orig, **kwargs):
            name = type(self).__name__
            counts[name] = counts.get(name, 0) + 1
            _orig(self, *args, **kwargs)

        cls.__init__ = counting_init
        patched.append((cls, orig))
    try:
        sim, host, _gen = build()
        sim.run(until=3 * WINDOW_NS)
        rx = host.stats.rx_packets
    finally:
        for cls, orig in patched:
            cls.__init__ = orig
    total = sum(counts.values())
    return {"alloc_counts": counts, "allocs_total": total,
            "allocs_per_pkt": total / rx}


def test_micro_kernel_fast_path(report):
    baseline = json.loads(BASELINE_PATH.read_text())

    # Interleave spins with the timed runs so the calibration samples
    # the same epoch the workload ran in.
    walls = []
    spins = []
    for _ in range(WALL_ROUNDS):
        spins.append(calibration_spin())
        walls.append(run_wall())
    spins.append(calibration_spin())
    measured = min(walls, key=lambda r: r["wall_s"])
    measured["calibration_spin_s"] = min(spins)
    measured.update(run_counting())

    # Behavioural parity first: the fast path must move exactly the same
    # packets as the pre-change pipeline — conservation counters and
    # delivered throughput identical, and no more kernel events per
    # packet than the baseline (the timer-lane rewrite sheds a few
    # process-start wakeups, so slightly fewer is expected).
    assert measured["rx"] == baseline["rx"]
    assert measured["tx"] == baseline["tx"]
    assert measured["drops"] == baseline["drops"]
    assert measured["gbps"] == baseline["gbps"]
    assert measured["events_per_pkt"] <= baseline["events_per_pkt"]

    raw_speedup = baseline["wall_s"] / measured["wall_s"]
    # Normalize both epochs by their calibration spin: compares code,
    # not the machine's mood.
    speedup = ((baseline["wall_s"] / baseline["calibration_spin_s"])
               / (measured["wall_s"] / measured["calibration_spin_s"]))
    alloc_improvement = (baseline["allocs_per_pkt"]
                         / max(measured["allocs_per_pkt"], 1e-9))
    assert speedup >= MIN_WALL_SPEEDUP, (
        f"calibrated wall-clock speedup {speedup:.3f}x below the "
        f"{MIN_WALL_SPEEDUP}x floor "
        f"({baseline['wall_s']:.3f}s -> {measured['wall_s']:.3f}s; "
        f"spin {baseline['calibration_spin_s']:.3f}s -> "
        f"{measured['calibration_spin_s']:.3f}s)")
    assert alloc_improvement >= MIN_ALLOC_IMPROVEMENT, (
        f"allocs/pkt only improved {alloc_improvement:.2f}x "
        f"({baseline['allocs_per_pkt']:.3f} -> "
        f"{measured['allocs_per_pkt']:.3f})")

    lines = [
        "Micro-kernel fast path vs pre-change baseline (Fig. 7, 64 B)",
        f"  wall-clock      {baseline['wall_s']:.3f} s -> "
        f"{measured['wall_s']:.3f} s ({speedup:.2f}x calibrated, "
        f"{raw_speedup:.2f}x raw, floor {MIN_WALL_SPEEDUP}x)",
        f"  calibration     {baseline['calibration_spin_s']:.3f} s -> "
        f"{measured['calibration_spin_s']:.3f} s spin",
        f"  allocs/packet   {baseline['allocs_per_pkt']:.3f} -> "
        f"{measured['allocs_per_pkt']:.4f} ({alloc_improvement:.1f}x "
        f"fewer, floor {MIN_ALLOC_IMPROVEMENT}x)",
        f"  events/packet   {baseline['events_per_pkt']:.4f} -> "
        f"{measured['events_per_pkt']:.4f}",
        f"  rx/tx/drops     {measured['rx']}/{measured['tx']}/"
        f"{measured['drops']} (identical)",
        f"  pool hit/miss   {measured['pool_hits']}/"
        f"{measured['pool_misses']} (exhausted "
        f"{measured['pool_exhausted']})",
    ]
    report("micro_kernel", "\n".join(lines),
           metrics={**measured,
                    "wall_speedup": speedup,
                    "wall_speedup_raw": raw_speedup,
                    "alloc_improvement": alloc_improvement,
                    "baseline_wall_s": baseline["wall_s"],
                    "baseline_calibration_spin_s":
                        baseline["calibration_spin_s"],
                    "baseline_allocs_per_pkt":
                        baseline["allocs_per_pkt"]},
           config={"workload": "fig7_64B_noop_chain2",
                   "wall_rounds": WALL_ROUNDS,
                   "window_ns": WINDOW_NS})
