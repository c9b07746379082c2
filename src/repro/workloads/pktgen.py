"""PktGen: paced traffic flows plus RTT / throughput measurement.

The paper measures with PktGen-DPDK: the generator stamps packets, the
system under test returns them out a port, and the generator computes
round-trip latency and receive rate.  :class:`PktGen` reproduces that
harness around a simulated :class:`~repro.dataplane.host.NfvHost`.

The host-external wire (generator NIC, cables, switch NIC) is modeled as
``wire_base_rtt_ns ± wire_jitter_ns`` from the host's cost table, added at
measurement time — the inside-host pipeline is simulated packet by packet.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dataplane.host import NfvHost
from repro.metrics.latency import LatencyRecorder
from repro.metrics.throughput import ThroughputMeter
from repro.net.flow import FiveTuple
from repro.net.headers import ip_to_int
from repro.net.packet import Packet, wire_bits
from repro.sim.randomness import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.units import MS


@dataclasses.dataclass
class FlowSpec:
    """One generated flow.  ``rate_mbps`` may be changed mid-run."""

    flow: FiveTuple
    rate_mbps: float
    packet_size: int = 64
    start_ns: int = 0
    stop_ns: int | None = None
    payload: typing.Callable[[int], str] | str = ""
    pacing: str = "uniform"  # or "poisson"
    # Cycle packets round-robin over this many distinct five-tuples
    # derived from ``flow`` (incrementing src_port, rolling into src_ip)
    # — the Fig. 10 saturation-sweep knob: at 10^5 concurrent flows the
    # data plane's per-flow caches churn on every packet.  Deterministic
    # (sequence-indexed), so it draws nothing from the pacing RNG.
    flow_count: int = 1

    def __post_init__(self) -> None:
        if self.rate_mbps <= 0:
            raise ValueError("rate must be positive")
        if self.packet_size < 64:
            raise ValueError("packet size below 64-byte minimum")
        if self.pacing not in ("uniform", "poisson"):
            raise ValueError(f"unknown pacing {self.pacing!r}")
        if self.flow_count < 1:
            raise ValueError("flow_count must be at least 1")
        self._flows: tuple[FiveTuple, ...] | None = None

    def payload_for(self, sequence: int) -> str:
        if callable(self.payload):
            return self.payload(sequence)
        return self.payload

    def flow_for(self, sequence: int) -> FiveTuple:
        """The five-tuple of packet ``sequence`` (round-robin)."""
        if self.flow_count == 1:
            return self.flow
        if self._flows is None:
            self._flows = tuple(self._variant(index)
                                for index in range(self.flow_count))
        return self._flows[sequence % self.flow_count]

    def _variant(self, index: int) -> FiveTuple:
        base = self.flow
        offset = base.src_port + index
        ip = (ip_to_int(base.src_ip) + offset // 65536) & 0xFFFFFFFF
        return FiveTuple(
            f"{ip >> 24}.{(ip >> 16) & 255}.{(ip >> 8) & 255}.{ip & 255}",
            base.dst_ip, base.protocol, offset % 65536, base.dst_port)

    def mean_gap(self) -> float:
        """Mean inter-packet gap in ns at the current rate.

        A real-valued distribution parameter (line rates rarely divide
        into whole nanoseconds) — callers quantize each actual gap.
        """
        return wire_bits(self.packet_size) * 1000.0 / self.rate_mbps


class PktGen:
    """Traffic generator + measurement harness around one host."""

    def __init__(self, sim: Simulator, host: NfvHost,
                 ingress_port: str = "eth0",
                 measure_ports: typing.Sequence[str] = ("eth1",),
                 window_ns: int = 100 * MS,
                 seed: int = 42) -> None:
        self.sim = sim
        self.host = host
        self.ingress_port = ingress_port
        self.latency = LatencyRecorder("pktgen-rtt")
        self.rx_meter = ThroughputMeter(window_ns=window_ns)
        self.tx_meter = ThroughputMeter(window_ns=window_ns)
        self.sent = 0
        self.received = 0
        self.per_flow_latency: dict[FiveTuple, LatencyRecorder] = {}
        self._rng = RandomStreams(seed=seed).stream("pktgen")
        self._stopped = False
        for port_name in measure_ports:
            self.host.port(port_name).on_egress = self._on_return

    # ------------------------------------------------------------------
    # Measurement side
    # ------------------------------------------------------------------
    def _on_return(self, packet: Packet) -> None:
        now = self.sim.now
        self.received += 1
        self.rx_meter.record(now, packet.size)
        costs = self.host.costs
        jitter_ns = costs.wire_jitter_ns
        rtt = now - packet.created_at + costs.wire_base_rtt_ns
        if jitter_ns:
            # One scalar draw per packet: a batched draw would yield a
            # different sequence.
            rtt += int(self._rng.integers(-jitter_ns, jitter_ns + 1))
        if rtt < 0:
            rtt = 0
        self.latency.record(rtt)
        recorder = self.per_flow_latency.get(packet.flow)
        if recorder is not None:
            recorder.record(rtt)
        # The measurement sink is the buffer's terminal owner: once the
        # RTT is recorded, a zero-ref pooled buffer goes back to the slab
        # (ignored for plain heap packets and still-referenced buffers).
        pool = packet.pool
        if pool is not None and packet.ref_count == 0:
            pool.reclaim(packet)

    def track_flow(self, flow: FiveTuple) -> LatencyRecorder:
        """Keep a separate latency series for one flow (Fig. 8)."""
        recorder = self.per_flow_latency.setdefault(
            flow, LatencyRecorder(str(flow)))
        return recorder

    # ------------------------------------------------------------------
    # Generation side
    # ------------------------------------------------------------------
    def add_flow(self, spec: FlowSpec) -> FlowSpec:
        """Start generating a flow; returns the (mutable) spec handle."""
        # The per-flow driver is a self-rearming bare timer, not a
        # generator process: each tick allocates a buffer from the pool,
        # injects it, and re-arms — like a DPDK pktgen TX lane, the
        # steady-state loop touches no Event machinery at all.
        if spec.start_ns:
            self.sim.call_later(0, self._start_flow, spec)
        else:
            self.sim.call_later(0, self._drive_tick, (spec, 0))
        return spec

    def stop(self) -> None:
        """Stop all generation at the current time."""
        self._stopped = True

    def _start_flow(self, spec: FlowSpec) -> None:
        self.sim.call_later(spec.start_ns, self._drive_tick, (spec, 0))

    def _drive_tick(self, state: tuple[FlowSpec, int]) -> None:
        spec, sequence = state
        if self._stopped:
            return
        sim = self.sim
        now = sim.now
        stop_ns = spec.stop_ns
        if stop_ns is not None and now >= stop_ns:
            return
        size = spec.packet_size
        host = self.host
        packet = host.packet_pool.alloc(
            flow=spec.flow_for(sequence), size=size,
            payload=spec.payload_for(sequence), created_at=now)
        host.inject(self.ingress_port, packet)
        self.sent += 1
        self.tx_meter.record(now, size)
        # mean_gap() is recomputed every tick on purpose: rate_mbps is
        # documented as mutable mid-run (Fig. 9 rate steps).
        mean_gap = spec.mean_gap()
        if spec.pacing == "poisson":
            gap = max(1, round(self._rng.exponential(mean_gap)))
        else:
            gap = max(1, round(mean_gap))
        sim.call_later(gap, self._drive_tick, (spec, sequence + 1))

    # ------------------------------------------------------------------
    def offered_gbps(self) -> float:
        """Mean offered load over the run so far."""
        return self.tx_meter.mean_gbps()

    def achieved_gbps(self) -> float:
        """Mean receive rate over the run so far (what Fig. 7 plots)."""
        return self.rx_meter.mean_gbps()
