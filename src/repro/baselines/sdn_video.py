"""The SDN-only video system: application logic inside the controller.

§5.3: "In current SDNs, the Video Detector and Policy Engine must be
integrated into the SDN controller itself because only the controller has
decision making power over flows.  As a result, the first two packets of
each flow ... must be sent to the SDN controller."

Consequences reproduced here:

- every new flow costs **two** controller transactions before its rule is
  installed, so the controller saturates near its request capacity
  (Fig. 10);
- a policy change only affects flows that set up *after* it, because
  established flows already have rules and never revisit the controller
  (Fig. 11's lag).
"""

from __future__ import annotations

import typing

from repro.control.plane import ControlPlane
from repro.metrics.throughput import ThroughputMeter
from repro.net.flow import FiveTuple
from repro.net.http import classify_content_type, is_video_content
from repro.net.mempool import PacketPool
from repro.net.packet import Packet
from repro.sim.simulator import Simulator
from repro.sim.store import Store
from repro.sim.units import MS, NS


class SdnVideoSystem:
    """Host data plane with controller-resident video logic."""

    def __init__(self, sim: Simulator, controller: ControlPlane,
                 fast_path_ns: int = 300 * NS,
                 transcode_keep_ratio: float = 0.5,
                 flow_setup_buffer: int = 8192,
                 window_ns: int = 500 * MS) -> None:
        self.sim = sim
        self.controller = controller
        self.fast_path_ns = fast_path_ns
        self.transcode_keep_ratio = transcode_keep_ratio
        self.throttle = False
        self.out_meter = ThroughputMeter(window_ns=window_ns)
        self.completed_flows = 0
        self.forwarded = 0
        self.transcode_dropped = 0
        # flow -> "out" (send directly) or "transcode" (halve the rate)
        self._rules: dict[FiveTuple, str] = {}
        self._pending: dict[FiveTuple, list[Packet]] = {}
        # Same mempool discipline as the SDNFV data plane: workloads
        # allocate buffers from ``packet_pool`` and terminal paths
        # (forwarded, transcode-dropped, setup overflow) reclaim them.
        self.packet_pool = PacketPool()
        self._setup_slots = Store(sim, capacity=flow_setup_buffer)
        self._ingress = Store(sim)
        self._credit: dict[FiveTuple, float] = {}
        self.on_egress: typing.Callable[[Packet], None] | None = None
        sim.process(self._worker())

    # ------------------------------------------------------------------
    def inject(self, _port: str, packet: Packet) -> None:
        """PktGen-compatible entry point (the port name is ignored)."""
        self._ingress.try_put(packet)

    def set_throttle(self, enabled: bool) -> None:
        """Policy change in the controller module — no recall mechanism
        exists, so existing rules stay as installed."""
        self.throttle = enabled

    # ------------------------------------------------------------------
    def _worker(self):
        while True:
            packet: Packet = yield self._ingress.get()
            yield self.sim.sleep(self.fast_path_ns)
            action = self._rules.get(packet.flow)
            if action is not None:
                self._apply(packet, action)
                continue
            pending = self._pending.get(packet.flow)
            if pending is None:
                if not self._setup_slots.try_put(packet.flow):
                    # Setup table overflow: drop the flow.
                    if packet.pool is not None:
                        packet.free()
                    continue
                self._pending[packet.flow] = [packet]
                # First packet (TCP ACK) goes to the controller.
                self.sim.process(self._consult(packet.flow, packet, None))
            else:
                pending.append(packet)
                if len(pending) == 2:
                    # Second packet (HTTP reply) carries the payload the
                    # controller-resident detector inspects.
                    self.sim.process(self._consult(packet.flow, packet,
                                                   packet.payload))

    def _consult(self, flow: FiveTuple, packet: Packet,
                 payload: str | None):
        def decide() -> str | None:
            if payload is None:
                return None  # packet 1: the controller just looks
            content = classify_content_type(payload)
            video = is_video_content(content)
            if video and self.throttle:
                return "transcode"
            return "out"

        action = yield self.controller.submit_work(decide)
        if action is None:
            return
        self._rules[flow] = action
        self._setup_slots.try_get()
        self.completed_flows += 1
        for buffered in self._pending.pop(flow, ()):
            self._apply(buffered, action)

    def _apply(self, packet: Packet, action: str) -> None:
        if action == "transcode":
            credit = (self._credit.get(packet.flow, 0.0)
                      + self.transcode_keep_ratio)
            if credit < 1.0:
                self._credit[packet.flow] = credit
                self.transcode_dropped += 1
                if packet.pool is not None:
                    packet.free()
                return
            self._credit[packet.flow] = credit - 1.0
        self.forwarded += 1
        self.out_meter.record(self.sim.now, packet.size)
        if self.on_egress is not None:
            self.on_egress(packet)
        if packet.pool is not None:
            packet.free()

    # ------------------------------------------------------------------
    def completed_per_second(self, elapsed_ns: int) -> float:
        return self.completed_flows * 1e9 / max(1, elapsed_ns)
