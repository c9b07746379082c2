"""The video-optimization NFs (§2.2 use case, §5.3 experiment).

Four cooperating NFs:

- :class:`VideoFlowDetector` parses HTTP headers to classify each flow's
  content type (kept as per-flow state after the first classified packet);
- :class:`PolicyEngine` decides per flow whether it must be transcoded,
  based on a dynamic bandwidth policy, and uses ChangeDefault / RequestMe
  to retarget flows **without contacting the SDN controller**;
- :class:`QualityDetector` checks whether transcoding would retain the
  desired quality;
- :class:`Transcoder` emulates down-sampling "by dropping packets"
  (exactly what the paper's own evaluation does), halving a flow's rate.
"""

from __future__ import annotations

import sys

from repro.dataplane.actions import Verdict
from repro.dataplane.messages import ChangeDefault, RequestMe
from repro.net.flow import FiveTuple, FlowMatch
from repro.net.http import classify_content_type, is_video_content
from repro.net.packet import Packet
from repro.nfs.base import NetworkFunction, NfContext


class VideoFlowDetector(NetworkFunction):
    """Classifies flows as video / non-video from HTTP response headers."""

    read_only = True
    per_packet_cost_ns = 80  # header parse

    def __init__(self, service_id: str) -> None:
        super().__init__(service_id)
        self.flow_content: dict[FiveTuple, str | None] = {}
        self.video_flows = 0

    def is_video_flow(self, flow: FiveTuple) -> bool | None:
        """Classification for a flow (None = not yet determined)."""
        if flow not in self.flow_content:
            return None
        return is_video_content(self.flow_content[flow])

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        flow = packet.flow
        if flow not in self.flow_content:
            content_type = classify_content_type(packet.payload)
            if content_type is not None:
                # One string object per content type, not one per flow.
                self.flow_content[flow] = sys.intern(content_type)
                if is_video_content(content_type):
                    self.video_flows += 1
                    packet.annotations["video"] = True
        elif is_video_content(self.flow_content[flow]):
            packet.annotations["video"] = True
        return Verdict.default()


class PolicyEngine(NetworkFunction):
    """Per-flow routing policy with dynamic throttling (§5.3).

    When throttling is off, each examined flow is released: the engine
    issues ``ChangeDefault(flow, detector → exit)`` so subsequent packets
    bypass it entirely, and sends the current packet straight out.  When a
    policy change turns throttling on, the engine issues ``RequestMe`` to
    pull **all existing flows** back through itself, then retargets each
    to the transcoder — the paper's key flexibility claim.
    """

    read_only = False  # it rewrites flow rules

    def __init__(self, service_id: str, detector_service: str,
                 transcoder_service: str, exit_port: str,
                 throttle: bool = False) -> None:
        super().__init__(service_id)
        self.detector_service = detector_service
        self.transcoder_service = transcoder_service
        self.exit_port = exit_port
        self._throttle = throttle
        self._ctx: NfContext | None = None
        self.flows_released: set[FiveTuple] = set()
        self.flows_throttled: set[FiveTuple] = set()

    def on_register(self, ctx: NfContext) -> None:
        self._ctx = ctx

    @property
    def throttling(self) -> bool:
        return self._throttle

    def set_throttle(self, enabled: bool) -> None:
        """Flip the policy.  Turning throttling on recalls all flows."""
        if enabled == self._throttle:
            return
        self._throttle = enabled
        if self._ctx is None:
            return
        if enabled:
            # Pull every flow (including previously released ones) back
            # through the policy engine so each can be re-decided.
            self._ctx.send_message(RequestMe(
                sender_service=self.service_id, service=self.service_id))
            self.flows_released.clear()
        else:
            self.flows_throttled.clear()

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        flow = packet.flow
        if self._throttle:
            if flow not in self.flows_throttled:
                self.flows_throttled.add(flow)
                ctx.send_message(ChangeDefault(
                    sender_service=self.service_id,
                    flows=FlowMatch.exact(flow),
                    service=self.service_id,
                    target=self.transcoder_service))
            return Verdict.send_to_service(self.transcoder_service)
        if flow not in self.flows_released:
            self.flows_released.add(flow)
            # Subsequent packets of this flow skip the policy engine: the
            # detector sends them straight out the NIC (Fig. 4's per-flow
            # rule specialisation).
            ctx.send_message(ChangeDefault(
                sender_service=self.service_id,
                flows=FlowMatch.exact(flow),
                service=self.detector_service,
                target=f"port:{self.exit_port}"))
        return Verdict.send_to_port(self.exit_port)


class QualityDetector(NetworkFunction):
    """Decides if a video "can still retain the desired quality after
    transcoding" — modeled as a bitrate-annotation threshold."""

    read_only = True
    per_packet_cost_ns = 60

    def __init__(self, service_id: str,
                 min_bitrate_kbps: int = 500) -> None:
        super().__init__(service_id)
        self.min_bitrate_kbps = min_bitrate_kbps
        self.approved = 0
        self.rejected = 0

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        bitrate = packet.annotations.get("bitrate_kbps", 2000)
        if bitrate / 2 >= self.min_bitrate_kbps:
            self.approved += 1
            packet.annotations["transcode_ok"] = True
        else:
            self.rejected += 1
            packet.annotations["transcode_ok"] = False
        return Verdict.default()


class Transcoder(NetworkFunction):
    """Emulates down-sampling by dropping alternate packets per flow.

    ``keep_ratio`` = 0.5 halves each flow's rate (the §5.3 configuration).
    """

    read_only = False  # consumes packets

    def __init__(self, service_id: str, keep_ratio: float = 0.5,
                 per_packet_cost_ns: int = 500) -> None:
        super().__init__(service_id)
        if not 0.0 < keep_ratio <= 1.0:
            raise ValueError("keep_ratio must be in (0, 1]")
        self.keep_ratio = keep_ratio
        self.per_packet_cost_ns = per_packet_cost_ns
        self._credit: dict[FiveTuple, float] = {}
        self.transcoded = 0
        self.dropped = 0

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        credit = self._credit.get(packet.flow, 0.0) + self.keep_ratio
        if credit >= 1.0:
            self._credit[packet.flow] = credit - 1.0
            self.transcoded += 1
            packet.annotations["transcoded"] = True
            if "bitrate_kbps" in packet.annotations:
                packet.annotations["bitrate_kbps"] //= 2
            return Verdict.default()
        self._credit[packet.flow] = credit
        self.dropped += 1
        return Verdict.discard()
