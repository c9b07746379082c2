"""DDoS detection and mitigation NFs (§2.2 use case, §5.2 experiment).

The detector aggregates traffic volume **across flows** by source prefix
within a monitoring window — exactly the multi-flow data-plane state the
paper argues the SDN controller cannot efficiently hold.  When the rate
from a prefix exceeds the threshold it raises an alarm UserMessage, which
the SDNFV Application turns into a Scrubber VM boot; the scrubber then
issues RequestMe so all traffic is rerouted through it (§5.2's timeline).
"""

from __future__ import annotations

from repro.dataplane.actions import Verdict
from repro.dataplane.messages import RequestMe, UserMessage
from repro.net.flow import FlowMatch
from repro.net.headers import ip_to_int, ip_to_str
from repro.net.packet import Packet, wire_bits
from repro.nfs.base import NetworkFunction, NfContext
from repro.sim.units import MS

DDOS_ALARM_KEY = "ddos_alarm"


class DdosDetector(NetworkFunction):
    """Per-prefix rate monitor with a Gbps alarm threshold."""

    read_only = True
    per_packet_cost_ns = 50

    def __init__(self, service_id: str, threshold_gbps: float = 3.2,
                 prefix_bits: int = 16,
                 window_ns: int = 500 * MS) -> None:
        super().__init__(service_id)
        if not 0 < prefix_bits <= 32:
            raise ValueError("prefix_bits must be in (0, 32]")
        if window_ns <= 0:
            raise ValueError("window must be positive")
        self.threshold_gbps = threshold_gbps
        self.prefix_bits = prefix_bits
        self.window_ns = window_ns
        self._window_start = 0
        self._window_bits: dict[int, int] = {}
        self.alarmed_prefixes: set[int] = set()
        self.alarms_sent = 0

    def _prefix(self, packet: Packet) -> int:
        return ip_to_int(packet.flow.src_ip) >> (32 - self.prefix_bits)

    def prefix_match(self, prefix: int) -> FlowMatch:
        """A FlowMatch selecting all sources in an alarmed prefix."""
        base_ip = ip_to_str(prefix << (32 - self.prefix_bits))
        return FlowMatch(src_ip=base_ip, src_prefix_bits=self.prefix_bits)

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        now = ctx.now
        if now - self._window_start >= self.window_ns:
            self._window_start = now
            self._window_bits.clear()
        prefix = self._prefix(packet)
        self._window_bits[prefix] = (self._window_bits.get(prefix, 0)
                                     + wire_bits(packet.size))
        rate_gbps = self._window_bits[prefix] / max(1, self.window_ns)
        if (rate_gbps > self.threshold_gbps
                and prefix not in self.alarmed_prefixes):
            self.alarmed_prefixes.add(prefix)
            self.alarms_sent += 1
            ctx.send_message(UserMessage(
                sender_service=self.service_id,
                key=DDOS_ALARM_KEY,
                value={"prefix": prefix,
                       "prefix_bits": self.prefix_bits,
                       "rate_gbps": rate_gbps,
                       "match": self.prefix_match(prefix)}))
        return Verdict.default()


class DdosScrubber(NetworkFunction):
    """Drops traffic from attack prefixes; passes everything else.

    On registration it sends RequestMe so that nodes with an edge to it
    make it their default next hop (§5.2: "The Scrubber VM sends the
    message RequestMe to the NF manager").
    """

    read_only = False  # terminates malicious flows; not parallel-safe
    per_packet_cost_ns = 200  # detailed inspection

    def __init__(self, service_id: str,
                 attack_matches: list[FlowMatch] | None = None,
                 request_on_register: bool = True) -> None:
        super().__init__(service_id)
        self.attack_matches = list(attack_matches or [])
        self.request_on_register = request_on_register
        self.scrubbed = 0
        self.passed = 0

    def on_register(self, ctx: NfContext) -> None:
        if self.request_on_register:
            ctx.send_message(RequestMe(sender_service=self.service_id,
                                       service=self.service_id))

    def process(self, packet: Packet, ctx: NfContext) -> Verdict:
        if any(match.matches(packet.flow) for match in self.attack_matches):
            self.scrubbed += 1
            return Verdict.discard()
        self.passed += 1
        return Verdict.default()
