"""Windowed throughput measurement (what the traffic generator reports)."""

from __future__ import annotations

from repro.net.packet import wire_bits
from repro.sim.units import MS, S


class ThroughputMeter:
    """Counts frames into fixed windows; reports Gbps/Mbps/pps series."""

    def __init__(self, window_ns: int = 100 * MS,
                 count_wire_overhead: bool = True) -> None:
        if window_ns <= 0:
            raise ValueError("window must be positive")
        self.window_ns = window_ns
        self.count_wire_overhead = count_wire_overhead
        self._windows: dict[int, list[int]] = {}  # index -> [bits, packets]
        self.total_packets = 0
        self.total_bits = 0
        self.first_ns: int | None = None
        self.last_ns: int | None = None

    def record(self, now_ns: int, size_bytes: int,
               packets: int = 1) -> None:
        bits = (wire_bits(size_bytes) if self.count_wire_overhead
                else size_bytes * 8) * packets
        index = now_ns // self.window_ns
        # A lookup, not setdefault: its default list would be built on
        # every call, and PktGen records every packet twice.
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = [0, 0]
        window[0] += bits
        window[1] += packets
        self.total_packets += packets
        self.total_bits += bits
        if self.first_ns is None:
            self.first_ns = now_ns
        self.last_ns = now_ns

    def gbps_series(self) -> list[tuple[float, float]]:
        """(window_start_seconds, Gbps) per window, sorted."""
        return [(index * self.window_ns / S,
                 bits / self.window_ns)
                for index, (bits, _packets)
                in sorted(self._windows.items())]

    def pps_series(self) -> list[tuple[float, float]]:
        return [(index * self.window_ns / S,
                 packets * S / self.window_ns)
                for index, (_bits, packets)
                in sorted(self._windows.items())]

    def mean_gbps(self, start_ns: int | None = None,
                  stop_ns: int | None = None) -> float:
        """Average over [start, stop) or the full observed span.

        Accounting is at window granularity: every window overlapping the
        requested span contributes all of its bits.
        """
        if self.first_ns is None:
            return 0.0
        start = self.first_ns if start_ns is None else start_ns
        stop = (self.last_ns + 1) if stop_ns is None else stop_ns
        bits = sum(
            window_bits
            for index, (window_bits, _p) in self._windows.items()
            if (index * self.window_ns < stop
                and (index + 1) * self.window_ns > start))
        elapsed = max(1, stop - start)
        return bits / elapsed
