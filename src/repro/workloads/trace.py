"""Trace replay: drive a host from a recorded packet schedule.

Replaces the paper's production-trace experiments (no real traces are
available offline): a trace is a list of :class:`TraceRecord` rows —
timestamp, 5-tuple, size, payload — replayable at any speed, with a CSV
round trip so synthetic traces can be stored alongside experiments.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import typing

from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.sim.simulator import Simulator


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One packet in a trace."""

    timestamp_ns: int
    flow: FiveTuple
    size: int = 64
    payload: str = ""

    def __post_init__(self) -> None:
        if self.timestamp_ns < 0:
            raise ValueError("negative timestamp")
        if self.size < 64:
            raise ValueError("frame below 64-byte minimum")


_CSV_FIELDS = ["timestamp_ns", "src_ip", "dst_ip", "protocol",
               "src_port", "dst_port", "size", "payload"]


def trace_to_csv(records: typing.Sequence[TraceRecord]) -> str:
    """Serialize a trace to CSV text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS)
    writer.writeheader()
    for record in records:
        writer.writerow({
            "timestamp_ns": record.timestamp_ns,
            "src_ip": record.flow.src_ip,
            "dst_ip": record.flow.dst_ip,
            "protocol": record.flow.protocol,
            "src_port": record.flow.src_port,
            "dst_port": record.flow.dst_port,
            "size": record.size,
            "payload": record.payload,
        })
    return buffer.getvalue()


def trace_from_csv(text: str) -> list[TraceRecord]:
    """Parse a trace from CSV text (raises on malformed rows)."""
    records = []
    for row in csv.DictReader(io.StringIO(text)):
        records.append(TraceRecord(
            timestamp_ns=int(row["timestamp_ns"]),
            flow=FiveTuple(src_ip=row["src_ip"], dst_ip=row["dst_ip"],
                           protocol=int(row["protocol"]),
                           src_port=int(row["src_port"]),
                           dst_port=int(row["dst_port"])),
            size=int(row["size"]),
            payload=row["payload"],
        ))
    return records


class TraceReplayer:
    """Injects a trace into a host at a configurable speed."""

    def __init__(self, sim: Simulator, host: typing.Any,
                 records: typing.Sequence[TraceRecord],
                 ingress_port: str = "eth0",
                 speedup: float = 1.0) -> None:
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        self.sim = sim
        self.host = host
        self.ingress_port = ingress_port
        self.speedup = speedup
        self.records = sorted(records, key=lambda r: r.timestamp_ns)
        self.injected = 0
        self.done = sim.process(self._run())

    def _run(self):
        start = self.sim.now
        for record in self.records:
            due = start + round(record.timestamp_ns / self.speedup)
            if due > self.sim.now:
                yield self.sim.sleep(due - self.sim.now)
            packet = Packet(flow=record.flow, size=record.size,
                            payload=record.payload,
                            created_at=self.sim.now)
            self.host.inject(self.ingress_port, packet)
            self.injected += 1
        return self.injected
