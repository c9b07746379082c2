"""Columnar boundary transport: the sharded kernel's wire format.

Worker-mode shards exchange each window's boundary events (packets
crossing a fabric link between shards) as a :class:`BoundaryBatch`:
a handful of packed int64 columns plus small dictionary tables instead
of one pickled tuple per packet.  Columns are numpy arrays when numpy
is available and stdlib ``array`` objects otherwise, with identical
element values either way.
"""

from __future__ import annotations

import typing
from array import array

from repro._compat import HAVE_NUMPY, numpy as np

#: Field layout of one boundary event as captured by
#: ``repro.sim.sharded.ShardRuntime._capture`` — the row format that
#: :func:`encode_boundary_events` packs into columns and
#: :meth:`BoundaryBatch.decode` reproduces exactly.
BOUNDARY_FIELDS = (
    "arrival_ns", "seq", "dst_host", "dst_port",
    "src_ip", "dst_ip", "protocol", "src_port", "dst_port_num",
    "size", "payload", "created_at", "annotations",
)


def _int_column(values: "array"):
    """int64 column: numpy view when available, stdlib ``array``
    otherwise — identical element values either way."""
    if HAVE_NUMPY:
        return np.frombuffer(values, dtype=np.int64).copy() if values \
            else np.empty(0, dtype=np.int64)
    return values


class BoundaryBatch:
    """One window's boundary events toward one shard, as packed columns.

    Worker mode used to pickle one 13-field tuple per crossing packet;
    a :class:`BoundaryBatch` instead dictionary-encodes the repetitive
    fields and ships a handful of flat buffers per window:

    - seven int64 columns (arrival, capture seq, wire index, flow index,
      size, created_at, payload index),
    - three small side tables (``wires``: distinct ``(dst_host,
      dst_port)`` pairs, ``flows``: distinct five-tuples with their
      original string IPs, ``payloads``: distinct payload strings),
    - one sparse ``{row: annotations}`` mapping for the non-columnar
      remainder (``None`` when no row carries annotations).

    :meth:`decode` rebuilds the exact event tuples — same types, same
    values — so the codec is observably identical to the pickled path.
    """

    __slots__ = ("count", "arrivals", "seqs", "wire_idx", "flow_idx",
                 "sizes", "created", "payload_idx",
                 "wires", "flows", "payloads", "annotations")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state, strict=True):
            setattr(self, name, value)

    def buffer_count(self) -> int:
        """Pipe messages this batch amounts to: one per flat buffer
        (columns + side tables + the sparse annotation map), versus one
        pickled tuple per event on the legacy path."""
        return 7 + 3 + (1 if self.annotations else 0)

    def decode(self) -> list[tuple]:
        """Rebuild the original boundary-event tuples, bit for bit."""
        arrivals = self.arrivals.tolist()
        seqs = self.seqs.tolist()
        wire_idx = self.wire_idx.tolist()
        flow_idx = self.flow_idx.tolist()
        sizes = self.sizes.tolist()
        created = self.created.tolist()
        payload_idx = self.payload_idx.tolist()
        wires = self.wires
        flows = self.flows
        payloads = self.payloads
        annotations = self.annotations or {}
        events = []
        for row in range(self.count):
            dst_host, dst_port = wires[wire_idx[row]]
            events.append((
                arrivals[row], seqs[row], dst_host, dst_port,
                *flows[flow_idx[row]],
                sizes[row], payloads[payload_idx[row]], created[row],
                annotations.get(row)))
        return events


def encode_boundary_events(events: typing.Sequence[tuple]) -> BoundaryBatch:
    """Pack boundary-event rows (``BOUNDARY_FIELDS`` layout) into a
    :class:`BoundaryBatch` of columns and dictionary tables."""
    arrivals = array("q")
    seqs = array("q")
    wire_idx = array("q")
    flow_idx = array("q")
    sizes = array("q")
    created = array("q")
    payload_idx = array("q")
    wires: list[tuple[str, str]] = []
    wire_table: dict[tuple[str, str], int] = {}
    flows: list[tuple[str, str, int, int, int]] = []
    flow_table: dict[tuple[str, str, int, int, int], int] = {}
    payloads: list[str] = []
    payload_table: dict[str, int] = {}
    annotations: dict[int, tuple] = {}
    for row, event in enumerate(events):
        (arrival, seq, dst_host, dst_port, src_ip, dst_ip, protocol,
         src_port, dst_port_num, size, payload, created_at,
         encoded_annotations) = event
        wire = (dst_host, dst_port)
        index = wire_table.get(wire)
        if index is None:
            index = wire_table[wire] = len(wires)
            wires.append(wire)
        wire_idx.append(index)
        flow = (src_ip, dst_ip, protocol, src_port, dst_port_num)
        index = flow_table.get(flow)
        if index is None:
            index = flow_table[flow] = len(flows)
            flows.append(flow)
        flow_idx.append(index)
        index = payload_table.get(payload)
        if index is None:
            index = payload_table[payload] = len(payloads)
            payloads.append(payload)
        payload_idx.append(index)
        arrivals.append(arrival)
        seqs.append(seq)
        sizes.append(size)
        created.append(created_at)
        if encoded_annotations is not None:
            annotations[row] = encoded_annotations
    batch = BoundaryBatch()
    batch.count = len(events)
    batch.arrivals = _int_column(arrivals)
    batch.seqs = _int_column(seqs)
    batch.wire_idx = _int_column(wire_idx)
    batch.flow_idx = _int_column(flow_idx)
    batch.sizes = _int_column(sizes)
    batch.created = _int_column(created)
    batch.payload_idx = _int_column(payload_idx)
    batch.wires = wires
    batch.flows = flows
    batch.payloads = payloads
    batch.annotations = annotations or None
    return batch
