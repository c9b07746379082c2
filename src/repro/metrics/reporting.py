"""Formatting helpers for paper-vs-measured benchmark reports."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.control.plane import ControlPlane


def comparison_table(title: str,
                     rows: typing.Sequence[tuple[str, str, str]],
                     headers: tuple[str, str, str] = (
                         "metric", "paper", "measured")) -> str:
    """Three-column paper-vs-measured table as fixed-width text."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def fmt(cells: typing.Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(width)
                         for cell, width in zip(cells, widths, strict=True))

    lines = [f"== {title} ==", fmt(headers),
             fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def counters_table(title: str,
                   counters: dict[str, int | float],
                   float_format: str = "{:.3f}") -> str:
    """Two-column name/value table for counter dumps.

    Renders e.g. the NIC drop counters (``nic_rx_dropped``,
    ``nic_link_dropped``) and batch-occupancy summaries from
    :meth:`HostStats.summary` / :meth:`HostStats.batch_summary`.
    """
    def render(value) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rows = [(name, render(value)) for name, value in counters.items()]
    name_width = max((len(name) for name, _ in rows), default=len("counter"))
    name_width = max(name_width, len("counter"))
    value_width = max((len(value) for _, value in rows), default=len("value"))
    value_width = max(value_width, len("value"))
    lines = [f"== {title} ==",
             f"{'counter'.ljust(name_width)}  {'value'.ljust(value_width)}",
             f"{'-' * name_width}  {'-' * value_width}"]
    lines.extend(f"{name.ljust(name_width)}  {value.rjust(value_width)}"
                 for name, value in rows)
    return "\n".join(lines)


def control_plane_counters(plane: ControlPlane,
                           hosts: typing.Iterable[typing.Any] = (),
                           elapsed_ns: int | None = None
                           ) -> dict[str, int | float]:
    """Flattened control-plane counters ready for :func:`counters_table`.

    One dict mixing the hosts' miss-classifier rollup (reactive miss
    rate, proactive/reactive hit counts) with per-shard controller load
    (requests, queue depth, utilization) and the plane's failover and
    outage counts.
    """
    from repro.metrics.controlplane import aggregate_miss_rate

    shards = plane.shards
    rate, misses, setups = aggregate_miss_rate(hosts)
    hits_proactive = 0
    hits_reactive = 0
    fallbacks = 0
    for host in hosts:
        stats = host.stats if hasattr(host, "stats") else host
        hits_proactive += stats.proactive_hits
        hits_reactive += stats.reactive_hits
        fallbacks += stats.miss_fallbacks
    counters: dict[str, int | float] = {
        "flow_setups": setups,
        "proactive_hits": hits_proactive,
        "reactive_hits": hits_reactive,
        "reactive_misses": misses,
        "miss_fallbacks": fallbacks,
        "reactive_miss_rate": rate,
        "control_shards": len(shards),
    }
    for index, shard in enumerate(shards):
        counters[f"shard{index}_requests"] = shard.stats.requests
        counters[f"shard{index}_queue_depth"] = shard.queue_depth
        counters[f"shard{index}_max_queue"] = shard.stats.max_queue
        if elapsed_ns is not None:
            counters[f"shard{index}_utilization"] = (
                shard.stats.utilization(elapsed_ns))
    counters["failovers"] = plane.stats.failovers
    counters["shard_outages"] = plane.stats.outages
    return counters


def series_table(title: str, columns: dict[str, typing.Sequence],
                 float_format: str = "{:.3f}") -> str:
    """Multi-column numeric series (one row per index position)."""
    names = list(columns)
    length = len(columns[names[0]])
    for name in names:
        if len(columns[name]) != length:
            raise ValueError("all series must share a length")

    def render(value) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    cells = [[render(columns[name][row]) for name in names]
             for row in range(length)]
    widths = [max(len(name), *(len(row[index]) for row in cells))
              if cells else len(name)
              for index, name in enumerate(names)]
    lines = [f"== {title} ==",
             "  ".join(name.ljust(width)
                       for name, width in zip(names, widths, strict=True)),
             "  ".join("-" * width for width in widths)]
    for row in cells:
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(row, widths, strict=True)))
    return "\n".join(lines)
