"""Micro-benchmark: adaptive per-pair lookahead on a WAN chain.

The worst case for a global-minimum lookahead is one fast link in an
otherwise slow topology: a 12-host WAN chain whose crossing links are
all 5 ms except a single 50 us intra-DC hop in the middle.  At
``shards=12`` a global barrier would stop *every* shard every 50 us;
the schedule confines the microsecond cadence to the two shards
actually coupled by the fast link and advances the other ten in 5 ms
WAN strides.  Three gates, all deterministic:

- **Correctness:** the sharded run over worker processes reports the
  same network totals as the monolithic ``shards=1`` run.
- **Window reduction:** the schedule advances >= 5x fewer
  shard-windows than the analytic global-barrier count,
  ``HOSTS * (DURATION // FAST_DELAY)``.
- **Boundary bytes:** the pickled boundary traffic stays at or below
  ``MAX_BOUNDARY_BYTES``, the size of the per-event tuple lists this
  workload shipped when that was first recorded, so the wire format
  cannot grow silently.

The JSON artifact (``results/micro_adaptive.json``) records window
counts and transport counters per run.
"""

from repro.core import EXIT, ServiceGraph
from repro.net import FiveTuple
from repro.sim import MS, US
from repro.sim.sharded import Scenario, ShardedSimulator, TrafficSpec
from repro.topology import Link, NodeSpec, Topology

HOSTS = 12
FAST_DELAY = 50 * US    # the lone intra-DC hop (h5 - h6)
SLOW_DELAY = 5 * MS     # every WAN hop
DURATION = 20 * MS
RATE_MBPS = 1000.0
STOP_NS = 16 * MS
WORKERS = 4

#: Shard-windows a global barrier at the fastest crossing link needs.
GLOBAL_BARRIER_WINDOWS = HOSTS * (DURATION // FAST_DELAY)
MIN_WINDOW_REDUCTION = 5.0
MAX_BOUNDARY_BYTES = 1_553_769


def make_scenario() -> Scenario:
    topology = Topology()
    for i in range(HOSTS):
        topology.add_node(NodeSpec(name=f"h{i}", cores=4))
    for i in range(HOSTS - 1):
        delay = FAST_DELAY if i == 5 else SLOW_DELAY
        topology.add_link(Link(a=f"h{i}", b=f"h{i + 1}", delay_ns=delay))
    graph = ServiceGraph("dc-edge")
    for service in ("a", "b", "c"):
        graph.add_service(service, read_only=True)
    graph.add_edge("a", "b", default=True)
    graph.add_edge("b", "c", default=True)
    graph.add_edge("c", EXIT, default=True)
    graph.set_entry("a")
    # The chain straddles the fast hop: a->b rides a WAN link, b->c the
    # 50 us link, so boundary traffic crosses both delay classes.
    return Scenario(
        topology=topology, graph=graph,
        placement={"a": "h4", "b": "h5", "c": "h6"},
        duration_ns=DURATION,
        traffic=[TrafficSpec(
            host="h4",
            flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
            rate_mbps=RATE_MBPS, packet_size=64, stop_ns=STOP_NS)],
    )


def run_once(shards: int, workers: int) -> dict:
    result = ShardedSimulator(make_scenario(), shards=shards,
                              workers=workers).run()
    return {
        "shards": shards,
        "workers": workers,
        **result.transport_summary(),
        "totals": result.totals(),
    }


def test_adaptive_schedule_and_boundary_bytes(report):
    mono = run_once(1, 0)
    sharded = run_once(HOSTS, WORKERS)

    # Correctness: sharding is not a model change.
    assert sharded["totals"] == mono["totals"]
    assert mono["totals"]["received"] > 10_000  # the workload is real

    # Gate 1: the schedule confines the 50 us cadence to the two
    # fast-coupled shards.
    window_reduction = GLOBAL_BARRIER_WINDOWS / sharded["windows"]
    assert window_reduction >= MIN_WINDOW_REDUCTION, (
        f"advanced {sharded['windows']} windows vs a global barrier's "
        f"{GLOBAL_BARRIER_WINDOWS} — only {window_reduction:.2f}x fewer "
        f"(need {MIN_WINDOW_REDUCTION}x)")

    # Gate 2: the boundary traffic does not grow.
    assert 0 < sharded["bytes"] <= MAX_BOUNDARY_BYTES, (
        f"shipped {sharded['bytes']} boundary bytes "
        f"(ceiling {MAX_BOUNDARY_BYTES})")

    lines = [
        f"adaptive lookahead on a {HOSTS}-host WAN chain "
        f"(one {FAST_DELAY // US} us hop among {SLOW_DELAY // MS} ms "
        f"links, shards={HOSTS}, workers={WORKERS})",
        f"{'run':>8} {'windows':>8} {'batches':>8} {'bytes':>9}",
    ]
    for name, run in (("mono", mono), ("sharded", sharded)):
        lines.append(f"{name:>8} {run['windows']:>8} "
                     f"{run['batches']:>8} {run['bytes']:>9}")
    lines.append(f"window reduction {window_reduction:.2f}x vs "
                 f"{GLOBAL_BARRIER_WINDOWS} global-barrier windows, "
                 f"{sharded['bytes']} of {MAX_BOUNDARY_BYTES} bytes")
    report("micro_adaptive", "\n".join(lines),
           metrics={"mono": mono, "sharded": sharded,
                    "window_reduction": window_reduction},
           config={"hosts": HOSTS, "fast_delay_ns": FAST_DELAY,
                   "slow_delay_ns": SLOW_DELAY,
                   "duration_ns": DURATION, "rate_mbps": RATE_MBPS,
                   "stop_ns": STOP_NS, "workers": WORKERS,
                   "global_barrier_windows": GLOBAL_BARRIER_WINDOWS,
                   "min_window_reduction": MIN_WINDOW_REDUCTION,
                   "max_boundary_bytes": MAX_BOUNDARY_BYTES})
