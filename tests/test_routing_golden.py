"""Golden digests of routing over Rocketfuel-like topologies.

Every link of :func:`rocketfuel_like` has the same delay, so equal-cost
paths are everywhere and the exact tie-breaks of the shortest-path
search decide which trunk ports and transit hosts a deployment uses.
Two things are pinned:

- for three seeded topologies, a SHA-256 of every ordered node pair's
  ``Topology.shortest_path``, from which every trunk port a rule
  names follows (``"to-" + path[1]``);
- a short :class:`ShardedSimulator` run at ``shards=1`` and
  ``shards=4`` of a 4-service chain whose consecutive services sit two
  hops apart on tied paths, so transit rules, arrival ports and
  cross-shard trunks all come from those tie-breaks: the delivered
  count, every RTT sample and every host's flow-table entries.

A change to how routes are computed must reproduce both exactly.  The
sharded run honours ``SDNFV_SHARD_WORKERS`` like
``tests/test_sharded_parity.py``, so the worker leg pins the same run
over multiprocessing pipes.  Regenerate (only for a deliberate
behaviour change) with::

    PYTHONPATH=src python -m tests.test_routing_golden \\
        > tests/data/routing_golden.json
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import networkx as nx
import pytest

from repro.core import EXIT, ServiceGraph
from repro.net import FiveTuple
from repro.sim import MS
from repro.sim.sharded import (
    Scenario,
    ShardedSimulator,
    ShardRuntime,
    TrafficSpec,
)
from repro.topology import rocketfuel_like

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "routing_golden.json")

#: Seeds of the topologies whose routing maps are digested.
DIGEST_SEEDS = (1, 7, 16631)

#: The sharded run: topology seed, and a chain placed so that each
#: service is two hops from the previous one with more than one
#: shortest path between them.
RUN_SEED = 7
PLACEMENT = {"a": "n0", "b": "n5", "c": "n1", "d": "n4"}
SHARD_COUNTS = (1, 4)
WORKERS = int(os.environ.get("SDNFV_SHARD_WORKERS", "0"))


def topology(seed: int):
    return rocketfuel_like(nodes=22, edges=64, cores_per_node=4, seed=seed)


def sha256(value: object) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def routing_digests(seed: int) -> dict:
    topo = topology(seed)
    names = topo.node_names
    paths = [[src, dst, topo.shortest_path(src, dst)]
             for src in names for dst in names if src != dst]
    return {"shortest_paths_sha256": sha256(paths)}


def chain_graph() -> ServiceGraph:
    graph = ServiceGraph("routed-chain")
    services = list(PLACEMENT)
    for service in services:
        graph.add_service(service, read_only=True)
    for src, dst in zip(services, services[1:] + [EXIT]):
        graph.add_edge(src, dst, default=True)
    graph.set_entry(services[0])
    return graph


def make_scenario() -> Scenario:
    return Scenario(
        topology=topology(RUN_SEED),
        graph=chain_graph(),
        placement=dict(PLACEMENT),
        duration_ns=6 * MS,
        traffic=[
            TrafficSpec(host=PLACEMENT["a"],
                        flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80),
                        rate_mbps=400.0, stop_ns=2 * MS),
            TrafficSpec(host=PLACEMENT["a"],
                        flow=FiveTuple("10.0.0.3", "10.0.0.4", 17, 2, 53),
                        rate_mbps=200.0, start_ns=MS // 2,
                        stop_ns=2 * MS),
        ],
    )


def flow_tables(shards: int) -> dict[str, list[list[str]]]:
    """Every realized host's rules after set-up, across all shards."""
    scenario = make_scenario()
    plan = ShardedSimulator(scenario, shards=shards).plan
    tables: dict[str, list[list[str]]] = {}
    for index in range(len(plan.groups)):
        runtime = ShardRuntime(scenario, plan, index)
        for name, host in runtime.network.hosts.items():
            entries = host.flow_table.entries()
            if entries:
                tables[name] = [[entry.scope, repr(entry.match),
                                 repr(entry.actions)]
                                for entry in entries]
    return dict(sorted(tables.items()))


def sharded_run(shards: int) -> dict:
    workers = WORKERS if shards > 1 else 0
    result = ShardedSimulator(make_scenario(), shards=shards,
                              workers=workers).run()
    samples = [sample for name in sorted(result.hosts)
               for sample in result.hosts[name]["latency_samples"]]
    return {
        "sent": result.sent,
        "delivered": result.received,
        "rtt_count": len(samples),
        "rtt_sha256": sha256(samples),
        "flow_tables": flow_tables(shards),
    }


def observed() -> dict:
    return json.loads(json.dumps({
        "routing": {str(seed): routing_digests(seed)
                    for seed in DIGEST_SEEDS},
        "sharded": {str(shards): sharded_run(shards)
                    for shards in SHARD_COUNTS},
    }, sort_keys=True))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", DIGEST_SEEDS)
def test_routing_maps_match_golden(golden, seed):
    assert routing_digests(seed) == golden["routing"][str(seed)]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_run_matches_golden(golden, shards):
    assert sharded_run(shards) == golden["sharded"][str(shards)]


def test_chain_hops_cross_tied_multi_hop_paths():
    graph = nx.Graph()
    for link in topology(RUN_SEED).links:
        graph.add_edge(link.a, link.b, delay_ns=link.delay_ns)
    hosts = list(PLACEMENT.values())
    for src, dst in zip(hosts, hosts[1:]):
        paths = list(nx.all_shortest_paths(graph, src, dst,
                                           weight="delay_ns"))
        assert len(paths[0]) >= 3, (src, dst)
        assert len(paths) > 1, (src, dst)


def test_golden_run_delivers_and_installs_transit(golden):
    for shards in SHARD_COUNTS:
        run = golden["sharded"][str(shards)]
        assert run["delivered"] > 1000
        assert run["rtt_count"] == run["delivered"]
        # Transit hosts carry rules although they host no service.
        assert set(run["flow_tables"]) - set(PLACEMENT.values())
    assert golden["sharded"]["1"] == golden["sharded"]["4"]


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
