"""Golden digests of what :meth:`SdnfvApp.deploy` installs.

Each case deploys one or more service graphs and pins, for every host:

- its flow table in table order, one SHA-256 per entry of
  ``(scope, match, actions, priority, proactive)`` (no
  timestamps, so *when* a rule lands is not pinned, only what lands);
- the parallel chains its NF Manager registered;
- the ``rules_for`` answer, digested the same way, for one flow the
  deployments cover and one they do not.

The cases are the single-host video graph, Table 2's two exact-match
deployments, ``auto_parallel`` over Firewall -> FlowMonitor ->
DscpMarker -> Sampler, a routed 3-host line whose middle host is a
pure transit hop (proactive and reactive), and a 2-host split over a
built 2-host network, without and with a :class:`ControlPlane`; the
controller case is snapshotted after one idle flow-setup round trip
plus 1 ms.

Only per-host tables are pinned, never the order in which hosts were
installed.  Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src python -m tests.test_deploy_golden \\
        > tests/data/deploy_golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.control import ControlPlane
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost
from repro.net import FiveTuple, FlowMatch
from repro.nfs import DscpMarker, Firewall, FlowMonitor, Sampler
from repro.sim import MS, Simulator
from repro.topology import Link, NodeSpec, Topology, build_network

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "deploy_golden.json")

COVERED = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
UNCOVERED = FiveTuple("192.168.9.9", "192.168.9.8", 17, 4000, 53)
#: The multi-host cases cover 10/8, so UNCOVERED misses them.
TEN_SLASH_8 = FlowMatch(src_ip="10.0.0.0", src_prefix_bits=8)


def sha256(value: object) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def entry_digest(entry) -> str:
    return sha256([entry.scope, repr(entry.match), repr(entry.actions),
                   entry.priority, entry.proactive])


def chain(name: str, services: list[str],
          read_only: bool = False) -> ServiceGraph:
    graph = ServiceGraph(name)
    for service in services:
        graph.add_service(service, read_only=read_only)
    for src, dst in zip(services, services[1:] + [EXIT]):
        graph.add_edge(src, dst, default=True)
    graph.set_entry(services[0])
    return graph


def video_graph() -> ServiceGraph:
    graph = ServiceGraph("video")
    graph.add_service("vd", read_only=True)
    graph.add_service("pe")
    graph.add_edge("vd", "pe", default=True)
    graph.add_edge("vd", EXIT)
    graph.add_edge("pe", EXIT, default=True)
    graph.set_entry("vd")
    return graph


def app_with_hosts(sim, names):
    app = SdnfvApp(sim)
    hosts = {}
    for name in names:
        hosts[name] = NfvHost(sim, name=name)
        app.register_host(hosts[name])
    return app, hosts


def case_video(sim):
    app, hosts = app_with_hosts(sim, ["h0"])
    app.deploy(video_graph())
    return app, hosts


def case_table2(sim):
    app, hosts = app_with_hosts(sim, ["h0"])
    app.deploy(chain("seq", ["s0", "s1", "s2"]),
               match=FlowMatch.exact(COVERED))
    app.deploy(chain("par", ["p0", "p1", "p2"], read_only=True),
               match=FlowMatch.exact(
                   FiveTuple("10.0.0.3", "10.0.0.4", 6, 1234, 80)))
    return app, hosts


def case_auto_parallel(sim):
    app, hosts = app_with_hosts(sim, ["h0"])
    host = hosts["h0"]
    host.add_nf(Firewall("fw"))
    host.add_nf(FlowMonitor("mon"))
    host.add_nf(DscpMarker("dscp", default_dscp=34))
    host.add_nf(Sampler("samp", analysis_service="sink", sample_rate=0.25))
    graph = chain("mixed", ["fw", "mon", "dscp", "samp"])
    app.deploy(graph, auto_parallel=True)
    return app, hosts


TWO_HOST_PLACEMENT = {"a": "host1", "b": "host1", "c": "host2"}


def routed_app(sim, names, controller=None):
    """An app over a built line of ``names`` (50 us links)."""
    topology = Topology()
    for name in names:
        topology.add_node(NodeSpec(name=name, cores=2))
    for a, b in zip(names, names[1:]):
        topology.add_link(Link(a=a, b=b, delay_ns=50_000))
    network = build_network(sim, topology)
    app = SdnfvApp(sim, controller=controller)
    for host in network.hosts.values():
        host.manager.controller = controller
        app.register_host(host)
    return app, network


def routed_line(sim, proactive):
    app, network = routed_app(sim, ["h0", "h1", "h2"])
    app.deploy(chain("routed", ["a", "b"], read_only=True),
               match=TEN_SLASH_8, placement={"a": "h0", "b": "h2"},
               network=network, proactive=proactive)
    return app, dict(network.hosts)


def case_routed_proactive(sim):
    return routed_line(sim, proactive=True)


def case_routed_reactive(sim):
    return routed_line(sim, proactive=False)


def case_routed_two_host(sim):
    app, network = routed_app(sim, ["host1", "host2"])
    app.deploy(chain("split", ["a", "b", "c"], read_only=True),
               match=TEN_SLASH_8, placement=dict(TWO_HOST_PLACEMENT),
               network=network)
    return app, dict(network.hosts)


def case_routed_controller(sim):
    controller = ControlPlane(sim)
    app, network = routed_app(sim, ["host1", "host2"],
                              controller=controller)
    app.deploy(chain("split", ["a", "b", "c"], read_only=True),
               match=TEN_SLASH_8, placement=dict(TWO_HOST_PLACEMENT),
               network=network)
    sim.run(until=controller.idle_lookup_ns + 1 * MS)
    return app, dict(network.hosts)


CASES = {
    "video": case_video,
    "table2": case_table2,
    "auto_parallel": case_auto_parallel,
    "routed_proactive": case_routed_proactive,
    "routed_reactive": case_routed_reactive,
    "routed_two_host": case_routed_two_host,
    "routed_controller": case_routed_controller,
}


def snapshot(name: str) -> dict:
    app, hosts = CASES[name](Simulator())
    out = {}
    for host_name in sorted(hosts):
        host = hosts[host_name]
        out[host_name] = {
            "table": [entry_digest(entry)
                      for entry in host.flow_table.entries()],
            "chains": dict(sorted(host.manager._parallel_chains.items())),
            "rules_for_covered": [
                entry_digest(entry) for entry in app.rules_for(
                    host_name, "eth0", COVERED)],
            "rules_for_uncovered": [
                entry_digest(entry) for entry in app.rules_for(
                    host_name, "eth0", UNCOVERED)],
        }
    return out


def observed() -> dict:
    return {name: snapshot(name) for name in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_deploy_matches_golden(golden, name):
    assert snapshot(name) == golden[name]


def test_golden_cases_exercise_the_cover(golden):
    # Proactive deploys fill the tables; the reactive one leaves them
    # empty but answers misses with the same cover.
    assert all(golden["routed_proactive"][host]["table"]
               for host in ("h0", "h1", "h2"))
    assert not any(golden["routed_reactive"][host]["table"]
                   for host in ("h0", "h1", "h2"))
    assert golden["routed_reactive"]["h1"]["rules_for_covered"]
    assert golden["routed_controller"]["host2"]["table"]
    assert golden["auto_parallel"]["h0"]["chains"]
    for name in ("table2", "routed_proactive", "routed_reactive",
                 "routed_two_host", "routed_controller"):
        for host in golden[name].values():
            assert host["rules_for_uncovered"] == []


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
