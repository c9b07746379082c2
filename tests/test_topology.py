"""Topology substrate tests: nodes, links, paths, Rocketfuel generator."""

import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.units import US
from repro.topology import (
    Link,
    NodeKind,
    NodeSpec,
    Topology,
    build_network,
    rocketfuel_like,
)


def line_topology(n=4, capacity=10.0):
    topology = Topology()
    names = [f"n{i}" for i in range(n)]
    for name in names:
        topology.add_node(NodeSpec(name=name, cores=2))
    for a, b in zip(names, names[1:]):
        topology.add_link(Link(a=a, b=b, capacity_gbps=capacity,
                               delay_ns=100 * US))
    return topology, names


class TestNodeSpec:
    def test_negative_cores_rejected(self):
        with pytest.raises(ValueError):
            NodeSpec(name="x", cores=-1)

    def test_pure_switch_has_no_cores(self):
        with pytest.raises(ValueError):
            NodeSpec(name="s", kind=NodeKind.SWITCH, cores=2)
        NodeSpec(name="s", kind=NodeKind.SWITCH, cores=0)  # fine


class TestLink:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(a="x", b="x")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link(a="x", b="y", capacity_gbps=0)

    def test_endpoints_unordered(self):
        assert Link(a="x", b="y").endpoints == frozenset(("y", "x"))


class TestTopology:
    def test_duplicate_node_rejected(self):
        topology = Topology()
        topology.add_node(NodeSpec(name="a"))
        with pytest.raises(ValueError):
            topology.add_node(NodeSpec(name="a"))

    def test_link_requires_known_nodes(self):
        topology = Topology()
        topology.add_node(NodeSpec(name="a"))
        with pytest.raises(KeyError):
            topology.add_link(Link(a="a", b="ghost"))

    def test_duplicate_link_rejected(self):
        topology, names = line_topology(3)
        with pytest.raises(ValueError):
            topology.add_link(Link(a=names[1], b=names[0]))

    def test_link_lookup_symmetric(self):
        topology, names = line_topology(3)
        assert topology.link(names[0], names[1]) is topology.link(
            names[1], names[0])
        with pytest.raises(KeyError):
            topology.link(names[0], names[2])

    def test_shortest_path_and_delay(self):
        topology, names = line_topology(4)
        path = topology.shortest_path(names[0], names[3])
        assert path == names
        assert topology.path_delay_ns(path) == 3 * 100 * US

    def test_neighbors(self):
        topology, names = line_topology(3)
        assert set(topology.neighbors(names[1])) == {names[0], names[2]}

    def test_connectivity(self):
        topology, _names = line_topology(3)
        assert topology.is_connected()
        lonely = Topology()
        lonely.add_node(NodeSpec(name="a"))
        lonely.add_node(NodeSpec(name="b"))
        assert not lonely.is_connected()

    def test_total_cores(self):
        topology, _names = line_topology(5)
        assert topology.total_cores() == 10

    def test_path_links(self):
        topology, names = line_topology(3)
        links = topology.path_links(names)
        assert len(links) == 2


def reference_graph(topology):
    """A fresh networkx graph built in the topology's own insertion
    order, so networkx breaks ties between equal-cost paths alike."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.node_names)
    for link in topology.links:
        graph.add_edge(link.a, link.b, delay_ns=link.delay_ns)
    return graph


def all_paths(topology):
    names = topology.node_names
    return {(src, dst): topology.shortest_path(src, dst)
            for src in names for dst in names}


@st.composite
def tied_topologies(draw, connected=True):
    """Random graphs with delays in 1..3 ns (ties are common); some
    nodes are switches, which route but are not NFV hosts.  Connected
    unless ``connected=False``, which may leave some nodes unlinked."""
    count = draw(st.integers(min_value=2, max_value=8))
    topology = Topology()
    for index in range(count):
        switch = index > 0 and draw(st.booleans()) and draw(st.booleans())
        topology.add_node(NodeSpec(
            name=f"v{index}",
            kind=NodeKind.SWITCH if switch else NodeKind.NFV_HOST,
            cores=0 if switch else 2))
    names = topology.node_names
    delay = st.integers(min_value=1, max_value=3)
    for index in range(1, count):
        if not connected and draw(st.booleans()):
            continue
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        topology.add_link(Link(a=names[parent], b=names[index],
                               delay_ns=draw(delay)))
    extras = draw(st.lists(st.tuples(st.integers(0, count - 1),
                                     st.integers(0, count - 1)),
                           max_size=12))
    for a, b in extras:
        if a != b and not topology.has_link(names[a], names[b]):
            topology.add_link(Link(a=names[a], b=names[b],
                                   delay_ns=draw(delay)))
    return topology


class TestRouting:
    @given(topology=tied_topologies())
    @settings(max_examples=60, deadline=None)
    def test_whole_path_matches_eager_reference(self, topology):
        """The ported search keeps networkx's tie-breaks: every ordered
        pair of nodes gets the very path a fresh networkx search picks."""
        graph = reference_graph(topology)
        for (src, dst), path in all_paths(topology).items():
            assert path == nx.shortest_path(graph, src, dst,
                                            weight="delay_ns")

    @given(topology=tied_topologies(connected=False))
    @settings(max_examples=60, deadline=None)
    def test_connectivity_matches_networkx(self, topology):
        assert topology.is_connected() == nx.is_connected(
            reference_graph(topology))

    def test_empty_topology_is_not_connected(self):
        assert not Topology().is_connected()

    @pytest.mark.parametrize("src, dst", [("ghost", "n0"), ("n0", "ghost"),
                                          ("ghost", "ghost")])
    def test_unknown_node_raises_key_error(self, src, dst):
        topology, _names = line_topology(3)
        with pytest.raises(KeyError, match="ghost"):
            topology.shortest_path(src, dst)
        with pytest.raises(KeyError):
            topology.neighbors("ghost")

    def test_missing_path_raises_value_error(self):
        topology, names = line_topology(2)
        topology.add_node(NodeSpec(name="island", cores=2))
        with pytest.raises(ValueError, match="no path"):
            topology.shortest_path(names[0], "island")
        with pytest.raises(ValueError, match="no path"):
            topology.shortest_path("island", names[1])
        assert topology.shortest_path("island", "island") == ["island"]

    def test_added_link_invalidates_memo(self):
        topology, names = line_topology(4)
        assert topology.shortest_path(names[0], names[3]) == names
        topology.add_link(Link(a=names[0], b=names[3], delay_ns=100 * US))
        fresh = nx.shortest_path(reference_graph(topology), names[0],
                                 names[3], weight="delay_ns")
        assert topology.shortest_path(names[0], names[3]) == fresh
        assert fresh == [names[0], names[3]]

    def test_added_node_invalidates_memo(self):
        topology, names = line_topology(3)
        before = all_paths(topology)
        topology.add_node(NodeSpec(name="hub", cores=2))
        for name in names:
            topology.add_link(Link(a="hub", b=name, delay_ns=1))
        graph = reference_graph(topology)
        assert before[(names[0], names[2])] == names
        for (src, dst), path in all_paths(topology).items():
            assert path == nx.shortest_path(graph, src, dst,
                                            weight="delay_ns")
        assert topology.shortest_path(names[0], names[2]) == [
            names[0], "hub", names[2]]

    def test_returned_path_is_a_private_copy(self):
        topology, names = line_topology(4)
        path = topology.shortest_path(names[0], names[3])
        path.append("ghost")
        path[0] = "tampered"
        assert topology.shortest_path(names[0], names[3]) == names

    def test_pickled_topology_with_filled_memo_answers_identically(self):
        topology = rocketfuel_like(seed=3)
        before = all_paths(topology)
        clone = pickle.loads(pickle.dumps(topology))
        assert all_paths(clone) == before
        graph = reference_graph(topology)
        assert all(path == nx.shortest_path(graph, src, dst,
                                            weight="delay_ns")
                   for (src, dst), path in before.items())


class TestBuildNetworkPorts:
    """Every host gets ``(ingress, exit, to-<neighbor>...)`` in link
    order — the order its NIC RX processes start in."""

    EXPECTED = {
        "n0": ("in", "out", "to-n1", "to-n3"),
        "n1": ("in", "out", "to-n0", "to-n2", "to-n3"),
        "n2": ("in", "out", "to-n1"),
        "n3": ("in", "out", "to-n1", "to-n0"),
    }

    @staticmethod
    def star_topology():
        topology = Topology()
        for name in ("n0", "n1", "n2", "n3"):
            topology.add_node(NodeSpec(name=name, cores=2))
        for a, b in (("n0", "n1"), ("n1", "n2"), ("n1", "n3"),
                     ("n0", "n3")):
            topology.add_link(Link(a=a, b=b, delay_ns=100 * US))
        return topology

    def test_full_build_port_order(self):
        network = build_network(Simulator(), self.star_topology(),
                                ingress_port="in", exit_port="out")
        assert {name: tuple(host.manager.ports)
                for name, host in network.hosts.items()} == self.EXPECTED

    def test_only_hosts_build_port_order(self):
        network = build_network(Simulator(), self.star_topology(),
                                ingress_port="in", exit_port="out",
                                only_hosts=("n3", "n2"))
        assert {name: tuple(host.manager.ports)
                for name, host in network.hosts.items()} == {
            name: self.EXPECTED[name] for name in ("n2", "n3")}
        # Trunks toward unrealized neighbors exist as ports all the same.
        assert sorted((wire.src_host, wire.src_port)
                      for wire in network.boundary_wires) == [
            ("n2", "to-n1"), ("n3", "to-n0"), ("n3", "to-n1")]


class TestRocketfuel:
    def test_default_matches_as16631(self):
        topology = rocketfuel_like()
        assert len(topology.node_names) == 22
        assert len(topology.links) == 64
        assert topology.is_connected()
        assert all(topology.node(name).cores == 2
                   for name in topology.node_names)

    def test_deterministic_for_seed(self):
        a = rocketfuel_like(seed=5)
        b = rocketfuel_like(seed=5)
        assert ({link.endpoints for link in a.links}
                == {link.endpoints for link in b.links})

    def test_different_seeds_differ(self):
        a = rocketfuel_like(seed=1)
        b = rocketfuel_like(seed=2)
        assert ({link.endpoints for link in a.links}
                != {link.endpoints for link in b.links})

    @given(nodes=st.integers(min_value=2, max_value=12),
           extra=st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_always_connected_with_exact_counts(self, nodes, extra):
        max_edges = nodes * (nodes - 1) // 2
        edges = min(max_edges, nodes - 1 + extra)
        topology = rocketfuel_like(nodes=nodes, edges=edges, seed=nodes)
        assert len(topology.node_names) == nodes
        assert len(topology.links) == edges
        assert topology.is_connected()

    def test_impossible_edge_counts_rejected(self):
        with pytest.raises(ValueError):
            rocketfuel_like(nodes=5, edges=3)   # below n-1
        with pytest.raises(ValueError):
            rocketfuel_like(nodes=5, edges=11)  # above n(n-1)/2
