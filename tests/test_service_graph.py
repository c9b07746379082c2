"""Service graph tests: construction, validation, compilation, chains."""

import pickle

import pytest

from repro.core import (
    DROP,
    EXIT,
    DistributedDeploymentError,
    SdnfvApp,
    ServiceGraph,
    compile_distributed_rules,
)
from repro.core.service_graph import ServiceEdge
from repro.dataplane import Drop, ToPort, ToService
from repro.net import FlowMatch
from repro.topology import Link, NodeSpec, Topology


def anomaly_graph():
    """The §2.2 anomaly-detection graph (Fig. 3, left)."""
    graph = ServiceGraph("anomaly")
    graph.add_service("firewall", read_only=True)
    graph.add_service("sampler", read_only=True)
    graph.add_service("ddos", read_only=True)
    graph.add_service("ids", read_only=True)
    graph.add_service("scrubber")
    graph.add_edge("firewall", "sampler", default=True)
    graph.add_edge("sampler", EXIT, default=True)  # unsampled traffic
    graph.add_edge("sampler", "ddos")              # sampled traffic
    graph.add_edge("ddos", "ids", default=True)
    graph.add_edge("ids", EXIT, default=True)
    graph.add_edge("ids", "scrubber")
    graph.add_edge("scrubber", EXIT, default=True)
    graph.add_edge("scrubber", DROP)
    graph.set_entry("firewall")
    return graph


def video_graph():
    """A simplified Fig. 4 video-optimizer graph."""
    graph = ServiceGraph("video")
    graph.add_service("vd", read_only=True)
    graph.add_service("pe")
    graph.add_service("tc")
    graph.add_service("cache")
    graph.add_edge("vd", "pe", default=True)
    graph.add_edge("vd", EXIT)
    graph.add_edge("pe", "tc", default=True)
    graph.add_edge("pe", "cache")
    graph.add_edge("tc", "cache", default=True)
    graph.add_edge("cache", EXIT, default=True)
    graph.set_entry("vd")
    return graph


def branchy_graph():
    """Services declared out of name order, branches, DROP edges, and
    defaults added after their siblings: every query's order shows."""
    graph = ServiceGraph("branchy")
    for name in ("z", "m", "a", "k"):
        graph.add_service(name)
    graph.add_edge("z", "k")
    graph.add_edge("z", DROP)
    graph.add_edge("z", "m", default=True)
    graph.add_edge("m", "k")
    graph.add_edge("m", "a", default=True)
    graph.add_edge("a", DROP)
    graph.add_edge("a", "k", default=True)
    graph.add_edge("a", EXIT)
    graph.add_edge("k", EXIT, default=True)
    graph.set_entry("z")
    return graph


def one_service_graph():
    graph = ServiceGraph("g")
    graph.add_service("a")
    graph.add_edge("a", EXIT, default=True)
    graph.set_entry("a")
    return graph


class TestConstruction:
    def test_duplicate_service_rejected(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        with pytest.raises(ValueError):
            graph.add_service("a")

    def test_reserved_names_rejected(self):
        graph = ServiceGraph("g")
        with pytest.raises(ValueError):
            graph.add_service(EXIT)

    def test_edge_requires_known_vertices(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        with pytest.raises(ValueError):
            graph.add_edge("a", "ghost")
        with pytest.raises(ValueError):
            graph.add_edge("ghost", "a")

    def test_single_default_per_vertex(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_service("b")
        graph.add_edge("a", "b", default=True)
        with pytest.raises(ValueError):
            graph.add_edge("a", EXIT, default=True)

    def test_duplicate_edge_rejected(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_edge("a", EXIT, default=True)
        with pytest.raises(ValueError):
            graph.add_edge("a", EXIT)

    def test_graph_needs_name(self):
        with pytest.raises(ValueError):
            ServiceGraph("")


class TestValidation:
    def test_valid_graphs_pass(self):
        anomaly_graph().validate()
        video_graph().validate()

    def test_entry_required(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_edge("a", EXIT, default=True)
        with pytest.raises(ValueError, match="entry"):
            graph.validate()

    def test_cycle_detected(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_service("b")
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", "a", default=True)
        graph.set_entry("a")
        with pytest.raises(ValueError, match="cycle"):
            graph.validate()

    def test_unreachable_service_detected(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_service("island")
        graph.add_edge("a", EXIT, default=True)
        graph.add_edge("island", EXIT, default=True)
        graph.set_entry("a")
        with pytest.raises(ValueError, match="unreachable"):
            graph.validate()

    def test_dead_end_detected(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_service("b")
        graph.add_edge("a", "b", default=True)
        graph.set_entry("a")
        with pytest.raises(ValueError, match="default|exit"):
            graph.validate()

    def test_missing_default_detected(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_edge("a", EXIT)
        graph.set_entry("a")
        with pytest.raises(ValueError, match="default"):
            graph.validate()


class TestValidationRejects:
    """Every check ``validate`` makes, each on a graph that fails only
    it (or fails it first), with the texts callers see."""

    def test_self_loop_is_a_cycle(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_edge("a", "a", default=True)
        graph.add_edge("a", EXIT)
        graph.set_entry("a")
        with pytest.raises(ValueError, match="cycle") as info:
            graph.validate()
        assert "a" in str(info.value)

    def test_cycle_away_from_the_entry(self):
        graph = ServiceGraph("g")
        for name in ("e", "b", "c"):
            graph.add_service(name)
        graph.add_edge("e", "b", default=True)
        graph.add_edge("b", "c", default=True)
        graph.add_edge("b", EXIT)
        graph.add_edge("c", "b", default=True)
        graph.set_entry("e")
        with pytest.raises(ValueError, match="cycle") as info:
            graph.validate()
        assert "b" in str(info.value) and "c" in str(info.value)

    def test_cycle_message_walks_the_cycle(self):
        graph = ServiceGraph("g")
        for name in ("e", "b", "c"):
            graph.add_service(name)
        graph.add_edge("e", "b", default=True)
        graph.add_edge("b", "c", default=True)
        graph.add_edge("c", "b", default=True)
        graph.add_edge("c", "c")
        graph.set_entry("e")
        with pytest.raises(ValueError) as info:
            graph.validate()
        assert str(info.value) == "service graph has a cycle: b -> c -> b"
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_edge("a", "a", default=True)
        graph.set_entry("a")
        with pytest.raises(ValueError) as info:
            graph.validate()
        assert str(info.value) == "service graph has a cycle: a -> a"

    def test_cycle_is_reported_before_unreachable(self):
        graph = ServiceGraph("g")
        for name in ("a", "x", "y"):
            graph.add_service(name)
        graph.add_edge("a", EXIT, default=True)
        graph.add_edge("x", "y", default=True)
        graph.add_edge("y", "x", default=True)
        graph.set_entry("a")
        with pytest.raises(ValueError, match="cycle"):
            graph.validate()

    def test_unreachable_services_listed_sorted(self):
        graph = ServiceGraph("g")
        for name in ("a", "q", "p"):
            graph.add_service(name)
        graph.add_edge("a", EXIT, default=True)
        graph.add_edge("q", "a", default=True)
        graph.add_edge("p", DROP, default=True)
        graph.set_entry("a")
        with pytest.raises(ValueError) as info:
            graph.validate()
        assert str(info.value) == "services unreachable from entry: ['p', 'q']"

    def test_unreachable_is_reported_before_dead_end(self):
        graph = ServiceGraph("g")
        for name in ("a", "island"):
            graph.add_service(name)
        graph.add_edge("a", EXIT, default=True)
        graph.set_entry("a")
        with pytest.raises(ValueError, match="unreachable"):
            graph.validate()

    def test_dead_end(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_service("b")
        graph.add_edge("a", "b", default=True)
        graph.set_entry("a")
        with pytest.raises(ValueError) as info:
            graph.validate()
        assert str(info.value) == ("'b' has no exit (dead end); "
                                   "add an edge to EXIT or DROP")

    def test_no_default(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_edge("a", EXIT)
        graph.set_entry("a")
        with pytest.raises(ValueError) as info:
            graph.validate()
        assert str(info.value) == ("'a' must have exactly one default "
                                   "edge, has 0")

    def test_two_defaults(self, monkeypatch):
        # add_edge refuses a second default, so only a graph whose edges
        # were altered behind it can reach this check.
        graph = one_service_graph()
        monkeypatch.setattr(graph, "out_edges", lambda service: [
            ServiceEdge(service, EXIT, default=True),
            ServiceEdge(service, DROP, default=True)])
        with pytest.raises(ValueError) as info:
            graph.validate()
        assert str(info.value) == ("'a' must have exactly one default "
                                   "edge, has 2")

    def test_no_path_to_exit_or_drop(self, monkeypatch):
        # Likewise unreachable through add_edge: a finite DAG whose
        # services all have an exit reaches a sentinel.
        graph = one_service_graph()
        monkeypatch.setattr(graph, "out_edges", lambda service: [
            ServiceEdge(service, service, default=True)])
        with pytest.raises(ValueError) as info:
            graph.validate()
        assert str(info.value) == "no path reaches EXIT or DROP"


class TestQueryOrder:
    """What every query returns on a branchy graph, order included:
    these hold whatever ``PYTHONHASHSEED`` is."""

    def test_services_in_declaration_order(self):
        assert branchy_graph().services == ["z", "m", "a", "k"]

    def test_out_edges_default_first_then_insertion_order(self):
        graph = branchy_graph()
        assert graph.out_edges("z") == [ServiceEdge("z", "m", True),
                                        ServiceEdge("z", "k", False),
                                        ServiceEdge("z", DROP, False)]
        assert graph.out_edges("a") == [ServiceEdge("a", "k", True),
                                        ServiceEdge("a", DROP, False),
                                        ServiceEdge("a", EXIT, False)]
        assert graph.out_edges("k") == [ServiceEdge("k", EXIT, True)]
        assert graph.out_edges(EXIT) == []
        assert graph.out_edges(DROP) == []

    def test_predecessors_in_edge_insertion_order(self):
        graph = branchy_graph()
        assert graph.predecessors("k") == ["z", "m", "a"]
        assert graph.predecessors("a") == ["m"]
        assert graph.predecessors("z") == []
        assert graph.predecessors(EXIT) == ["a", "k"]
        assert graph.predecessors(DROP) == ["z", "a"]

    def test_sentinels_are_neither_services_nor_edge_sources(self):
        graph = branchy_graph()
        for sentinel in (EXIT, DROP):
            assert not graph.has_service(sentinel)
            assert not graph.has_edge(sentinel, "z")
        assert not graph.has_service("ghost")
        assert graph.has_service("k")
        assert graph.has_edge("a", DROP) and graph.has_edge("a", EXIT)
        assert not graph.has_edge("k", DROP)
        assert not graph.has_edge("ghost", EXIT)
        assert not graph.has_edge("k", "z")

    def test_default_successor(self):
        graph = branchy_graph()
        assert [graph.default_successor(service)
                for service in graph.services] == ["m", "a", "k", EXIT]
        with pytest.raises(ValueError, match="no default edge"):
            graph.default_successor(EXIT)

    def test_parallel_chains_and_layout_without_profiles(self):
        graph = anomaly_graph()
        assert graph.parallel_chains() == [["firewall", "sampler"],
                                           ["ddos", "ids"]]
        assert graph.auto_parallel_layout() == [
            ["firewall", "sampler"], ["ddos", "ids"], ["scrubber"]]
        assert branchy_graph().parallel_chains() == []
        assert branchy_graph().auto_parallel_layout() == [
            ["z"], ["m"], ["a"], ["k"]]

    @pytest.mark.parametrize("build", [anomaly_graph, video_graph,
                                       branchy_graph])
    def test_pickle_round_trip_compiles_the_same_rules(self, build):
        """Scenarios (graphs included) are pickled for shard workers."""
        graph = build()
        copy = pickle.loads(pickle.dumps(graph))
        copy.validate()
        assert copy.name == graph.name and copy.entry == graph.entry
        assert copy.services == graph.services
        assert all(copy.out_edges(service) == graph.out_edges(service)
                   and copy.predecessors(service)
                   == graph.predecessors(service)
                   and copy.is_read_only(service)
                   == graph.is_read_only(service)
                   for service in graph.services)
        assert rule_shapes(copy) == rule_shapes(graph)


class TestQueries:
    def test_out_edges_default_first(self):
        graph = anomaly_graph()
        edges = graph.out_edges("sampler")
        assert edges[0].dst == EXIT and edges[0].default
        assert {edge.dst for edge in edges[1:]} == {"ddos"}

    def test_default_successor(self):
        graph = anomaly_graph()
        assert graph.default_successor("firewall") == "sampler"
        assert graph.default_successor("ddos") == "ids"

    def test_services_excludes_sentinels(self):
        graph = anomaly_graph()
        assert EXIT not in graph.services
        assert DROP not in graph.services

    def test_predecessors(self):
        graph = anomaly_graph()
        assert graph.predecessors("ids") == ["ddos"]


def compile_on_one_host(graph, **kwargs):
    """The graph's rules with every service on one host, in order."""
    return [entry for _host, entry in compile_distributed_rules(
        graph, dict.fromkeys(graph.services, "h0"), ("h0",), **kwargs)]


def rule_shapes(graph):
    """What the one-host rules say, without their per-process ids."""
    return [(rule.scope, rule.match, rule.actions, rule.priority)
            for rule in compile_on_one_host(graph)]


class TestCompilation:
    def test_single_host_rules(self, flow):
        rules = compile_on_one_host(video_graph())
        by_scope = {rule.scope: rule for rule in rules}
        assert by_scope["eth0"].actions == (ToService("vd"),)
        assert by_scope["vd"].actions == (ToService("pe"), ToPort("eth1"))
        assert by_scope["pe"].actions == (ToService("tc"),
                                          ToService("cache"))
        assert by_scope["cache"].actions == (ToPort("eth1"),)

    def test_drop_edges_compile_to_drop(self):
        rules = compile_on_one_host(anomaly_graph())
        scrubber = next(rule for rule in rules if rule.scope == "scrubber")
        assert scrubber.actions == (ToPort("eth1"), Drop())

    def test_match_propagates_to_all_rules(self, flow):
        match = FlowMatch(dst_port=80)
        rules = compile_on_one_host(video_graph(), match=match)
        assert all(rule.match == match for rule in rules)

    def test_compile_validates_graph(self, sim):
        """The deploy that compiles a graph validates it first."""
        graph = ServiceGraph("g")
        graph.add_service("a")
        with pytest.raises(ValueError):
            SdnfvApp(sim).deploy(graph)

    def test_multi_host_split(self):
        """Fig. 3's two-host deployment: edges crossing hosts become
        port actions; an arrival rule on the trunk picks up mid-graph."""
        graph = video_graph()
        placement = {"vd": "host1", "pe": "host1", "tc": "host1",
                     "cache": "host2"}
        topology = Topology()
        for name in ("host1", "host2"):
            topology.add_node(NodeSpec(name=name, cores=2))
        topology.add_link(Link(a="host1", b="host2"))
        rules = compile_distributed_rules(
            graph, placement, ("host1", "host2"), topology=topology)
        by_scope1 = {rule.scope: rule for host, rule in rules
                     if host == "host1"}
        assert by_scope1["eth0"].actions == (ToService("vd"),)
        # Both edges into cache cross to host2 via the trunk.
        assert by_scope1["pe"].actions == (ToService("tc"),
                                           ToPort("to-host2"))
        assert by_scope1["tc"].actions == (ToPort("to-host2"),)
        assert "cache" not in by_scope1

        by_scope2 = {rule.scope: rule for host, rule in rules
                     if host == "host2"}
        # Packets arriving from host1 go to cache, the service there.
        assert by_scope2["to-host1"].actions == (ToService("cache"),)
        assert by_scope2["cache"].actions == (ToPort("eth1"),)
        assert set(by_scope2) == {"to-host1", "cache"}

    def test_split_without_topology_rejected(self):
        graph = video_graph()
        placement = {"vd": "host1", "pe": "host1",
                     "tc": "host2", "cache": "host2"}
        with pytest.raises(DistributedDeploymentError, match="network="):
            compile_distributed_rules(graph, placement, ("host1", "host2"))


class TestParallelChains:
    def test_ddos_ids_fused(self):
        # firewall→sampler also fuses: every packet leaving the firewall
        # goes to the sampler and both are read-only (the same §3.3
        # condition that fuses ddos→ids).
        chains = anomaly_graph().parallel_chains()
        assert chains == [["firewall", "sampler"], ["ddos", "ids"]]

    def test_non_read_only_blocks_fusion(self):
        graph = ServiceGraph("g")
        graph.add_service("a", read_only=True)
        graph.add_service("b", read_only=False)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", EXIT, default=True)
        graph.set_entry("a")
        assert graph.parallel_chains() == []

    def test_branching_blocks_fusion_forward(self):
        """A vertex with two out-edges can't fuse with its successors
        (not every packet goes there) — it may only end a chain."""
        graph = anomaly_graph()
        chains = graph.parallel_chains()
        for chain in chains:
            # sampler branches, so it never appears mid-chain.
            assert "sampler" not in chain[:-1]
        # And no chain continues past the branch into ddos via sampler.
        assert ["sampler", "ddos"] not in [chain[-2:] for chain in chains]

    def test_long_chain_fused_whole(self):
        graph = ServiceGraph("g")
        for name in ("a", "b", "c"):
            graph.add_service(name, read_only=True)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", "c", default=True)
        graph.add_edge("c", EXIT, default=True)
        graph.set_entry("a")
        assert graph.parallel_chains() == [["a", "b", "c"]]

    def test_multiple_in_edges_block_fusion(self):
        graph = ServiceGraph("g")
        for name, ro in (("a", True), ("b", True), ("x", True)):
            graph.add_service(name, read_only=ro)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("x", "b", default=True)
        graph.add_edge("b", EXIT, default=True)
        graph.set_entry("a")
        # b has two predecessors: fusing a→b would steal x's traffic.
        assert graph.parallel_chains() == []

    @pytest.mark.parametrize("declared", [("a", "b", "c"), ("c", "b", "a"),
                                          ("b", "c", "a")])
    def test_chains_do_not_depend_on_declaration_order(self, declared):
        """The same edges give the same chains and layout whatever order
        the services were declared in: both walk from the entry."""
        graph = ServiceGraph("g")
        for name in declared:
            graph.add_service(name, read_only=True)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", "c", default=True)
        graph.add_edge("c", EXIT, default=True)
        graph.set_entry("a")
        assert graph.parallel_chains() == [["a", "b", "c"]]
        assert graph.auto_parallel_layout() == [["a", "b", "c"]]

    def test_branchy_layout_in_graph_order_when_declared_reversed(self):
        """Declared backwards, a branching graph still lists its
        singletons from the entry, each after all its sources."""
        reference = branchy_graph()
        graph = ServiceGraph("reversed")
        for name in reversed(reference.services):
            graph.add_service(name)
        for service in reference.services:
            for edge in reference.out_edges(service):
                graph.add_edge(service, edge.dst, default=edge.default)
        graph.set_entry(reference.entry)
        assert graph.services == ["k", "a", "m", "z"]
        assert graph.auto_parallel_layout() == [["z"], ["m"], ["a"], ["k"]]
