"""Coverage for smaller behaviours not exercised elsewhere."""

import pytest

from repro.core import EXIT, ServiceGraph, compile_distributed_rules
from repro.dataplane import Drop, FlowTableEntry, NfvHost, ToPort, Verdict
from repro.net import FiveTuple, FlowMatch, HttpRequest, HttpResponse, Packet
from repro.net.flow import FlowMatch as FM
from repro.net.headers import PROTO_UDP
from repro.nfs import HttpCache, NoOpNf
from repro.nfs.base import NfContext
from repro.sim import MS



class TestFlowMatchSubsumption:
    def test_any_subsumes_everything(self, flow):
        assert FM.any().subsumes(FM.exact(flow))
        assert FM.any().subsumes(FM(dst_port=80))
        assert FM.any().subsumes(FM.any())

    def test_exact_subsumes_only_itself(self, flow, udp_flow):
        exact = FM.exact(flow)
        assert exact.subsumes(exact)
        assert not exact.subsumes(FM.exact(udp_flow))
        assert not exact.subsumes(FM.any())

    def test_field_subsumption(self):
        assert FM(dst_port=80).subsumes(FM(dst_port=80, protocol=6))
        assert not FM(dst_port=80, protocol=6).subsumes(FM(dst_port=80))
        assert not FM(dst_port=80).subsumes(FM(dst_port=443))

    def test_prefix_subsumption(self):
        wide = FM(src_ip="10.0.0.0", src_prefix_bits=8)
        narrow = FM(src_ip="10.1.0.0", src_prefix_bits=16)
        outside = FM(src_ip="11.0.0.0", src_prefix_bits=16)
        assert wide.subsumes(narrow)
        assert not narrow.subsumes(wide)
        assert not wide.subsumes(outside)
        # A prefix never subsumes a match with no source constraint.
        assert not wide.subsumes(FM.any())


class TestHttpCacheEdgeCases:
    def _ctx(self, sim):
        from repro.sim.randomness import RandomStreams
        return NfContext(sim=sim, service_id="cache", vm_id="vm-t",
                         submit_message=lambda m: None,
                         streams=RandomStreams(0))

    def test_hit_without_reply_port_absorbs_request(self, sim, flow):
        cache = HttpCache("cache")  # no reply_port
        ctx = self._ctx(sim)
        response = Packet(flow=flow.reversed(), payload=HttpResponse(
            headers={"Content-Type": "text/html"}, body="X").serialize())
        response.annotations["request_key"] = ("example.com", "/")
        cache.process(response, ctx)
        request = Packet(flow=flow, payload=HttpRequest(
            method="GET", path="/", host="example.com").serialize())
        verdict = cache.process(request, ctx)
        assert verdict == Verdict.discard()  # answered locally

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            HttpCache("cache", capacity=0)

    def test_malformed_http_passthrough(self, sim, flow):
        cache = HttpCache("cache")
        ctx = self._ctx(sim)
        broken = Packet(flow=flow, payload="HTTP/not actually valid")
        assert cache.process(broken, ctx) == Verdict.default()


class TestGraphCompilePriority:
    def test_priority_propagates(self):
        graph = ServiceGraph("p")
        graph.add_service("a")
        graph.add_edge("a", EXIT, default=True)
        graph.set_entry("a")
        rules = compile_distributed_rules(graph, {"a": "h0"}, ("h0",),
                                          priority=7)
        assert all(rule.priority == 7 for _host, rule in rules)


class TestDropActionInRules:
    def test_explicit_drop_rule(self, sim, flow):
        host = NfvHost(sim, name="drop0")
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.exact(flow),
            actions=(Drop(),)))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        out = []
        host.port("eth1").on_egress = out.append
        other = FiveTuple("9.9.9.9", "8.8.8.8", PROTO_UDP, 5, 53)
        host.inject("eth0", Packet(flow=flow, size=128))
        host.inject("eth0", Packet(flow=other, size=128))
        sim.run(until=5 * MS)
        assert len(out) == 1 and out[0].flow == other
        assert host.stats.dropped_by_nf == 1


class TestManagerMiscellany:
    def test_duplicate_port_rejected(self, sim, host):
        with pytest.raises(ValueError):
            host.manager.add_port("eth0")

    def test_tx_threads_validated(self, sim):
        from repro.dataplane.manager import NfManager
        with pytest.raises(ValueError):
            NfManager(sim, tx_threads=0)

    def test_parallel_chain_needs_two_services(self, sim, host):
        with pytest.raises(ValueError):
            host.manager.register_parallel_chain(["only-one"])

    def test_set_load_balance_policy_applies_to_existing(self, sim):
        from repro.dataplane.load_balancer import LoadBalancePolicy
        host = NfvHost(sim, name="lbp0")
        host.add_nf(NoOpNf("svc"))
        host.manager.set_load_balance_policy(
            LoadBalancePolicy.ROUND_ROBIN)
        balancer = host.manager._balancers["svc"]
        assert balancer.policy is LoadBalancePolicy.ROUND_ROBIN

    def test_rx_ring_drop_counted_at_nic(self, sim, flow):
        host = NfvHost(sim, name="nic0")
        port = host.port("eth0")
        port.ingress.capacity = 1
        assert host.inject("eth0", Packet(flow=flow, size=128))
        assert not host.inject("eth0", Packet(flow=flow, size=128))
        assert port.rx_dropped == 1


class TestServiceGraphEdgeCases:
    def test_default_successor_missing_raises(self):
        graph = ServiceGraph("g")
        graph.add_service("a")
        graph.add_edge("a", EXIT)  # not default
        with pytest.raises(ValueError, match="default"):
            graph.default_successor("a")

    def test_entry_unset_raises(self):
        graph = ServiceGraph("g")
        with pytest.raises(RuntimeError):
            graph.entry

    def test_set_entry_unknown_service(self):
        graph = ServiceGraph("g")
        with pytest.raises(ValueError):
            graph.set_entry("nope")
