"""Integration tests for the NF Manager: RX→VM→TX pipelines, parallel
processing, the flow-controller miss path, and cross-layer messages."""

import dataclasses

import pytest

from repro.control import SdnController
from repro.dataplane import (
    ChangeDefault,
    Drop,
    FlowTableEntry,
    NfvHost,
    RequestMe,
    SkipMe,
    ToPort,
    ToService,
    UserMessage,
    Verdict,
)
from repro.dataplane.load_balancer import LoadBalancePolicy
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP
from repro.nfs import ComputeNf, CounterNf, DscpMarker, NoOpNf
from repro.nfs.base import NetworkFunction
from repro.sim import MS, S, Simulator

from tests.conftest import install_chain


class SendingNf(NetworkFunction):
    """Test NF returning a fixed verdict."""

    read_only = True

    def __init__(self, service_id, verdict):
        super().__init__(service_id)
        self.verdict = verdict

    def process(self, packet, ctx):
        return self.verdict


class MutatingNf(NetworkFunction):
    read_only = False

    def process(self, packet, ctx):
        return Verdict.default()


def _rule_state(entry):
    """Every field of a rule, by name."""
    return {field.name: getattr(entry, field.name)
            for field in dataclasses.fields(entry)}


def run_packets(sim, host, flow, count=3, size=128, port="eth0"):
    out = []
    host.port("eth1").on_egress = lambda p: out.append(p)
    for _ in range(count):
        host.inject(port, Packet(flow=flow, size=size,
                                 created_at=sim.now))
    sim.run(until=sim.now + 50 * MS)
    return out


class TestSequentialChains:
    def test_single_nf_chain(self, sim, host, flow):
        host.add_nf(NoOpNf("noop"))
        install_chain(host, ["noop"])
        out = run_packets(sim, host, flow)
        assert len(out) == 3
        assert host.stats.tx_packets == 3

    def test_three_nf_chain_preserves_order(self, sim, host, flow):
        for name in ("a", "b", "c"):
            host.add_nf(CounterNf(name))
        install_chain(host, ["a", "b", "c"])
        out = run_packets(sim, host, flow, count=5)
        assert [p.packet_id for p in out] == sorted(
            p.packet_id for p in out)
        for name in ("a", "b", "c"):
            assert host.stats.per_service_packets[name] == 5

    def test_no_rule_goes_to_flow_controller_and_drops(self, sim, host,
                                                       flow):
        # No controller attached: misses are dropped with a count.
        out = run_packets(sim, host, flow)
        assert not out
        assert host.stats.dropped_no_rule == 3
        # Without a controller each miss resolves (to a drop) immediately,
        # so every packet registers as its own request; the buffered
        # one-request-per-flow behaviour is exercised in the controller
        # integration tests.
        assert host.stats.sdn_requests == 3

    def test_no_vm_for_service_drops(self, sim, host, flow):
        install_chain(host, ["ghost"])
        out = run_packets(sim, host, flow)
        assert not out
        assert host.stats.dropped_no_vm == 3

    def test_unknown_egress_port_drops(self, sim, host, flow):
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToPort("eth9"),)))
        out = run_packets(sim, host, flow)
        assert not out
        assert host.stats.dropped_no_rule == 3


class TestNfVerdicts:
    def test_discard_verdict_drops(self, sim, host, flow):
        host.add_nf(SendingNf("fw", Verdict.discard()))
        install_chain(host, ["fw"])
        out = run_packets(sim, host, flow)
        assert not out
        assert host.stats.dropped_by_nf == 3

    def test_send_to_allowed_alternative(self, sim, host, flow):
        host.add_nf(SendingNf("sampler", Verdict.send_to_service("ids")))
        host.add_nf(NoOpNf("ids"))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("sampler"),)))
        # Default for sampler is the exit; ids is the non-default edge.
        host.install_rule(FlowTableEntry(
            scope="sampler", match=FlowMatch.any(),
            actions=(ToPort("eth1"), ToService("ids"))))
        host.install_rule(FlowTableEntry(
            scope="ids", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        out = run_packets(sim, host, flow)
        assert len(out) == 3
        assert host.stats.per_service_packets["ids"] == 3

    def test_send_to_disallowed_destination_falls_back(self, sim, host,
                                                       flow):
        host.add_nf(SendingNf("rogue",
                              Verdict.send_to_service("forbidden")))
        host.add_nf(NoOpNf("forbidden"))
        install_chain(host, ["rogue"])
        out = run_packets(sim, host, flow)
        assert len(out) == 3  # fell back to the default action
        assert host.stats.policy_violations == 3
        assert host.stats.per_service_packets.get("forbidden", 0) == 0

    def test_send_to_port_verdict(self, sim, host, flow):
        host.add_nf(SendingNf("shortcut", Verdict.send_to_port("eth1")))
        host.add_nf(NoOpNf("next"))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("shortcut"),)))
        host.install_rule(FlowTableEntry(
            scope="shortcut", match=FlowMatch.any(),
            actions=(ToService("next"), ToPort("eth1"))))
        out = run_packets(sim, host, flow)
        assert len(out) == 3
        assert host.stats.per_service_packets.get("next", 0) == 0

    def test_mid_chain_miss_keeps_send_to_verdict(self, sim, flow):
        # Scope a has no rule, so a's Send-to(b) verdict misses and the
        # packets wait for the controller.  The rule it sends for a lists
        # c first: only the verdict, not the default, takes them via b.
        class MidChainApp:
            def rules_for(self, host, scope, flow):
                assert scope == "a"
                return [FlowTableEntry(
                    scope="a", match=FlowMatch.exact(flow),
                    actions=(ToService("c"), ToService("b")))]

        controller = SdnController(sim, northbound=MidChainApp())
        host = NfvHost(sim, controller=controller,
                       ports=("eth0", "eth1", "eth2"))
        host.add_nf(SendingNf("a", Verdict.send_to_service("b")))
        host.add_nf(NoOpNf("b"))
        host.add_nf(NoOpNf("c"))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("a"),)))
        for service, port in (("b", "eth1"), ("c", "eth2")):
            host.install_rule(FlowTableEntry(
                scope=service, match=FlowMatch.any(),
                actions=(ToPort(port),)))
        via_eth2 = []
        host.port("eth2").on_egress = via_eth2.append
        buffered = run_packets(sim, host, flow, count=2)
        assert host.stats.sdn_requests == 1
        assert len(buffered) == 2
        later = run_packets(sim, host, flow, count=2)
        assert len(later) == 2
        assert not via_eth2
        assert host.stats.per_service_packets.get("c", 0) == 0
        assert host.stats.policy_violations == 0


class TestParallelProcessing:
    def _parallel_host(self, sim):
        host = NfvHost(sim, name="p0")
        host.add_nf(CounterNf("ddos"))
        host.add_nf(CounterNf("ids"))
        install_chain(host, ["ddos", "ids"])
        host.manager.register_parallel_chain(["ddos", "ids"])
        return host

    def test_parallel_rule_fans_out_and_merges(self, sim, flow):
        host = self._parallel_host(sim)
        out = run_packets(sim, host, flow, count=4)
        assert len(out) == 4
        assert host.stats.parallel_groups == 4
        assert host.stats.per_service_packets["ddos"] == 4
        assert host.stats.per_service_packets["ids"] == 4
        # Every packet buffer fully released exactly once.
        assert all(p.ref_count == 0 for p in out)

    def test_parallel_install_rejects_non_read_only(self, sim):
        host = NfvHost(sim, name="p1")
        host.add_nf(MutatingNf("ddos"))
        host.add_nf(CounterNf("ids"))
        with pytest.raises(ValueError, match="read-only"):
            host.manager.register_parallel_chain(["ddos", "ids"])

    def test_registering_non_read_only_into_parallel_rule_rejected(
            self, sim):
        host = NfvHost(sim, name="p2")
        host.add_nf(CounterNf("ids"))
        host.manager.register_parallel_chain(["ddos", "ids"])
        with pytest.raises(ValueError, match="read-only"):
            host.add_nf(MutatingNf("ddos"))
        assert "ddos" not in host.manager.vms_by_service

    def test_chain_admitted_on_profiles_takes_a_late_writer(self, sim):
        """Profiles, not the declared bit, admitted this chain, so a VM
        that declares itself a writer may still join it."""
        from repro.analysis.profiles import profile_of

        host = NfvHost(sim, name="p2b")
        host.add_nf(CounterNf("ids"))
        host.manager.register_parallel_chain(
            ["ddos", "ids"], profiles={"ddos": profile_of(MutatingNf),
                                       "ids": profile_of(CounterNf)})
        host.add_nf(MutatingNf("ddos"))
        assert len(host.manager.vms_by_service["ddos"]) == 1

    def test_late_replica_conflicting_with_its_chain_rejected(self, sim):
        """A replica joining a chain admitted on profiles is checked on
        its own profile: this marker writes DSCP, as member ``b`` does,
        so its writes would race ``b``'s."""
        from repro.analysis.profiles import profile_of

        host = NfvHost(sim, name="p2c")
        host.add_nf(CounterNf("a"))
        host.add_nf(DscpMarker("b", default_dscp=20))
        host.manager.register_parallel_chain(
            ["a", "b"], profiles={"a": profile_of(CounterNf),
                                  "b": profile_of(DscpMarker)})
        with pytest.raises(ValueError, match="conflicting profiles"):
            host.add_nf(DscpMarker("a", default_dscp=10))
        assert len(host.manager.vms_by_service["a"]) == 1

    @pytest.mark.parametrize("target", ["dpi", "port:eth1"])
    def test_change_default_in_front_of_a_chain_keeps_packets(
            self, sim, flow, target):
        """§3.4 rewrites of the rule leading into a chain reroute the
        flow without touching the group: the chain is registered by
        service, not carried in the rewritten rule's action list."""
        host = NfvHost(sim, name="p5")
        for service in ("fw", "ids", "dpi"):
            host.add_nf(CounterNf(service))
        install_chain(host, ["fw", "ids", "dpi"])
        host.manager.register_parallel_chain(["ids", "dpi"])
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="fw", flows=FlowMatch.exact(flow),
            service="fw", target=target))
        sim.run(until=1 * MS)
        out = run_packets(sim, host, flow)
        assert len(out) == 3
        assert host.stats.dropped_no_rule == 0
        assert host.stats.parallel_groups == 0
        assert host.stats.per_service_packets["ids"] == 0

    def test_parallel_discard_wins(self, sim, flow):
        host = NfvHost(sim, name="p3")
        host.add_nf(SendingNf("fw", Verdict.discard()))
        host.add_nf(CounterNf("ids"))
        install_chain(host, ["fw", "ids"])
        host.manager.register_parallel_chain(["fw", "ids"])
        out = run_packets(sim, host, flow)
        assert not out
        assert host.stats.dropped_by_nf == 3

    def test_parallel_chain_registration(self, sim, flow):
        """Chain fusion: routing to the first service fans out to all."""
        host = NfvHost(sim, name="p4")
        host.add_nf(CounterNf("ddos"))
        host.add_nf(CounterNf("ids"))
        install_chain(host, ["ddos", "ids"])
        host.manager.register_parallel_chain(["ddos", "ids"])
        out = run_packets(sim, host, flow, count=2)
        assert len(out) == 2
        assert host.stats.parallel_groups == 2

    def test_parallel_latency_below_sequential(self, sim, flow):
        """Fig. 6's point: parallel < sequential for compute-heavy NFs."""
        import statistics

        def build(parallel):
            host = NfvHost(sim, name=f"lat{parallel}")
            host.add_nf(ComputeNf("c1", cost_ns=30_000))
            host.add_nf(ComputeNf("c2", cost_ns=30_000))
            install_chain(host, ["c1", "c2"])
            if parallel:
                host.manager.register_parallel_chain(["c1", "c2"])
            return host

        results = {}
        for mode in (False, True):
            host = build(mode)
            done = []
            host.port("eth1").on_egress = (
                lambda p, d=done: d.append(sim.now - p.created_at))
            for _ in range(10):
                host.inject("eth0", Packet(flow=flow, size=128,
                                           created_at=sim.now))
            sim.run(until=sim.now + 100 * MS)
            results[mode] = statistics.mean(done)
        assert results[True] < results[False] - 20_000


class TestLoadBalancing:
    def _replicated_host(self, sim, policy):
        host = NfvHost(sim, name="lb0", load_balance=policy)
        self.vms = [host.add_nf(CounterNf("svc")) for _ in range(3)]
        install_chain(host, ["svc"])
        return host

    def test_round_robin_spreads_evenly(self, sim, flow):
        host = self._replicated_host(sim, LoadBalancePolicy.ROUND_ROBIN)
        run_packets(sim, host, flow, count=9)
        counts = [vm.packets_processed for vm in self.vms]
        assert counts == [3, 3, 3]

    def test_flow_hash_keeps_flow_on_one_replica(self, sim, flow):
        host = self._replicated_host(sim, LoadBalancePolicy.FLOW_HASH)
        run_packets(sim, host, flow, count=9)
        counts = sorted(vm.packets_processed for vm in self.vms)
        assert counts == [0, 0, 9]

    def test_least_queue_avoids_busy_replica(self, sim):
        """Sustained multi-flow load spreads away from a slow replica.

        Arrivals are paced (not a single same-instant flood, which a
        burst-mode dispatcher splits evenly before either replica can
        drain) so the slow replica's queue visibly builds up.
        """
        host = NfvHost(sim, name="lb1",
                       load_balance=LoadBalancePolicy.LEAST_QUEUE)
        slow = host.add_nf(ComputeNf("svc", cost_ns=50_000))
        fast = host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        out = []
        host.port("eth1").on_egress = out.append

        def offered():
            for i in range(40):
                flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP,
                                 1000 + i, 80)
                host.inject("eth0", Packet(flow=flow, size=128,
                                           created_at=sim.now))
                yield sim.timeout(10_000)

        sim.process(offered())
        sim.run(until=5 * S)
        assert fast.packets_processed > slow.packets_processed

    def test_ring_overflow_drops_and_counts(self, sim, flow):
        host = NfvHost(sim, name="lb2")
        host.add_nf(ComputeNf("svc", cost_ns=1_000_000), ring_slots=4)
        install_chain(host, ["svc"])
        run_packets(sim, host, flow, count=50)
        assert host.stats.dropped_ring_full > 0
        total = (host.stats.tx_packets + host.stats.dropped_ring_full
                 + host.manager.vms_by_service["svc"][0].rx_ring.occupancy)
        # Conservation: every received packet is either out, dropped, or
        # still queued (none processed after the run window).
        assert total <= host.stats.rx_packets


class TestLookupCache:
    def test_cache_reduces_lookups(self, sim, flow):
        cached = NfvHost(sim, name="c1", lookup_cache=True)
        cached.add_nf(NoOpNf("a"))
        cached.add_nf(NoOpNf("b"))
        install_chain(cached, ["a", "b"])
        run_packets(sim, cached, flow, count=20)
        cached_lookups = cached.flow_table.lookups

        sim2 = Simulator()
        # burst_size=1: the strict per-packet pipeline, where disabling
        # the descriptor cache really does cost one lookup per hop.
        uncached = NfvHost(sim2, name="c2", lookup_cache=False,
                           burst_size=1)
        uncached.add_nf(NoOpNf("a"))
        uncached.add_nf(NoOpNf("b"))
        install_chain(uncached, ["a", "b"])
        out = []
        uncached.port("eth1").on_egress = out.append
        for _ in range(20):
            uncached.inject("eth0", Packet(flow=flow, size=128))
        sim2.run(until=50 * MS)
        assert len(out) == 20
        # Cached: one lookup per (flow, scope); uncached: one per hop.
        assert cached_lookups <= 3
        assert uncached.flow_table.lookups == 60

        sim3 = Simulator()
        # With bursts, the per-(flow, burst) plan collapses repeated
        # lookups even without the descriptor cache.
        bursty = NfvHost(sim3, name="c4", lookup_cache=False,
                         burst_size=32)
        bursty.add_nf(NoOpNf("a"))
        bursty.add_nf(NoOpNf("b"))
        install_chain(bursty, ["a", "b"])
        for _ in range(20):
            bursty.inject("eth0", Packet(flow=flow, size=128))
        sim3.run(until=50 * MS)
        assert bursty.flow_table.lookups < 60

    def test_table_mutation_invalidates_cache(self, sim, flow, udp_flow):
        host = NfvHost(sim, name="c3", lookup_cache=True)
        host.add_nf(NoOpNf("a"))
        install_chain(host, ["a"])
        run_packets(sim, host, flow, count=5)
        # Rewire the chain: subsequent packets must see the new rule.
        host.install_rule(FlowTableEntry(
            scope="a", match=FlowMatch.any(), actions=(Drop(),)))
        out = run_packets(sim, host, flow, count=5)
        assert not out
        assert host.stats.dropped_by_nf == 5


class TestCrossLayerMessages:
    def _two_path_host(self, sim):
        """detector with default fast path and alternate slow path."""
        host = NfvHost(sim, name="m0", ports=("eth0", "fast", "slow"))
        host.add_nf(CounterNf("det"))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("det"),)))
        host.install_rule(FlowTableEntry(
            scope="det", match=FlowMatch.any(),
            actions=(ToPort("slow"), ToPort("fast"))))
        return host

    def test_change_default_per_flow(self, sim, flow, udp_flow):
        host = self._two_path_host(sim)
        host.manager.apply_message(ChangeDefault(
            sender_service="det", flows=FlowMatch.exact(flow),
            service="det", target="port:fast"))
        fast_out, slow_out = [], []
        host.port("fast").on_egress = fast_out.append
        host.port("slow").on_egress = slow_out.append
        host.inject("eth0", Packet(flow=flow, size=128))
        host.inject("eth0", Packet(flow=udp_flow, size=128))
        sim.run(until=10 * MS)
        assert len(fast_out) == 1 and fast_out[0].flow == flow
        assert len(slow_out) == 1 and slow_out[0].flow == udp_flow

    def test_exact_change_default_is_one_copy_and_one_install(
            self, sim, flow):
        host = self._two_path_host(sim)
        manager, table = host.manager, host.flow_table
        template = table.lookup("det", flow)
        template_state = _rule_state(template)
        installed = []
        install_rule = manager.install_rule

        def counting(entry):
            installed.append(entry)
            install_rule(entry)

        manager.install_rule = counting
        for target, lookups in (("port:fast", 1), ("drop", 0)):
            before = table.lookups, table.generation
            manager.apply_message(ChangeDefault(
                sender_service="det", flows=FlowMatch.exact(flow),
                service="det", target=target))
            # Only a wildcard matches at first: one lookup finds it; then
            # the per-flow rule exists and is copied without a lookup.
            assert len(installed) == 1
            assert table.lookups - before[0] == lookups
            assert table.generation == before[1] + 1
            rule = installed.pop()
            assert table.lookup("det", flow) is rule
            assert rule.match == FlowMatch.exact(flow)
            assert rule.entry_id != template.entry_id
        assert rule.actions == (Drop(), ToPort("fast"), ToPort("slow"))
        assert table.lookup("det", FiveTuple(
            "10.9.9.9", "10.0.0.2", PROTO_TCP, 1, 80)) is template
        assert _rule_state(template) == template_state
        assert len(table.entries("det")) == 2

    def test_change_default_wildcard_rewrites_rule(self, sim, flow):
        host = self._two_path_host(sim)
        host.manager.apply_message(ChangeDefault(
            sender_service="det", flows=FlowMatch.any(),
            service="det", target="port:fast"))
        fast_out = []
        host.port("fast").on_egress = fast_out.append
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=10 * MS)
        assert len(fast_out) == 1

    def test_change_default_to_drop(self, sim, flow):
        host = self._two_path_host(sim)
        host.manager.apply_message(ChangeDefault(
            sender_service="det", flows=FlowMatch.any(),
            service="det", target="drop"))
        out = []
        host.port("fast").on_egress = out.append
        host.port("slow").on_egress = out.append
        for _ in range(3):
            host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=10 * MS)
        assert not out
        assert host.stats.dropped_by_nf == 3

    def test_skip_me_bypasses_service(self, sim, flow):
        host = NfvHost(sim, name="m1")
        host.add_nf(CounterNf("a"))
        skipped = CounterNf("b")
        host.add_nf(skipped)
        host.add_nf(CounterNf("c"))
        install_chain(host, ["a", "b", "c"])
        host.manager.apply_message(SkipMe(
            sender_service="b", flows=FlowMatch.any(), service="b"))
        out = run_packets(sim, host, flow, count=4)
        assert len(out) == 4
        assert skipped.packets_seen == 0
        assert host.stats.per_service_packets["c"] == 4

    def test_request_me_captures_default(self, sim, flow):
        """RequestMe makes the requester the default wherever an edge to
        it exists (the DDoS scrubber's move in §5.2)."""
        host = NfvHost(sim, name="m2")
        host.add_nf(CounterNf("det"))
        scrubber = CounterNf("scrub")
        host.add_nf(scrubber)
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.any(),
            actions=(ToService("det"),)))
        # Edge to scrub exists but default goes straight out.
        host.install_rule(FlowTableEntry(
            scope="det", match=FlowMatch.any(),
            actions=(ToPort("eth1"), ToService("scrub"))))
        host.install_rule(FlowTableEntry(
            scope="scrub", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        host.manager.apply_message(RequestMe(
            sender_service="scrub", flows=FlowMatch.any(),
            service="scrub"))
        out = run_packets(sim, host, flow, count=4)
        assert len(out) == 4
        assert scrubber.packets_seen == 4

    def test_user_message_reaches_handler(self, sim, host):
        received = []
        host.manager.message_handlers["svc"] = received.append
        host.manager.submit_nf_message(UserMessage(
            sender_service="svc", key="alarm", value=42))
        sim.run(until=MS)
        assert len(received) == 1 and received[0].value == 42

    def test_user_message_without_handler_is_kept(self, sim, host):
        host.manager.submit_nf_message(UserMessage(
            sender_service="svc", key="alarm", value=1))
        sim.run(until=MS)
        assert len(host.manager.uninterpreted_messages) == 1

    def test_nf_sends_message_through_context(self, sim, host, flow):
        class AlarmNf(NetworkFunction):
            read_only = True

            def process(self, packet, ctx):
                from repro.dataplane.messages import UserMessage
                ctx.send_message(UserMessage(
                    sender_service=self.service_id, key="seen",
                    value=packet.packet_id))
                return Verdict.default()

        host.add_nf(AlarmNf("alarm"))
        install_chain(host, ["alarm"])
        run_packets(sim, host, flow, count=2)
        assert len(host.manager.uninterpreted_messages) == 2

    def test_message_spoofed_sender_rejected(self, sim, host, flow):
        class SpoofNf(NetworkFunction):
            read_only = True

            def __init__(self, service_id):
                super().__init__(service_id)
                self.error = None

            def process(self, packet, ctx):
                from repro.dataplane.messages import UserMessage
                try:
                    ctx.send_message(UserMessage(
                        sender_service="somebody_else", key="x"))
                except ValueError as exc:
                    self.error = exc
                return Verdict.default()

        nf = SpoofNf("spoof")
        host.add_nf(nf)
        install_chain(host, ["spoof"])
        run_packets(sim, host, flow, count=1)
        assert nf.error is not None
