"""Unit tests for dataplane pieces: rings, verdicts, balancers, costs,
stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import (
    HostCosts,
    HostStats,
    NfVerdict,
    RingBuffer,
    ToPort,
    ToService,
    Verdict,
    resolve_parallel_verdicts,
)
from repro.dataplane.load_balancer import (
    LoadBalancePolicy,
    ServiceLoadBalancer,
)


class TestRingBuffer:
    def test_positive_slots_required(self, sim):
        with pytest.raises(ValueError):
            RingBuffer(sim, name="r", slots=0)

    def test_enqueue_dequeue_counts(self, sim):
        ring = RingBuffer(sim, name="r", slots=2)
        assert ring.try_enqueue("a")
        assert ring.try_enqueue("b")
        assert ring.enqueued == 2
        assert ring.occupancy == 2

    def test_drop_on_full(self, sim):
        ring = RingBuffer(sim, name="r", slots=1)
        assert ring.try_enqueue("a")
        assert not ring.try_enqueue("b")
        assert ring.dropped == 1
        assert ring.is_full

    def test_blocking_get(self, sim):
        ring = RingBuffer(sim, name="r", slots=4)
        received = []

        def consumer():
            item = yield ring.get()
            received.append(item)

        sim.process(consumer())
        sim.schedule(10, lambda: ring.try_enqueue("late"))
        sim.run()
        assert received == ["late"]


class TestVerdicts:
    def test_send_requires_destination(self):
        with pytest.raises(ValueError):
            Verdict(NfVerdict.SEND)

    def test_non_send_refuses_destination(self):
        with pytest.raises(ValueError):
            Verdict(NfVerdict.DEFAULT, ToPort("eth1"))

    def test_constructors(self):
        assert Verdict.discard().kind is NfVerdict.DISCARD
        assert Verdict.default().kind is NfVerdict.DEFAULT
        assert (Verdict.send_to_service("ids").destination
                == ToService("ids"))
        assert Verdict.send_to_port("eth1").destination == ToPort("eth1")


class TestParallelConflicts:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            resolve_parallel_verdicts([])

    def test_discard_beats_everything(self):
        verdicts = [(0, Verdict.default()),
                    (1, Verdict.discard()),
                    (2, Verdict.send_to_port("eth1"))]
        assert resolve_parallel_verdicts(verdicts).kind is NfVerdict.DISCARD

    def test_transmit_out_beats_service_send_and_default(self):
        verdicts = [(0, Verdict.default()),
                    (1, Verdict.send_to_service("scrubber")),
                    (2, Verdict.send_to_port("eth1"))]
        winner = resolve_parallel_verdicts(verdicts)
        assert winner.destination == ToPort("eth1")

    def test_send_beats_default(self):
        verdicts = [(0, Verdict.default()),
                    (1, Verdict.send_to_service("scrubber"))]
        winner = resolve_parallel_verdicts(verdicts)
        assert winner.destination == ToService("scrubber")

    def test_all_default(self):
        verdicts = [(0, Verdict.default()), (1, Verdict.default())]
        assert resolve_parallel_verdicts(verdicts).kind is NfVerdict.DEFAULT

    def test_vm_priority_policy(self):
        verdicts = [(3, Verdict.discard()), (1, Verdict.default())]
        winner = resolve_parallel_verdicts(verdicts, policy="vm_priority")
        assert winner.kind is NfVerdict.DEFAULT

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            resolve_parallel_verdicts([(0, Verdict.default())],
                                      policy="coin_flip")

    @settings(max_examples=200, deadline=None)
    @given(verdicts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.one_of(
                st.just(Verdict.default()),
                st.just(Verdict.discard()),
                st.builds(Verdict.send_to_service,
                          st.sampled_from(["ids", "scrubber"])),
                st.builds(Verdict.send_to_port,
                          st.sampled_from(["eth0", "eth1"])))),
        min_size=1, max_size=6),
        policy=st.sampled_from(["action_priority", "vm_priority"]))
    def test_matches_full_rank_min(self, verdicts, policy):
        """The all-members-agree shortcut picks the very object the full
        rank-based ``min`` picks, under either policy."""
        if policy == "action_priority":
            rank = {NfVerdict.DISCARD: 0, NfVerdict.SEND: 1,
                    NfVerdict.DEFAULT: 2}

            def key(pair):
                priority, verdict = pair
                port_first = (0 if isinstance(verdict.destination, ToPort)
                              else 1)
                return (rank[verdict.kind], port_first, priority)
        else:
            def key(pair):
                return pair[0]
        expected = min(verdicts, key=key)[1]
        assert resolve_parallel_verdicts(verdicts, policy=policy) is expected


class _FakeVm:
    def __init__(self, occupancy):
        class _Ring:
            pass
        self.rx_ring = _Ring()
        self.rx_ring.occupancy = occupancy


class TestLoadBalancer:
    def test_single_replica_short_circuits(self, flow):
        balancer = ServiceLoadBalancer(LoadBalancePolicy.LEAST_QUEUE)
        vm = _FakeVm(5)
        chosen, cost = balancer.choose([vm], flow)
        assert chosen is vm and cost == 0

    def test_round_robin_rotates(self, flow):
        balancer = ServiceLoadBalancer(LoadBalancePolicy.ROUND_ROBIN)
        vms = [_FakeVm(0), _FakeVm(0), _FakeVm(0)]
        picks = [balancer.choose(vms, flow)[0] for _ in range(6)]
        assert picks == vms + vms

    def test_least_queue_picks_minimum_and_charges_scan(self, flow):
        balancer = ServiceLoadBalancer(LoadBalancePolicy.LEAST_QUEUE)
        vms = [_FakeVm(9), _FakeVm(2), _FakeVm(7)]
        chosen, cost = balancer.choose(vms, flow)
        assert chosen is vms[1]
        assert cost == 15  # §5.1: 15 ns queue scan

    def test_flow_hash_is_sticky(self, flow, udp_flow):
        balancer = ServiceLoadBalancer(LoadBalancePolicy.FLOW_HASH)
        vms = [_FakeVm(0), _FakeVm(0), _FakeVm(0), _FakeVm(0)]
        first = balancer.choose(vms, flow)[0]
        for _ in range(5):
            assert balancer.choose(vms, flow)[0] is first

    def test_no_replicas_rejected(self, flow):
        balancer = ServiceLoadBalancer()
        with pytest.raises(ValueError):
            balancer.choose([], flow)


class TestHostCosts:
    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            HostCosts(rx_service_ns=-1)

    def test_paper_micro_costs(self):
        costs = HostCosts()
        assert costs.flow_lookup_ns == 30
        assert costs.queue_scan_ns == 15

    def test_sequential_visit_near_1_1us(self):
        visit = HostCosts().sequential_visit_ns()
        assert 1_000 <= visit <= 1_250  # Table 2: ≈1.1 µs per hop

    def test_parallel_extra_near_0_25us(self):
        extra = HostCosts().parallel_extra_visit_ns()
        assert 200 <= extra <= 320  # Table 2: ≈0.25 µs per extra VM


class TestHostStats:
    def test_record_and_summary(self):
        stats = HostStats()
        stats.record_rx(100)
        stats.record_tx("eth1", 100)
        stats.record_service("ids")
        summary = stats.summary()
        assert summary["rx_packets"] == 1
        assert summary["tx_bytes"] == 100
        assert stats.per_service_packets["ids"] == 1
        assert stats.per_port_tx_bytes["eth1"] == 100
