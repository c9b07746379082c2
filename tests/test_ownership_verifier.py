"""The dynamic layer: seeded bugs must be detected, real runs must be
clean.

Detection tests plant a double-release / use-after-release / leak /
conflicting flow write and assert the verifier reports it.  Scenario
tests replay the fault-injection suite's crash, hang-salvage, and
failover shapes under ``verify=True`` with pooled buffers and assert a
spotless ledger — including the parallel-group member-loss path that
used to strand the group forever.
"""

from __future__ import annotations

import pytest

from repro.analysis.ownership import OwnershipError
from repro.dataplane import FlowTableEntry, HostCosts, NfvHost, ToPort
from repro.dataplane.messages import ChangeDefault
from repro.dataplane.rings import RingBuffer
from repro.faults import NfWatchdog
from repro.net import FlowMatch
from repro.nfs import ComputeNf, NoOpNf
from repro.sim import MS, US, Simulator

from tests.conftest import install_chain


@pytest.fixture
def vhost(sim: Simulator) -> NfvHost:
    return NfvHost(sim, name="verified", verify=True)


def _alloc(host: NfvHost, flow, now=0, size=128):
    return host.packet_pool.alloc(flow, size=size, created_at=now)


def _reclaiming_sink(host: NfvHost, port: str = "eth1") -> list:
    """Terminal egress owner: record, then return buffers to the slab."""
    out = []

    def sink(packet):
        out.append(packet)
        pool = packet.pool
        if pool is not None and packet.ref_count == 0:
            pool.reclaim(packet)

    host.port(port).on_egress = sink
    return out


# ----------------------------------------------------------------------
# Seeded-bug detection
# ----------------------------------------------------------------------
class TestDetection:
    def test_double_release_is_flagged(self, sim, vhost, flow):
        packet = _alloc(vhost, flow)
        packet.free()                        # legitimate terminal free
        vhost.packet_pool.reclaim(packet)    # the seeded second release
        report = vhost.verifier.report()
        assert [issue.kind for issue in report.issues] == ["double-release"]
        assert not report.ok

    def test_use_after_release_is_flagged(self, sim, vhost, flow):
        packet = _alloc(vhost, flow)
        packet.free()
        vhost.inject("eth0", packet)         # freed buffer re-enters
        report = vhost.verifier.report()
        assert [issue.kind for issue in report.issues] == [
            "use-after-release"]

    def test_leak_is_flagged_and_attributed(self, sim, vhost, flow):
        packet = _alloc(vhost, flow)
        report = vhost.verifier.report(expect_drained=True)
        assert report.leaked == [(packet.packet_id, "alloc")]
        with pytest.raises(OwnershipError, match="leak"):
            vhost.verifier.assert_clean()
        # Mid-run audits don't treat outstanding buffers as leaks.
        assert vhost.verifier.report(expect_drained=False).leaked == []
        packet.free()

    def test_conflicting_flow_writes_are_flagged(self, sim, vhost, flow):
        vhost.add_nf(NoOpNf("svc"))
        install_chain(vhost, ["svc"])
        match = FlowMatch.exact(flow)
        # An NF retargets the flow's default at the same instant the
        # controller installs a different one (§3.4's write race).
        vhost.manager.apply_message(ChangeDefault(
            sender_service="svc", flows=match, service="svc",
            target="port:eth1"))
        vhost.install_rule(FlowTableEntry(scope="svc", match=match,
                                          actions=(ToPort("eth0"),)))
        report = vhost.verifier.report()
        kinds = [issue.kind for issue in report.issues]
        assert kinds == ["flow-conflict"]
        assert "nf:svc" in report.issues[0].detail
        assert "control" in report.issues[0].detail

    def test_agreeing_or_separated_writes_are_not_conflicts(
            self, sim, vhost, flow):
        vhost.add_nf(NoOpNf("svc"))
        install_chain(vhost, ["svc"])
        match = FlowMatch.exact(flow)
        vhost.manager.apply_message(ChangeDefault(
            sender_service="svc", flows=match, service="svc",
            target="port:eth1"))
        sim.run(until=1 * MS)  # later controller write: reconfiguration,
        vhost.install_rule(FlowTableEntry(scope="svc", match=match,
                                          actions=(ToPort("eth0"),)))
        # ... and a same-writer overwrite is never a race.
        vhost.install_rule(FlowTableEntry(scope="svc", match=match,
                                          actions=(ToPort("eth1"),)))
        assert vhost.verifier.report().issues == []


# ----------------------------------------------------------------------
# Clean runs: fault-injection scenarios under verify=True
# ----------------------------------------------------------------------
class TestFaultScenariosVerified:
    def test_crash_mid_packet_accounts_for_the_lost_buffer(
            self, sim, flow):
        sim = Simulator()
        host = NfvHost(sim, name="crash", verify=True)
        vm = host.add_nf(ComputeNf("svc", cost_ns=10 * MS))
        install_chain(host, ["svc"])
        out = _reclaiming_sink(host)
        host.inject("eth0", _alloc(host, flow))
        sim.run(until=2 * MS)                 # NF mid-packet
        assert vm.inflight is not None
        vm.crash()
        sim.run(until=3 * MS)
        assert host.stats.lost_in_nf == 1
        report = host.verifier.assert_clean()
        assert report.audit == {"allocated": 1, "injected": 1,
                                "delivered": 0, "dropped": 1,
                                "inflight": 0, "balanced": True}
        assert out == []

    def test_watchdog_crash_salvage_is_leak_free(self, flow):
        sim = Simulator()
        host = NfvHost(sim, name="salvage", verify=True)
        vm1 = host.add_nf(ComputeNf("svc", cost_ns=5 * MS))
        host.add_nf(ComputeNf("svc", cost_ns=5 * MS))
        install_chain(host, ["svc"])
        out = _reclaiming_sink(host)
        watchdog = NfWatchdog(host.manager)
        for _ in range(6):
            host.inject("eth0", _alloc(host, flow))
        sim.run(until=2 * MS)                 # rings loaded, both busy
        vm1.crash()
        sim.run(until=3 * MS)
        records = watchdog.sweep()            # fail_vm + ring salvage
        assert [r.cause for r in records] == ["crash"]
        sim.run(until=100 * MS)
        report = host.verifier.assert_clean()
        lost = host.stats.lost_in_nf
        assert len(out) == 6 - lost
        assert report.audit["injected"] == 6
        assert report.audit["delivered"] == len(out)
        assert report.audit["dropped"] == lost

    def test_watchdog_hang_kill_is_leak_free(self, flow):
        sim = Simulator()
        host = NfvHost(sim, name="hang", verify=True)
        vm = host.add_nf(NoOpNf("svc"))
        host.add_nf(NoOpNf("svc"))
        install_chain(host, ["svc"])
        out = _reclaiming_sink(host)
        watchdog = NfWatchdog(host.manager, heartbeat_timeout_ns=10 * MS)
        vm.hang()
        host.inject("eth0", _alloc(host, flow))
        sim.run(until=20 * MS)
        assert [r.cause for r in watchdog.sweep()] == ["hang"]
        sim.run(until=30 * MS)                # kill interrupt delivered
        report = host.verifier.assert_clean()
        assert report.audit["dropped"] == 1   # the wedged descriptor
        assert out == []


# ----------------------------------------------------------------------
# The parallel-group member-loss fix
# ----------------------------------------------------------------------
class TestGroupMemberLoss:
    def test_member_crash_after_survivors_report_finalizes_group(
            self, flow):
        """A fanned-out packet whose last straggler dies must still be
        merged from the surviving verdicts and delivered — previously
        the group leaked in ``_groups`` and the packet silently
        vanished even though every surviving NF processed it."""
        sim = Simulator()
        host = NfvHost(sim, name="parallel", verify=True)
        host.add_nf(NoOpNf("fast"))
        slow_vm = host.add_nf(ComputeNf("slow", cost_ns=20 * MS))
        host.manager.register_parallel_chain(["fast", "slow"])
        install_chain(host, ["fast", "slow"])
        out = _reclaiming_sink(host)
        host.inject("eth0", _alloc(host, flow))
        sim.run(until=10 * MS)               # fast member long since done
        assert slow_vm.inflight is not None
        assert len(host.manager._groups) == 1
        slow_vm.crash()
        sim.run(until=40 * MS)
        # The group is finalized from the fast member's verdict: no
        # stranded _groups entry, and the packet still egresses.
        assert host.manager._groups == {}
        assert len(out) == 1
        assert host.stats.lost_in_nf == 1
        report = host.verifier.assert_clean()
        assert report.audit["delivered"] == 1
        assert report.audit["dropped"] == 0

    def test_member_crash_while_tx_holds_the_other_member(self, flow):
        """The TX thread absorbs a parallel member when it sweeps its
        burst, then sleeps off the burst's cost.  A crash that takes the
        other member inside that sleep must finalize the group exactly
        once, at the crash instant (on the exit member's TX thread,
        which is idle), with a clean ledger."""
        sim = Simulator()
        host = NfvHost(sim, name="parallel", verify=True,
                       costs=HostCosts(tx_service_ns=1 * MS))
        fast_vm = host.add_nf(NoOpNf("fast"))
        slow_vm = host.add_nf(ComputeNf("slow", cost_ns=20 * MS))
        manager = host.manager
        tx_queue = manager._vm_tx_assignment[fast_vm.vm_id]
        manager.register_parallel_chain(["fast", "slow"])
        install_chain(host, ["fast", "slow"])
        out = _reclaiming_sink(host)
        merges = []
        merge_group = manager._merge_group

        def counting_merge(group, descriptor):
            merges.append(sim.now)
            return merge_group(group, descriptor)

        manager._merge_group = counting_merge
        host.inject("eth0", _alloc(host, flow))
        # Step until the TX thread has swept the fast member.
        while not tx_queue.enqueued or tx_queue.items:
            sim.run(until=sim.now + 100)
        swept_at = sim.now
        assert out == [] and len(manager._groups) == 1
        assert slow_vm.inflight is not None
        slow_vm.crash()
        sim.run(until=swept_at + 100 * US)    # still inside the TX sleep
        assert merges == [swept_at]
        assert manager._groups == {}
        sim.run(until=40 * MS)
        assert merges == [swept_at]
        assert len(out) == 1
        assert host.stats.lost_in_nf == 1
        report = host.verifier.assert_clean()
        assert report.audit["injected"] == 1
        assert report.audit["delivered"] == 1
        assert report.audit["dropped"] == 0


    @staticmethod
    def _held_fast_member(host: NfvHost, flow):
        """A fast/slow parallel chain whose TX thread has just swept the
        fast member, with the slow member still inside its VM."""
        sim = host.sim
        fast_vm = host.add_nf(NoOpNf("fast"))
        slow_vm = host.add_nf(ComputeNf("slow", cost_ns=20 * MS))
        manager = host.manager
        fast_tx = manager._vm_tx_assignment[fast_vm.vm_id]
        manager.register_parallel_chain(["fast", "slow"])
        install_chain(host, ["fast", "slow"])
        departures = []

        def sink(packet):
            departures.append(sim.now)
            if packet.ref_count == 0:
                packet.pool.reclaim(packet)

        host.port("eth1").on_egress = sink
        host.inject("eth0", _alloc(host, flow))
        while not fast_tx.enqueued or fast_tx.items:
            sim.run(until=sim.now + 100)
        assert slow_vm.inflight is not None
        return slow_vm, departures

    def test_lost_straggler_pays_tx_service_on_the_exit_ring(self, flow):
        """The packet a lost last straggler completes goes to the exit
        member's TX ring and pays TX service there, like any merged
        group: it leaves no earlier than one ``tx_service_ns`` after the
        crash, not at the crash instant."""
        sim = Simulator()
        costs = HostCosts(tx_service_ns=1 * MS)
        host = NfvHost(sim, name="parallel", verify=True, costs=costs)
        slow_vm, departures = self._held_fast_member(host, flow)
        exit_tx = host.manager._vm_tx_assignment[slow_vm.vm_id]
        crashed_at = sim.now
        slow_vm.crash()
        sim.run(until=40 * MS)
        assert exit_tx.enqueued == 1           # the straggler, nothing else
        assert len(departures) == 1
        assert (crashed_at + costs.tx_service_ns <= departures[0]
                < crashed_at + 2 * costs.tx_service_ns)
        assert host.manager._groups == {}
        assert host.stats.lost_in_nf == 1
        report = host.verifier.assert_clean()
        assert report.audit["injected"] == 1
        assert report.audit["delivered"] == 1
        assert report.audit["dropped"] == 0

    def test_lost_straggler_on_a_full_exit_ring_is_a_ring_drop(self, flow):
        sim = Simulator()
        host = NfvHost(sim, name="parallel", verify=True,
                       costs=HostCosts(tx_service_ns=1 * MS))
        slow_vm, departures = self._held_fast_member(host, flow)
        manager = host.manager
        (group,) = manager._groups.values()
        group.tx_queue = RingBuffer(sim, name="full", slots=1)
        assert group.tx_queue.try_enqueue("occupant")
        drops = manager.stats.dropped_ring_full
        slow_vm.crash()
        sim.run(until=40 * MS)
        assert departures == []
        assert manager.stats.dropped_ring_full == drops + 1
        assert manager._groups == {}
        report = host.verifier.assert_clean()
        assert report.audit["injected"] == 1
        assert report.audit["delivered"] == 0
        assert report.audit["dropped"] == 1

    @pytest.mark.parametrize("present", [("a",), ()])
    def test_members_lost_at_fan_out_are_no_vm_drops(self, flow, present):
        """A member whose service has no VM is dropped at fan-out.  A
        surviving member still carries the packet out; when every member
        is lost the group goes with the last of them."""
        sim = Simulator()
        host = NfvHost(sim, name="parallel", verify=True)
        for service in present:
            host.add_nf(NoOpNf(service))
        manager = host.manager
        manager.register_parallel_chain(["a", "b"])
        install_chain(host, ["a", "b"])
        out = _reclaiming_sink(host)
        host.inject("eth0", _alloc(host, flow))
        sim.run(until=10 * MS)
        assert host.stats.dropped_no_vm == 2 - len(present)
        assert manager._groups == {}
        assert len(out) == len(present)
        report = host.verifier.assert_clean()
        assert report.audit["delivered"] == len(present)
        assert report.audit["dropped"] == 1 - len(present)


# ----------------------------------------------------------------------
# Attach/detach mechanics
# ----------------------------------------------------------------------
class TestAttachment:
    def test_detach_restores_class_methods(self, sim, vhost):
        pool = vhost.packet_pool
        assert "alloc" in pool.__dict__            # wrapped
        vhost.verifier.detach()
        assert "alloc" not in pool.__dict__        # class method again
        assert "receive" not in vhost.port("eth0").__dict__
        assert "install_rule" not in vhost.manager.__dict__

    def test_late_vms_and_ports_are_wrapped(self, sim, vhost):
        vm = vhost.add_nf(NoOpNf("svc"))
        assert "try_enqueue" in vm.rx_ring.__dict__
        port = vhost.manager.add_port("eth2")
        assert "receive" in port.__dict__
