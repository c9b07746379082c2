"""Profile-driven parallelism end to end: layout synthesis, the
conflict-checked registration path, the manager's merge stage, parity
with the legacy read-only fusion, and a verifier-clean acceptance run.

The acceptance chain from the issue: Firewall -> FlowMonitor ->
DscpMarker -> Sampler.  Declared-read-only fusion stops at
[firewall, monitor] (DscpMarker writes); the profile-driven layout also
proves [dscp, sampler] safe — disjoint write sets, disjoint annotation
keys, the SEND-capable member last — and must come out strictly wider.
"""

from __future__ import annotations

import pytest

from repro.analysis.profiles import ActionProfile, profile_of
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import NfvHost
from repro.dataplane.actions import Verdict
from repro.net import FiveTuple, Packet
from repro.nfs import (
    CounterNf,
    DscpMarker,
    Firewall,
    FlowMonitor,
    NetworkFunction,
    Sampler,
)
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain


class PayloadTagger(NetworkFunction):
    """Writes only the payload — disjoint from every header writer."""

    read_only = False

    def process(self, packet, ctx):
        packet.payload = b"tagged"
        packet.annotations["tagged"] = True
        return Verdict.default()


def mixed_chain_graph() -> ServiceGraph:
    """The acceptance chain, with a sampling side branch."""
    graph = ServiceGraph("mixed")
    graph.add_service("fw", read_only=True)
    graph.add_service("mon", read_only=True)
    graph.add_service("dscp")
    graph.add_service("samp", read_only=True)
    graph.add_service("sink", read_only=True)
    graph.add_edge("fw", "mon", default=True)
    graph.add_edge("mon", "dscp", default=True)
    graph.add_edge("dscp", "samp", default=True)
    graph.add_edge("samp", EXIT, default=True)
    graph.add_edge("samp", "sink")
    graph.add_edge("sink", EXIT, default=True)
    graph.set_entry("fw")
    return graph


def mixed_chain_profiles() -> dict[str, ActionProfile]:
    return {
        "fw": profile_of(Firewall),
        "mon": profile_of(FlowMonitor),
        "dscp": profile_of(DscpMarker),
        "samp": profile_of(Sampler),
        "sink": profile_of(CounterNf),
    }


class TestLayoutSynthesis:
    def test_auto_layout_is_strictly_wider_than_read_only_fusion(self):
        """The issue's acceptance criterion, verbatim."""
        graph = mixed_chain_graph()
        legacy = graph.parallel_chains()
        auto = graph.auto_parallel_layout(profiles=mixed_chain_profiles())
        assert legacy == [["fw", "mon"]]
        assert auto == [["fw", "mon"], ["dscp", "samp"], ["sink"]]
        legacy_grouped = {s for chain in legacy for s in chain}
        auto_grouped = {s for group in auto if len(group) > 1
                        for s in group}
        assert legacy_grouped < auto_grouped

    def test_dropper_never_groups_with_header_writer(self):
        profiles = mixed_chain_profiles()
        groups = mixed_chain_graph().auto_parallel_layout(profiles=profiles)
        for group in groups:
            if "fw" in group:
                assert "dscp" not in group

    def test_unknown_services_fall_back_to_declared_bit(self):
        """Services with no profile use the graph's read_only declaration:
        declared read-only joins groups, undeclared is opaque."""
        graph = mixed_chain_graph()
        auto = graph.auto_parallel_layout(profiles={})
        # fw/mon are declared read-only -> still fused; dscp (undeclared,
        # no profile) is opaque and blocks; samp is declared read-only but
        # has nothing groupable after it.
        assert ["fw", "mon"] in auto
        assert all("dscp" not in g or g == ["dscp"] for g in auto)

    def test_every_service_appears_exactly_once(self):
        auto = mixed_chain_graph().auto_parallel_layout(
            profiles=mixed_chain_profiles())
        flat = [s for group in auto for s in group]
        assert sorted(flat) == sorted(mixed_chain_graph().services)


class TestConflictCheckedRegistration:
    def _host(self, sim):
        host = NfvHost(sim, name="reg")
        return host

    def test_conflicting_writers_rejected(self, sim):
        host = self._host(sim)
        host.add_nf(DscpMarker("a", default_dscp=10))
        host.add_nf(DscpMarker("b", default_dscp=20))
        profiles = {"a": profile_of(DscpMarker),
                    "b": profile_of(DscpMarker)}
        with pytest.raises(ValueError, match="conflict"):
            host.manager.register_parallel_chain(["a", "b"],
                                                 profiles=profiles)

    def test_missing_profile_rejected(self, sim):
        host = self._host(sim)
        with pytest.raises(ValueError, match="no action profile"):
            host.manager.register_parallel_chain(
                ["a", "b"], profiles={"a": ActionProfile()})

    def test_writer_group_gets_merge_plan_readers_do_not(self, sim):
        host = self._host(sim)
        host.add_nf(CounterNf("r1"))
        host.add_nf(CounterNf("r2"))
        host.add_nf(PayloadTagger("tag"))
        host.add_nf(DscpMarker("dscp", default_dscp=10))
        readers = {"r1": profile_of(CounterNf), "r2": profile_of(CounterNf)}
        host.manager.register_parallel_chain(["r1", "r2"],
                                             profiles=readers)
        assert "r1" not in host.manager._chain_merge_plans
        writers = {"tag": profile_of(PayloadTagger),
                   "dscp": profile_of(DscpMarker)}
        host.manager.register_parallel_chain(["tag", "dscp"],
                                             profiles=writers)
        plan = host.manager._chain_merge_plans["tag"]
        assert plan["tag"] == (("payload",), ("tagged",))
        assert plan["dscp"] == (("dscp",), ("qos_priority",))

    def test_writers_allowed_only_via_profiles(self, sim):
        """The legacy path still demands declared read-only VMs."""
        host = self._host(sim)
        host.add_nf(PayloadTagger("tag"))
        host.add_nf(CounterNf("r1"))
        with pytest.raises(ValueError, match="read-only"):
            host.manager.register_parallel_chain(["tag", "r1"])


class TestMergeStage:
    def _run_group(self, sim, flow, nfs, profiles, count=3):
        host = NfvHost(sim, name="merge")
        for nf in nfs:
            host.add_nf(nf)
        services = [nf.service_id for nf in nfs]
        install_chain(host, services)
        host.manager.register_parallel_chain(services, profiles=profiles)
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(count):
            host.inject("eth0", Packet(flow=flow, size=128,
                                       created_at=sim.now))
        sim.run(until=sim.now + 50 * MS)
        return host, out

    def test_disjoint_writes_all_land_on_the_packet(self, sim, flow):
        host, out = self._run_group(
            sim, flow,
            [PayloadTagger("tag"), DscpMarker("dscp", default_dscp=46)],
            {"tag": profile_of(PayloadTagger),
             "dscp": profile_of(DscpMarker)})
        assert len(out) == 3
        for packet in out:
            assert packet.payload == b"tagged"       # member 0's write
            assert packet.ip.dscp == 46              # member 1's write
            assert packet.annotations["tagged"] is True
            assert packet.annotations["qos_priority"] is not None
        assert host.stats.parallel_groups == 3

    def test_declared_writer_that_does_not_write_changes_nothing(
            self, sim, flow):
        """A no-match DscpMarker journals nothing: the snapshot filter
        keeps non-writes from masking or clobbering anything."""
        _host, out = self._run_group(
            sim, flow,
            [PayloadTagger("tag"), DscpMarker("dscp")],  # no default_dscp
            {"tag": profile_of(PayloadTagger),
             "dscp": profile_of(DscpMarker)})
        for packet in out:
            assert packet.ip.dscp == 0               # untouched
            assert packet.payload == b"tagged"       # other member landed

    def test_merge_is_deterministic_across_runs(self, flow):
        def run_once():
            sim = Simulator()
            host = NfvHost(sim, name="det")
            host.add_nf(PayloadTagger("tag"))
            host.add_nf(DscpMarker("dscp", default_dscp=12))
            install_chain(host, ["tag", "dscp"])
            host.manager.register_parallel_chain(
                ["tag", "dscp"],
                profiles={"tag": profile_of(PayloadTagger),
                          "dscp": profile_of(DscpMarker)})
            out = []
            host.port("eth1").on_egress = lambda p: out.append(
                (sim.now, p.ip.dscp, p.payload,
                 tuple(sorted(p.annotations.items()))))
            for _ in range(5):
                host.inject("eth0", Packet(flow=flow, size=128,
                                           created_at=sim.now))
            sim.run(until=sim.now + 50 * MS)
            return out

        assert run_once() == run_once()

    def test_refcounts_balanced_after_writer_merge(self, sim, flow):
        _host, out = self._run_group(
            sim, flow,
            [PayloadTagger("tag"), DscpMarker("dscp", default_dscp=8)],
            {"tag": profile_of(PayloadTagger),
             "dscp": profile_of(DscpMarker)})
        assert all(p.ref_count == 0 for p in out)


class TestDeployAutoParallel:
    def _env(self, sim, verify=False):
        app = SdnfvApp(sim)  # no controller: rules install directly
        host = NfvHost(sim, name="h0", verify=verify)
        app.register_host(host)
        host.add_nf(Firewall("fw"))
        host.add_nf(FlowMonitor("mon"))
        host.add_nf(DscpMarker("dscp", default_dscp=34))
        host.add_nf(Sampler("samp", analysis_service="sink",
                            sample_rate=0.25))
        host.add_nf(CounterNf("sink"))
        return app, host

    def test_deploy_registers_the_wider_groups(self, sim):
        app, host = self._env(sim)
        app.deploy(mixed_chain_graph(), auto_parallel=True)
        chains = host.manager._parallel_chains
        assert chains.get("fw") == ["fw", "mon"]
        assert chains.get("dscp") == ["dscp", "samp"]
        assert "dscp" in host.manager._chain_merge_plans

    def test_default_deploy_keeps_legacy_fusion_only(self, sim):
        app, host = self._env(sim)
        app.deploy(mixed_chain_graph())
        chains = host.manager._parallel_chains
        assert chains.get("fw") == ["fw", "mon"]
        assert "dscp" not in chains
        assert host.manager._chain_merge_plans == {}

    def test_auto_parallel_with_routed_network_rejected(self, sim):
        app, _host = self._env(sim)
        with pytest.raises(ValueError, match="auto_parallel"):
            app.deploy(mixed_chain_graph(), auto_parallel=True,
                       network=object())

    def test_traffic_through_auto_parallel_deployment(self, sim, flow):
        app, host = self._env(sim)
        app.deploy(mixed_chain_graph(), auto_parallel=True)
        out = []
        host.port("eth1").on_egress = out.append
        for _ in range(8):
            host.inject("eth0", Packet(flow=flow, size=128,
                                       created_at=sim.now))
        sim.run(until=sim.now + 100 * MS)
        # Every packet exits eth1 with the DSCP mark applied (sampled
        # ones via the sink service, which defaults back out).
        assert len(out) == 8
        assert all(p.ip.dscp == 34 for p in out)
        sampler = host.manager.vms_by_service["samp"][0].nf
        diverted = host.stats.per_service_packets.get("sink", 0)
        assert diverted == sampler.sampled
        assert sampler.sampled + sampler.passed == 8


class TestParityWithLegacyFusion:
    """auto_parallel over pure readers must be bit-for-bit the legacy
    read-only fusion: same groups, same deliveries, same timestamps."""

    def _run(self, auto: bool):
        sim = Simulator()
        app = SdnfvApp(sim)
        host = NfvHost(sim, name="par")
        app.register_host(host)
        for name in ("fw", "mon", "tail"):
            host.add_nf(CounterNf(name))
        graph = ServiceGraph("readers")
        graph.add_service("fw", read_only=True)
        graph.add_service("mon", read_only=True)
        graph.add_service("tail", read_only=True)
        graph.add_edge("fw", "mon", default=True)
        graph.add_edge("mon", "tail", default=True)
        graph.add_edge("tail", EXIT, default=True)
        graph.set_entry("fw")
        app.deploy(graph, auto_parallel=auto)
        out = []
        host.port("eth1").on_egress = lambda p: out.append(
            (sim.now, p.created_at, p.flow, p.ip.dscp, p.ip.ttl,
             tuple(sorted(p.annotations.items()))))
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
        for _ in range(6):
            host.inject("eth0", Packet(flow=flow, size=128,
                                       created_at=sim.now))
        sim.run(until=sim.now + 100 * MS)
        return {"out": out, "chains": dict(host.manager._parallel_chains),
                "events": sim.events_scheduled,
                "summary": host.stats.summary()}

    def test_reader_groups_identical_to_legacy(self):
        legacy = self._run(auto=False)
        auto = self._run(auto=True)
        assert auto["chains"] == legacy["chains"]
        assert auto["out"] == legacy["out"]
        assert auto["events"] == legacy["events"]
        assert auto["summary"] == legacy["summary"]
        assert legacy["out"]  # traffic actually flowed


class TestVerifierCleanAcceptanceRun:
    def test_fig7_style_auto_parallel_run_is_clean(self):
        """Acceptance: a sustained Fig. 7-style workload through the
        auto-parallel mixed chain under ``verify=True`` ends with a clean
        ownership ledger and a balanced conservation audit."""
        sim = Simulator()
        app = SdnfvApp(sim)
        host = NfvHost(sim, name="accept", verify=True)
        app.register_host(host)
        host.add_nf(Firewall("fw"), ring_slots=256)
        host.add_nf(FlowMonitor("mon"), ring_slots=256)
        host.add_nf(DscpMarker("dscp", default_dscp=46), ring_slots=256)
        host.add_nf(Sampler("samp", analysis_service="sink",
                            sample_rate=0.1), ring_slots=256)
        host.add_nf(CounterNf("sink"), ring_slots=256)
        app.deploy(mixed_chain_graph(), auto_parallel=True)
        assert host.manager._parallel_chains.get("dscp") == ["dscp", "samp"]

        gen = PktGen(sim, host, window_ns=MS)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=2_000.0, packet_size=64,
                              stop_ns=2 * MS))
        sim.run(until=4 * MS)

        assert gen.received > 100
        report = host.verifier.assert_clean()
        audit = report.audit
        assert audit["balanced"]
        assert audit["inflight"] == 0
        assert audit["injected"] == audit["delivered"] + audit["dropped"]
