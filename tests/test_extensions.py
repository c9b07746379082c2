"""Tests for the extension features: rule timeouts, the analytic latency
predictor (cross-checked against the DES), NAT, and trace replay."""

import pytest

from repro.dataplane import (
    FlowTableEntry,
    HostCosts,
    NfvHost,
    ToPort,
    ToService,
)
from repro.dataplane.analysis import (
    predict_rtt_ns,
    predict_throughput_gbps,
    stage_rates_pps,
)
from repro.dataplane.flow_table import FlowTable
from repro.net import FiveTuple, FlowMatch, Packet
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.nfs import NatError, NoOpNf, SourceNat
from repro.nfs.base import NfContext
from repro.sim import MS, Simulator, US
from repro.workloads import (
    FlowSpec,
    PktGen,
    TraceRecord,
    TraceReplayer,
    trace_from_csv,
    trace_to_csv,
)

from tests.conftest import install_chain


class TestRuleTimeouts:
    def _rule(self, **kw):
        return FlowTableEntry(scope="svc", match=FlowMatch.any(),
                              actions=(ToPort("eth1"),), **kw)

    def test_hard_timeout_expires(self):
        table = FlowTable()
        rule = self._rule(hard_timeout_ns=1000)
        table.install(rule)
        assert table.expire(now_ns=500) == []
        expired = table.expire(now_ns=1000)
        assert expired == [rule]
        assert len(table) == 0

    def test_idle_timeout_refreshed_by_lookup(self, flow):
        table = FlowTable()
        rule = self._rule(idle_timeout_ns=1000)
        table.install(rule)
        table.lookup("svc", flow, now_ns=800)  # refresh
        assert table.expire(now_ns=1500) == []
        assert table.expire(now_ns=1800) == [rule]

    def test_zero_timeouts_never_expire(self):
        table = FlowTable()
        table.install(self._rule())
        assert table.expire(now_ns=10**15) == []
        assert len(table) == 1

    def test_manager_expiry_loop(self, sim, flow):
        host = NfvHost(sim, name="exp0")
        host.add_nf(NoOpNf("svc"))
        host.install_rule(FlowTableEntry(
            scope="eth0", match=FlowMatch.exact(flow),
            actions=(ToService("svc"),), hard_timeout_ns=5 * MS))
        host.install_rule(FlowTableEntry(
            scope="svc", match=FlowMatch.any(),
            actions=(ToPort("eth1"),)))
        host.manager.start_rule_expiry(interval_ns=1 * MS)
        assert len(host.flow_table) == 2
        sim.run(until=10 * MS)
        # The per-flow ingress rule aged out; the wildcard stayed.
        assert len(host.flow_table) == 1
        assert host.flow_table.lookup("eth0", flow) is None

    def test_expiry_interval_validated(self, sim, host):
        with pytest.raises(ValueError):
            host.manager.start_rule_expiry(0)


class TestAnalyticPredictions:
    """The closed forms must agree with the discrete-event simulation."""

    def _simulate(self, build, packets=400):
        sim = Simulator()
        costs = HostCosts(wire_jitter_ns=0)  # deterministic for the check
        host = build(sim, costs)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        gen = PktGen(sim, host)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0,
                              packet_size=1000, stop_ns=40 * MS))
        sim.run(until=80 * MS)
        return gen.latency.mean_us()

    def test_rtt_prediction_dpdk(self):
        from repro.baselines import make_dpdk_forwarder
        measured = self._simulate(
            lambda sim, costs: make_dpdk_forwarder(sim, costs=costs))
        predicted = predict_rtt_ns(HostCosts(), sequential_vms=0,
                                   first_packet=False) / 1000
        assert measured == pytest.approx(predicted, abs=0.2)

    @pytest.mark.parametrize("vms", [1, 2, 3])
    def test_rtt_prediction_sequential(self, vms):
        def build(sim, costs):
            host = NfvHost(sim, name=f"an{vms}", costs=costs)
            services = [f"s{i}" for i in range(vms)]
            for service in services:
                host.add_nf(NoOpNf(service))
            install_chain(host, services)
            return host

        measured = self._simulate(build)
        predicted = predict_rtt_ns(HostCosts(), sequential_vms=vms,
                                   first_packet=False) / 1000
        assert measured == pytest.approx(predicted, abs=0.3)

    def test_rtt_prediction_parallel(self):
        def build(sim, costs):
            host = NfvHost(sim, name="anp", costs=costs)
            for service in ("p0", "p1"):
                host.add_nf(NoOpNf(service))
            install_chain(host, ["p0", "p1"])
            host.manager.register_parallel_chain(["p0", "p1"])
            return host

        measured = self._simulate(build)
        predicted = predict_rtt_ns(HostCosts(), parallel_vms=2,
                                   first_packet=False) / 1000
        assert measured == pytest.approx(predicted, abs=0.4)

    def test_rtt_rejects_mixed_modes(self):
        with pytest.raises(ValueError):
            predict_rtt_ns(HostCosts(), sequential_vms=1, parallel_vms=2)

    def test_throughput_prediction_matches_fig7_point(self):
        # The Fig. 7 headline: ~5.9 Gbps at 64 B through one VM.
        predicted = predict_throughput_gbps(HostCosts(), packet_size=64,
                                            sequential_vms=1)
        assert predicted == pytest.approx(5.87, abs=0.3)
        # Large packets are line-limited.
        assert predict_throughput_gbps(
            HostCosts(), packet_size=1024) == pytest.approx(10.0, rel=0.05)

    def test_stage_rates_identify_vm_bottleneck(self):
        rates = stage_rates_pps(HostCosts(), sequential_vms=1)
        assert rates["vm"] < rates["rx"]
        assert rates["vm"] < rates["tx"]


class TestSourceNat:
    def _ctx(self, sim):
        from repro.sim.randomness import RandomStreams
        return NfContext(sim=sim, service_id="nat", vm_id="vm-t",
                         submit_message=lambda m: None,
                         streams=RandomStreams(0))

    def test_outbound_translation_stable_per_flow(self, sim):
        nat = SourceNat("nat", public_ip="203.0.113.1")
        ctx = self._ctx(sim)
        flow = FiveTuple("192.168.1.5", "8.8.8.8", PROTO_UDP, 5555, 53)
        first = Packet(flow=flow, size=128)
        nat.process(first, ctx)
        assert first.flow.src_ip == "203.0.113.1"
        public_port = first.flow.src_port
        second = Packet(flow=flow, size=128)
        nat.process(second, ctx)
        assert second.flow.src_port == public_port
        assert nat.active_bindings == 1

    def test_distinct_flows_get_distinct_ports(self, sim):
        nat = SourceNat("nat", public_ip="203.0.113.1")
        ctx = self._ctx(sim)
        ports = set()
        for i in range(10):
            flow = FiveTuple("192.168.1.5", "8.8.8.8", PROTO_UDP,
                             5000 + i, 53)
            packet = Packet(flow=flow, size=128)
            nat.process(packet, ctx)
            ports.add(packet.flow.src_port)
        assert len(ports) == 10

    def test_reply_reverse_translated(self, sim):
        nat = SourceNat("nat", public_ip="203.0.113.1")
        ctx = self._ctx(sim)
        flow = FiveTuple("192.168.1.5", "8.8.8.8", PROTO_UDP, 5555, 53)
        outbound = Packet(flow=flow, size=128)
        nat.process(outbound, ctx)
        reply_flow = outbound.flow.reversed()
        reply = Packet(flow=reply_flow, size=128)
        nat.process(reply, ctx)
        assert reply.flow.dst_ip == "192.168.1.5"
        assert reply.flow.dst_port == 5555
        assert nat.reverse_translations == 1

    def test_pool_exhaustion(self, sim):
        nat = SourceNat("nat", public_ip="203.0.113.1",
                        port_range=(100, 101))
        ctx = self._ctx(sim)
        for port in (1, 2):
            packet = Packet(flow=FiveTuple("192.168.1.5", "8.8.8.8",
                                           PROTO_UDP, port, 53), size=128)
            if port == 1:
                nat.process(packet, ctx)
            else:
                with pytest.raises(NatError):
                    nat.process(packet, ctx)

    def test_release_frees_binding(self, sim):
        nat = SourceNat("nat", public_ip="203.0.113.1")
        ctx = self._ctx(sim)
        flow = FiveTuple("192.168.1.5", "8.8.8.8", PROTO_UDP, 5555, 53)
        nat.process(Packet(flow=flow, size=128), ctx)
        nat.release(flow)
        assert nat.active_bindings == 0

    def test_nat_in_dataplane_chain(self, sim):
        host = NfvHost(sim, name="nat0")
        nat = SourceNat("nat", public_ip="203.0.113.1")
        host.add_nf(nat)
        install_chain(host, ["nat"])
        out = []
        host.port("eth1").on_egress = out.append
        flow = FiveTuple("192.168.1.9", "8.8.4.4", PROTO_UDP, 777, 53)
        host.inject("eth0", Packet(flow=flow, size=128))
        sim.run(until=5 * MS)
        assert len(out) == 1
        assert out[0].flow.src_ip == "203.0.113.1"
        assert out[0].ip.src_ip == "203.0.113.1"


class TestTraceReplay:
    def _records(self):
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        return [TraceRecord(timestamp_ns=i * 100 * US, flow=flow,
                            size=128, payload=f"pkt{i}")
                for i in range(5)]

    def test_csv_round_trip(self):
        records = self._records()
        text = trace_to_csv(records)
        assert trace_from_csv(text) == records

    def test_record_validation(self):
        flow = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, 1, 80)
        with pytest.raises(ValueError):
            TraceRecord(timestamp_ns=-1, flow=flow)
        with pytest.raises(ValueError):
            TraceRecord(timestamp_ns=0, flow=flow, size=10)

    def test_replay_preserves_schedule(self, sim):
        from repro.baselines import make_dpdk_forwarder
        host = make_dpdk_forwarder(sim)
        arrivals = []
        host.port("eth1").on_egress = (
            lambda p: arrivals.append((sim.now, p.payload)))
        replayer = TraceReplayer(sim, host, self._records())
        sim.run(until=10 * MS)
        assert replayer.injected == 5
        assert [payload for _t, payload in arrivals] == [
            f"pkt{i}" for i in range(5)]
        gaps = [b[0] - a[0] for a, b in zip(arrivals, arrivals[1:])]
        assert all(gap == pytest.approx(100 * US, abs=5 * US)
                   for gap in gaps)

    def test_speedup_compresses_time(self, sim):
        from repro.baselines import make_dpdk_forwarder
        host = make_dpdk_forwarder(sim)
        replayer = TraceReplayer(sim, host, self._records(), speedup=4.0)
        sim.run(replayer.done)
        assert sim.now == pytest.approx(4 * 100 * US / 4.0, rel=0.01)

    def test_unsorted_records_sorted(self, sim):
        from repro.baselines import make_dpdk_forwarder
        host = make_dpdk_forwarder(sim)
        records = list(reversed(self._records()))
        replayer = TraceReplayer(sim, host, records)
        sim.run(replayer.done)
        assert replayer.injected == 5

    def test_speedup_validation(self, sim, host):
        with pytest.raises(ValueError):
            TraceReplayer(sim, host, [], speedup=0)
