"""Ablation: load-balancing policy across NF replicas (§4.2).

"using round robin load balancing of packets to NFs can lead to
unbalanced queue sizes, potentially leading to packet drops or variable
latency" — so the NF Manager offers queue-length-based balancing (and
flow-hashing for stateful NFs).

Workload: many flows through a service with two replicas whose per-packet
cost varies heavily (payload-dependent processing).  Metrics: drops and
p99 latency per policy.
"""


from repro.dataplane import NfvHost
from repro.dataplane.load_balancer import LoadBalancePolicy
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import ComputeNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

POLICIES = [LoadBalancePolicy.ROUND_ROBIN,
            LoadBalancePolicy.LEAST_QUEUE,
            LoadBalancePolicy.FLOW_HASH]


def measure(policy: LoadBalancePolicy):
    sim = Simulator()
    host = NfvHost(sim, name=str(policy.value), load_balance=policy)
    # Two replicas with very different speeds: a good balancer should
    # steer work away from the slow one.
    host.add_nf(ComputeNf("svc", cost_ns=9_000, jitter_ns=4_000),
                ring_slots=64)
    host.add_nf(ComputeNf("svc", cost_ns=700, jitter_ns=300),
                ring_slots=64)
    install_chain(host, ["svc"])
    gen = PktGen(sim, host, window_ns=MS)
    for i in range(16):
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1000 + i, 80)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=40.0, packet_size=128,
                              pacing="poisson", stop_ns=30 * MS))
    sim.run(until=60 * MS)
    drops = host.stats.dropped_ring_full
    p99 = gen.latency.percentile_us(99)
    return drops, p99, gen.received


def test_ablation_load_balancer(report):
    results = {policy: measure(policy) for policy in POLICIES}

    rr_drops, rr_p99, _ = results[LoadBalancePolicy.ROUND_ROBIN]
    lq_drops, lq_p99, lq_received = results[LoadBalancePolicy.LEAST_QUEUE]

    # Queue-length balancing strictly improves on blind round robin when
    # per-packet costs vary (fewer drops and/or lower tail latency).
    assert (lq_drops, lq_p99) < (rr_drops, rr_p99)
    assert lq_received > 0

    columns = {
        "policy": [policy.value for policy in POLICIES],
        "drops": [results[policy][0] for policy in POLICIES],
        "p99_us": [results[policy][1] for policy in POLICIES],
        "delivered": [results[policy][2] for policy in POLICIES]}
    report("ablation_load_balancer", series_table(
        "Ablation — load-balancing policy (2 uneven replicas, 16 flows)",
        columns), metrics=columns)
