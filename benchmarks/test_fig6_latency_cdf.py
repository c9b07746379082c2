"""Figure 6: latency CDF with compute-intensive NFs.

Paper: "we measure the latency when each VM performs an intensive
computation on each packet ... parallelism can reduce the latency caused
by long chains that include expensive VM processing."

Each NF burns ~30 µs per packet; sequential chains pay it per hop,
parallel chains pay it once (plus small fan-out/merge costs).
"""


from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import ComputeNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

COMPUTE_NS = 30_000
JITTER_NS = 8_000
CONFIGS = ["1VM", "2VM (parallel)", "3VM (parallel)",
           "2VM (sequential)", "3VM (sequential)"]


def measure(config: str):
    sim = Simulator()
    vms = int(config[0])
    parallel = "parallel" in config
    host = NfvHost(sim, name=config)
    services = [f"c{i}" for i in range(vms)]
    for service in services:
        host.add_nf(ComputeNf(service, cost_ns=COMPUTE_NS,
                              jitter_ns=JITTER_NS))
    install_chain(host, services)
    if parallel and vms > 1:
        host.manager.register_parallel_chain(services)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
    gen = PktGen(sim, host)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0, packet_size=1000,
                          stop_ns=80 * MS))
    sim.run(until=150 * MS)
    assert gen.received > 500
    return gen.latency


def test_fig6_latency_cdf(report):
    recorders = {config: measure(config) for config in CONFIGS}

    means = {config: recorder.mean_us()
             for config, recorder in recorders.items()}
    # Parallel chains hide the extra VMs' compute almost entirely.
    assert means["2VM (parallel)"] < means["1VM"] + 15.0
    assert means["3VM (parallel)"] < means["1VM"] + 20.0
    # Sequential chains pay ~30 µs per extra hop.
    assert means["2VM (sequential)"] - means["1VM"] > 20.0
    assert means["3VM (sequential)"] - means["2VM (sequential)"] > 20.0
    # And the paper's headline: parallel strictly beats sequential.
    assert means["2VM (parallel)"] < means["2VM (sequential)"] - 15.0
    assert means["3VM (parallel)"] < means["3VM (sequential)"] - 40.0

    # CDF table at deciles (the Fig. 6 curves).
    percentiles = [10, 25, 50, 75, 90, 99]
    columns = {"percentile": percentiles}
    for config in CONFIGS:
        columns[config.replace(" ", "_")] = [
            recorders[config].percentile_us(p) for p in percentiles]
    report("fig6_latency_cdf", series_table(
        "Fig. 6 — RTT percentiles (us), 30 us/packet compute NFs",
        columns), metrics=columns)
