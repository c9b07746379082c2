"""Ablation: parallel-chain fusion vs sequential chaining by length.

Extends Fig. 6: how does end-to-end latency scale with chain length for
sequential vs parallel execution of read-only compute NFs?  Sequential
latency grows linearly with length; parallel latency stays nearly flat.
"""


from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.nfs import ComputeNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

LENGTHS = [1, 2, 3, 4]
COMPUTE_NS = 20_000


def measure(length: int, parallel: bool) -> float:
    sim = Simulator()
    host = NfvHost(sim, name=f"len{length}-{parallel}")
    services = [f"c{i}" for i in range(length)]
    for service in services:
        host.add_nf(ComputeNf(service, cost_ns=COMPUTE_NS))
    install_chain(host, services)
    if parallel and length > 1:
        host.manager.register_parallel_chain(services)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80)
    gen = PktGen(sim, host)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0, packet_size=1000,
                          stop_ns=40 * MS))
    sim.run(until=80 * MS)
    return gen.latency.mean_us()


def test_ablation_parallel_chain_length(report):
    def run():
        sequential = [measure(length, parallel=False)
                      for length in LENGTHS]
        parallel = [measure(length, parallel=True) for length in LENGTHS]
        return sequential, parallel

    sequential, parallel = run()

    # Sequential grows ~20 µs (the compute) per added NF.
    for shorter, longer in zip(sequential, sequential[1:]):
        assert longer - shorter > 15.0
    # Parallel stays nearly flat (< 2 µs per added NF).
    for shorter, longer in zip(parallel, parallel[1:]):
        assert longer - shorter < 2.0
    # At length 4 the gap is roughly 3 NF visits' worth of compute.
    assert sequential[-1] - parallel[-1] > 2.2 * COMPUTE_NS / 1000

    columns = {"chain_length": LENGTHS,
               "sequential": sequential,
               "parallel": parallel}
    report("ablation_parallel_chains", series_table(
        "Ablation — mean RTT (us) vs chain length, 20 us/packet NFs",
        columns), metrics=columns)
