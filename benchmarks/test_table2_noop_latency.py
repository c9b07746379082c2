"""Table 2: round-trip latency with no-op NFs, sequential vs parallel.

Paper (1000 B packets at 100 Mbps, NFs that do no per-packet work):

    0VM (dpdk)        26.66 µs   (min 23 / max 29)
    1VM               27.78 µs
    2VM (parallel)    28.02 µs
    3VM (parallel)    28.38 µs
    2VM (sequential)  28.86 µs
    3VM (sequential)  29.96 µs
"""

import pytest

from repro.baselines import make_dpdk_forwarder
from repro.dataplane import NfvHost
from repro.metrics import comparison_table
from repro.nfs import NoOpNf
from repro.sim import MS, Simulator
from repro.workloads import FlowSpec, PktGen
from repro.net import FiveTuple

from tests.conftest import install_chain

PAPER_AVG_US = {
    "0VM (dpdk)": 26.66,
    "1VM": 27.78,
    "2VM (parallel)": 28.02,
    "3VM (parallel)": 28.38,
    "2VM (sequential)": 29.96 - 1.10,  # 28.86
    "3VM (sequential)": 29.96,
}


def measure(config: str) -> dict:
    sim = Simulator()
    if config == "0VM (dpdk)":
        host = make_dpdk_forwarder(sim)
    else:
        vms = int(config[0])
        parallel = "parallel" in config
        host = NfvHost(sim, name=config)
        services = [f"noop{i}" for i in range(vms)]
        for service in services:
            host.add_nf(NoOpNf(service))
        install_chain(host, services)
        if parallel and vms > 1:
            host.manager.register_parallel_chain(services)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)
    gen = PktGen(sim, host)
    gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0, packet_size=1000,
                          stop_ns=60 * MS))
    sim.run(until=100 * MS)
    assert gen.received > 500
    return {"avg": gen.latency.mean_us(), "min": gen.latency.min_us(),
            "max": gen.latency.max_us()}


def test_table2_noop_latency(report):
    results = {config: measure(config) for config in PAPER_AVG_US}

    rows = []
    for config, paper_avg in PAPER_AVG_US.items():
        measured = results[config]
        rows.append((config, f"{paper_avg:.2f} us",
                     f"{measured['avg']:.2f} us "
                     f"({measured['min']:.0f}/{measured['max']:.0f})"))
        # Within 0.5 µs of the paper's mean.
        assert measured["avg"] == pytest.approx(paper_avg, abs=0.5), config

    # Orderings the paper's table shows.
    avg = {config: results[config]["avg"] for config in results}
    assert avg["0VM (dpdk)"] < avg["1VM"]
    assert avg["1VM"] < avg["2VM (parallel)"]
    assert avg["2VM (parallel)"] < avg["2VM (sequential)"]
    assert avg["3VM (parallel)"] < avg["3VM (sequential)"]
    # Parallel scaling is much flatter than sequential scaling.
    parallel_step = avg["3VM (parallel)"] - avg["2VM (parallel)"]
    sequential_step = avg["3VM (sequential)"] - avg["2VM (sequential)"]
    assert parallel_step < sequential_step / 2

    report("table2_noop_latency", comparison_table(
        "Table 2 — avg RTT, no-op NFs (measured shows min/max)",
        rows, headers=("configuration", "paper avg", "measured avg")),
        metrics={"configurations": list(results),
                 "paper_avg_us": list(PAPER_AVG_US.values()),
                 "measured_avg_us": [results[c]["avg"] for c in results],
                 "measured_min_us": [results[c]["min"] for c in results],
                 "measured_max_us": [results[c]["max"] for c in results]})
