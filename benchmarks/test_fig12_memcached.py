"""Figure 12: memcached RTT vs request rate — SDNFV proxy vs TwemProxy.

Paper: "TwemProxy quickly becomes overloaded when the rate is increased
to only 90,000 req/sec.  On the other hand, SDNFV can support 9,200,000
req/sec even with just one core, which is 102 times faster."

TwemProxy runs as the kernel-path queueing model (validated against its
closed form); the SDNFV proxy is the actual MemcachedProxy NF in the
simulated data plane.  Responses bypass the proxy in both setups; the
server-side round trip (90 µs) is added identically to both.
"""

import pytest

from repro.baselines import TwemproxyModel
from repro.baselines.twemproxy import TwemproxySim
from repro.dataplane import NfvHost
from repro.metrics import series_table
from repro.nfs import MemcachedProxy
from repro.sim import MS, Simulator
from repro.workloads import MemcachedWorkload

from tests.conftest import install_chain

SERVERS = [("10.8.0.10", 11211), ("10.8.0.11", 11211),
           ("10.8.0.12", 11211)]
TWEM_RATES = [10_000, 50_000, 80_000, 95_000]
SDNFV_RATES = [10_000, 100_000, 1_000_000, 4_000_000, 7_000_000]


def measure_twemproxy(rate: float) -> float:
    sim = Simulator()
    proxy = TwemproxySim(sim, queue_depth=4096)
    sim.process(proxy.drive(rate_rps=rate, duration_ns=80 * MS))
    sim.run(until=200 * MS)
    return proxy.latency.mean_us()


def measure_sdnfv(rate: float) -> float:
    sim = Simulator()
    host = NfvHost(sim, name="mc0")
    # Parse+hash folded into the base VM handling cost, as in the real
    # system where the NF's per-packet work is tens of nanoseconds.
    host.add_nf(MemcachedProxy("mc", servers=SERVERS, parse_cost_ns=0),
                ring_slots=8192)
    install_chain(host, ["mc"])
    workload = MemcachedWorkload(sim, host, requests_per_second=rate,
                                 clients=64)
    sim.run(until=30 * MS)
    return workload.latency.mean_us()


def test_fig12_memcached_rtt_vs_rate(report):
    def run():
        twem = [measure_twemproxy(rate) for rate in TWEM_RATES]
        sdnfv = [measure_sdnfv(rate) for rate in SDNFV_RATES]
        return twem, sdnfv

    twem, sdnfv = run()

    # TwemProxy's RTT blows up approaching/crossing 90 k req/s.
    assert twem[0] < 120
    assert twem[-1] > 5 * twem[0]
    # And the curve is monotonically worsening, as in the paper.
    assert twem == sorted(twem)
    model = TwemproxyModel()
    assert model.capacity_rps == pytest.approx(90_000, rel=0.1)

    # The SDNFV proxy holds ~100 µs RTT far beyond TwemProxy's ceiling.
    for rate, rtt in zip(SDNFV_RATES, sdnfv):
        assert rtt < 150, f"SDNFV overloaded at {rate}"
    sdnfv_capacity = SDNFV_RATES[-1]
    ratio = sdnfv_capacity / model.capacity_rps
    # Paper: 102x; the simulated one-core proxy sustains >= ~75x.
    assert ratio > 70

    rows = []
    for rate, rtt in zip(TWEM_RATES, twem):
        rows.append((rate, "TwemProxy", rtt))
    for rate, rtt in zip(SDNFV_RATES, sdnfv):
        rows.append((rate, "SDNFV", rtt))
    columns = {"req_per_s": [row[0] for row in rows],
               "system": [row[1] for row in rows],
               "rtt_us": [row[2] for row in rows]}
    report("fig12_memcached", series_table(
        f"Fig. 12 — memcached mean RTT (us) vs request rate "
        f"(SDNFV sustains {ratio:.0f}x TwemProxy's ceiling; paper: 102x)",
        columns), metrics=columns)
