"""Figure 1: OVS throughput collapse as packets punt to the controller.

Paper: "the maximum throughput that can be achieved quickly drops when
the proportion of packets that must contact the controller increases",
for 256 B and 1000 B packets against a single-threaded POX controller.

Regenerated two ways: the closed-form capacity model sweeps the full
0–25 % range; a discrete-event OVS validates two points of the curve.
"""

import pytest

from repro.baselines import OvsControllerModel, OvsSwitchSim
from repro.control import ControlPlane
from repro.metrics import series_table
from repro.net import FiveTuple
from repro.sim import MS, US, Simulator

PUNT_PERCENTS = [0, 1, 2, 5, 10, 15, 20, 25]


def run_fig1_sweep():
    model = OvsControllerModel(line_rate_gbps=10.0,
                               fast_path_pps=3.3e6,
                               controller_rps=10_000)
    curve_1000 = model.sweep(PUNT_PERCENTS, packet_size=1000)
    curve_256 = model.sweep(PUNT_PERCENTS, packet_size=256)
    return curve_1000, curve_256


def simulate_loss(punt_pct: float, packet_size: int,
                  offered_pps: float) -> float:
    """Offer a fixed rate through the DES OVS; return the loss fraction.

    Fig. 1 plots *max* throughput — the highest offered rate the system
    sustains without loss — so the validation checks where loss begins.
    """
    sim = Simulator()
    controller = ControlPlane(sim, service_time_ns=100 * US,
                               propagation_ns=50 * US)
    switch = OvsSwitchSim(sim, controller,
                          punt_fraction=punt_pct / 100.0,
                          fast_path_pps=3.3e6)
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 2)
    offered = 0

    def offer():
        nonlocal offered
        gap = max(1, round(1e9 / offered_pps))
        pool = switch.packet_pool
        while sim.now < 200 * MS:
            switch.offer(pool.alloc(flow=flow, size=packet_size))
            offered += 1
            yield sim.timeout(gap)

    sim.process(offer())
    sim.run(until=600 * MS)
    # Only punted packets can be lost (the controller path is the
    # bottleneck under test), so measure loss among punts.
    total_punts = switch.dropped_punts + switch.punts_completed
    return switch.dropped_punts / max(1, total_punts)


def test_fig1_throughput_vs_punt_fraction(report):
    curve_1000, curve_256 = run_fig1_sweep()

    values_1000 = [gbps for _p, gbps in curve_1000]
    values_256 = [gbps for _p, gbps in curve_256]

    # Paper shape: ~line rate at 0 %, collapsed by a few percent, the
    # 256 B curve strictly below the 1000 B curve once punting starts.
    assert values_1000[0] == pytest.approx(10.0, rel=0.05)
    assert values_1000[PUNT_PERCENTS.index(5)] < 2.0
    assert values_256[PUNT_PERCENTS.index(25)] < 0.2
    for v1000, v256, pct in zip(values_1000, values_256, PUNT_PERCENTS):
        if pct > 0:
            assert v256 < v1000

    columns = {"pct_to_controller": PUNT_PERCENTS,
               "1000B_packets": values_1000,
               "256B_packets": values_256}
    report("fig1_ovs_controller", series_table(
        "Fig. 1 — OVS max throughput (Gbps) vs % packets to controller",
        columns), metrics=columns)


def test_fig1_des_validates_model(report):
    """Loss starts right where the capacity model says it should."""
    model = OvsControllerModel(fast_path_pps=3.3e6,
                               controller_rps=10_000)

    def run():
        rows = []
        for pct in (1.0, 10.0):
            # Model's max-throughput point in packets/second.
            capacity_pps = 10_000 / (pct / 100.0)
            below = simulate_loss(pct, 256, offered_pps=0.8 * capacity_pps)
            above = simulate_loss(pct, 256, offered_pps=2.0 * capacity_pps)
            rows.append((pct, capacity_pps, below, above))
        return rows

    rows = run()
    for _pct, _capacity, below, above in rows:
        assert below < 0.02   # sustainable under the predicted maximum
        assert above > 0.10   # lossy above it
    columns = {"pct": [row[0] for row in rows],
               "capacity_pps": [row[1] for row in rows],
               "loss_at_0.8x": [row[2] for row in rows],
               "loss_at_2.0x": [row[3] for row in rows]}
    report("fig1_des_validation", series_table(
        "Fig. 1 cross-check — loss fraction around the model's capacity",
        columns), metrics=columns)
