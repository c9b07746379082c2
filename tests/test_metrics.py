"""Metrics instrumentation tests."""

import gc
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
    comparison_table,
    counters_table,
    series_table,
)
from repro.net.packet import wire_bits
from repro.sim.units import MS, S, US

from tests.test_sharded_parity import sharded_run

#: Traced bytes 100k recorded samples may leave per sample: 8 for the
#: int64 slot plus the array's over-allocation (40 as one int object
#: and one list slot each).
MAX_BYTES_PER_SAMPLE = 10


class TestLatencyRecorder:
    def test_summary_statistics(self):
        recorder = LatencyRecorder()
        for value in (10 * US, 20 * US, 30 * US):
            recorder.record(value)
        assert recorder.mean_us() == pytest.approx(20.0)
        assert recorder.min_us() == pytest.approx(10.0)
        assert recorder.max_us() == pytest.approx(30.0)
        assert len(recorder) == 3

    def test_percentiles(self):
        recorder = LatencyRecorder()
        for i in range(1, 101):
            recorder.record(i * US)
        assert recorder.percentile_us(50) == pytest.approx(50.5)
        assert recorder.percentile_us(99) == pytest.approx(99.01)

    @given(samples=st.lists(st.integers(0, 10**13), min_size=1,
                            max_size=60),
           percentile=st.one_of(st.sampled_from([0, 1, 50, 90, 99, 100]),
                                st.floats(0, 100)))
    @settings(max_examples=300, deadline=None)
    def test_percentiles_equal_numpy_bit_for_bit(self, samples, percentile):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        expected = float(np.percentile(
            np.asarray(samples, dtype=np.float64), percentile)) / US
        assert recorder.percentile_us(percentile) == expected

    def test_percentile_outside_0_to_100_rejected(self):
        recorder = LatencyRecorder()
        recorder.record(1)
        for percentile in (-1, 100.5, float("nan")):
            with pytest.raises(ValueError):
                recorder.percentile_us(percentile)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_non_integer_rejected(self):
        recorder = LatencyRecorder()
        with pytest.raises(TypeError):
            recorder.record(1.5)
        assert len(recorder) == 0

    def test_samples_are_ints_in_order_sharing_equal_values(self):
        recorded = [30 * US + 7, 25 * US + 3, 30 * US + 7, 0,
                    10**12 + 1, 25 * US + 3]
        recorder = LatencyRecorder()
        for value in recorded:
            recorder.record(value)
        samples = recorder.samples_ns
        assert type(samples) is list
        assert all(type(sample) is int for sample in samples)
        assert samples == recorded
        assert samples[0] is samples[2]
        assert samples[1] is samples[5]

    def test_clear_drops_every_sample(self):
        recorder = LatencyRecorder()
        for value in (1, 2, 3):
            recorder.record(value)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.samples_ns == []
        recorder.record(4)
        assert recorder.samples_ns == [4]

    def test_pickle_round_trip_keeps_samples_and_percentiles(self):
        recorder = LatencyRecorder("rtt")
        for i in range(1, 501):
            recorder.record((i * 7919) % 997 * US)
        copy = pickle.loads(pickle.dumps(recorder))
        assert copy.name == "rtt"
        assert copy.samples_ns == recorder.samples_ns
        assert copy.summary() == recorder.summary()
        assert copy.cdf_points(20) == recorder.cdf_points(20)

    def test_samples_cost_at_most_10_traced_bytes_each(self):
        count = 100_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            recorder = LatencyRecorder()
            for i in range(count):
                # Table-2-like: integer ns in a band a few us wide.
                recorder.record(25 * US + (i * 7919) % 5_601)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(recorder) == count
        assert grown / count <= MAX_BYTES_PER_SAMPLE, \
            f"{grown / count:.1f} B/sample"

    def test_empty_statistics_raise(self):
        with pytest.raises(ValueError):
            LatencyRecorder().mean_us()

    def test_cdf_points_monotone(self):
        recorder = LatencyRecorder()
        for i in range(1000):
            recorder.record((i % 37 + 1) * US)
        points = recorder.cdf_points(points=50)
        assert len(points) == 50
        xs = [x for x, _y in points]
        ys = [y for _x, y in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_summary_dict(self):
        recorder = LatencyRecorder()
        recorder.record(5 * US)
        summary = recorder.summary()
        assert summary["count"] == 1
        assert summary["avg_us"] == pytest.approx(5.0)


class TestThroughputMeter:
    def test_gbps_accounting_includes_wire_overhead(self):
        meter = ThroughputMeter(window_ns=1 * MS)
        # 1000 packets of 1000 B in 1 ms.
        for i in range(1000):
            meter.record(i * 1000, 1000)
        series = meter.gbps_series()
        assert len(series) == 1
        expected = 1000 * wire_bits(1000) / MS
        assert series[0][1] == pytest.approx(expected)

    def test_without_overhead(self):
        meter = ThroughputMeter(window_ns=1 * MS,
                                count_wire_overhead=False)
        meter.record(0, 1000)
        assert meter.total_bits == 8000

    def test_pps_series(self):
        meter = ThroughputMeter(window_ns=1 * MS)
        for i in range(500):
            meter.record(i * 2000, 64)
        times, rates = zip(*meter.pps_series())
        assert rates[0] == pytest.approx(500_000)

    def test_mean_over_window(self):
        meter = ThroughputMeter(window_ns=1 * MS)
        meter.record(0, 1000)
        meter.record(5 * MS, 1000)
        full = meter.mean_gbps(0, 6 * MS)
        early = meter.mean_gbps(0, 1 * MS)
        assert early == pytest.approx(wire_bits(1000) / MS)
        assert full == pytest.approx(2 * wire_bits(1000) / (6 * MS))

    def test_empty_meter_mean_zero(self):
        assert ThroughputMeter().mean_gbps() == 0.0

    def test_batched_packets(self):
        meter = ThroughputMeter(window_ns=MS)
        meter.record(0, 64, packets=10)
        assert meter.total_packets == 10

    def test_window_totals_across_new_and_existing_windows(self):
        meter = ThroughputMeter(window_ns=MS, count_wire_overhead=False)
        for now, size in ((0, 100), (MS - 1, 50), (MS, 10),
                          (3 * MS + 5, 1), (MS + 2, 20)):
            meter.record(now, size)
        assert meter._windows == {0: [1200, 2], 1: [240, 2], 3: [8, 1]}
        assert meter.total_bits == 1448
        assert meter.total_packets == 5

    def test_existing_window_records_without_allocating(self):
        meter = ThroughputMeter(window_ns=MS, count_wire_overhead=False)
        meter.record(0, 1)
        # 1-byte frames keep every total a cached small int, and a
        # ready-made iterator keeps the loop itself from allocating, so
        # any traced block is the meter's own.
        nows = iter(range(1, 20))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for now in nows:
                meter.record(now, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert meter.total_bits == 160
        assert peak - before == 0


class TestShardDeliveries:
    def test_deliveries_of_one_flow_share_one_key(self):
        result = sharded_run(2, workers=0)
        by_flow: dict[tuple, set[int]] = {}
        for name in result.hosts:
            for _now, _created, key in result.deliveries(name):
                by_flow.setdefault(key, set()).add(id(key))
        assert len(by_flow) == 2
        assert all(len(ids) == 1 for ids in by_flow.values())


class TestTimeSeries:
    def test_points_in_seconds(self):
        series = TimeSeries()
        series.append(1 * S, 5.0)
        series.append(2 * S, 7.0)
        assert series.points() == [(1.0, 5.0), (2.0, 7.0)]

    def test_time_must_not_decrease(self):
        series = TimeSeries()
        series.append(10, 1.0)
        with pytest.raises(ValueError):
            series.append(5, 2.0)

    def test_step_interpolation(self):
        series = TimeSeries()
        series.append(10, 1.0)
        series.append(20, 2.0)
        assert series.value_at(15) == 1.0
        assert series.value_at(20) == 2.0
        with pytest.raises(ValueError):
            series.value_at(5)

    def test_window_mean(self):
        series = TimeSeries()
        for t, v in [(0, 1.0), (10, 3.0), (20, 5.0)]:
            series.append(t, v)
        assert series.window_mean(0, 15) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            series.window_mean(100, 200)


class TestReporting:
    def test_comparison_table_renders_all_rows(self):
        text = comparison_table("Table 2", [
            ("0VM (dpdk)", "26.66 us", "26.70 us"),
            ("1VM", "27.78 us", "27.75 us"),
        ])
        assert "Table 2" in text
        assert "26.66 us" in text and "27.75 us" in text
        assert text.count("\n") == 4

    def test_series_table_alignment_and_floats(self):
        text = series_table("Fig 7", {
            "size": [64, 1024],
            "gbps": [5.01234, 9.9],
        })
        assert "5.012" in text and "9.900" in text

    def test_series_table_length_mismatch(self):
        with pytest.raises(ValueError):
            series_table("bad", {"a": [1], "b": [1, 2]})

    def test_counters_table_renders_ints_and_floats(self):
        text = counters_table("NIC drops", {
            "nic_rx_dropped": 12,
            "nic_link_dropped": 0,
            "vm_mean_batch": 31.90044,
        })
        assert "NIC drops" in text
        assert "nic_rx_dropped" in text and "12" in text
        assert "31.900" in text
        assert text.count("\n") == 5

    def test_counters_table_empty(self):
        text = counters_table("empty", {})
        assert "empty" in text
