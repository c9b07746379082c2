"""Tests for the discrete-event kernel: events, processes, scheduling."""

import pytest

from repro.sim import MS, NS, S, US
from repro.sim.events import Interrupt


class TestUnits:
    def test_scale(self):
        assert US == 1000 * NS
        assert MS == 1000 * US
        assert S == 1000 * MS

    def test_seconds_roundtrip(self):
        from repro.sim import ns_to_seconds, seconds_to_ns
        assert seconds_to_ns(7.75) == 7_750_000_000
        assert ns_to_seconds(seconds_to_ns(1.25)) == 1.25


class TestTimeouts:
    def test_timeout_fires_at_delay(self, sim):
        fired = []
        sim.timeout(50).callbacks.append(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [50]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_timeout_carries_value(self, sim):
        timeout = sim.timeout(10, value="payload")
        sim.run()
        assert timeout.value == "payload"

    def test_same_time_fifo_order(self, sim):
        order = []
        for tag in "abc":
            sim.timeout(5).callbacks.append(
                lambda e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_monotonic_across_mixed_delays(self, sim):
        stamps = []
        for delay in (30, 10, 20):
            sim.timeout(delay).callbacks.append(
                lambda e: stamps.append(sim.now))
        sim.run()
        assert stamps == [10, 20, 30]


class TestRun:
    def test_run_until_timestamp_stops_clock(self, sim):
        sim.timeout(100)
        sim.run(until=40)
        assert sim.now == 40

    def test_run_until_leaves_future_events(self, sim):
        fired = []
        sim.timeout(100).callbacks.append(lambda e: fired.append(True))
        sim.run(until=50)
        assert not fired
        sim.run()
        assert fired == [True]

    def test_run_until_past_raises(self, sim):
        sim.timeout(100)
        sim.run(until=50)
        with pytest.raises(ValueError):
            sim.run(until=10)

    def test_run_until_event_returns_value(self, sim):
        def worker():
            yield sim.timeout(5)
            return 99

        process = sim.process(worker())
        assert sim.run(process) == 99

    def test_run_until_event_never_fires(self, sim):
        event = sim.event()
        with pytest.raises(RuntimeError, match="ran out of events"):
            sim.run(event)

    def test_empty_run_is_noop(self, sim):
        sim.run()
        assert sim.now == 0

    def test_peek(self, sim):
        assert sim.peek() is None
        sim.timeout(30)
        assert sim.peek() == 30


class TestEvents:
    def test_succeed_then_value(self, sim):
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.processed and event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(RuntimeError):
            sim.event().value

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_unhandled_failure_propagates(self, sim):
        sim.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_defused_failure_is_silent(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        event.defuse()
        sim.run()
        assert event.triggered and not event.ok


class TestProcesses:
    def test_return_value(self, sim):
        def worker():
            yield sim.timeout(1)
            return "done"

        process = sim.process(worker())
        sim.run()
        assert process.value == "done"

    def test_sequential_timeouts_accumulate(self, sim):
        times = []

        def worker():
            for _ in range(3):
                yield sim.timeout(10)
                times.append(sim.now)

        sim.process(worker())
        sim.run()
        assert times == [10, 20, 30]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_yield_non_event_raises_in_process(self, sim):
        def worker():
            yield 42

        process = sim.process(worker())
        with pytest.raises(RuntimeError, match="non-event"):
            sim.run()
        assert process.triggered

    def test_exception_in_process_fails_process(self, sim):
        def worker():
            yield sim.timeout(1)
            raise KeyError("inner")

        process = sim.process(worker())
        with pytest.raises(KeyError):
            sim.run()
        assert not process.ok

    def test_waiting_on_failed_event_raises_inside(self, sim):
        event = sim.event()
        caught = []

        def worker():
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(worker())
        event.fail(ValueError("bad"))
        sim.run()
        assert caught == ["bad"]

    def test_wait_on_already_processed_event(self, sim):
        event = sim.event()
        event.succeed("early")
        sim.run()

        def worker():
            value = yield event
            return value

        process = sim.process(worker())
        sim.run()
        assert process.value == "early"

    def test_process_is_waitable_event(self, sim):
        def inner():
            yield sim.timeout(7)
            return "inner-result"

        def outer():
            result = yield sim.process(inner())
            return result + "!"

        process = sim.process(outer())
        sim.run()
        assert process.value == "inner-result!"
        assert sim.now == 7


class TestInterrupts:
    def test_interrupt_wakes_process(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(1000)
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

        process = sim.process(sleeper())
        sim.schedule(10, lambda: process.interrupt("wake"))
        sim.run()
        assert log == [(10, "wake")]

    def test_interrupt_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(1)

        process = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            process.interrupt()

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        """The original timeout firing later must not resume the process."""
        resumed = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(5)
            resumed.append(sim.now)

        process = sim.process(sleeper())
        sim.schedule(10, lambda: process.interrupt())
        sim.run()
        assert resumed == [15]


class TestSchedule:
    def test_schedule_callback(self, sim):
        called = []
        sim.schedule(25, lambda: called.append(sim.now))
        sim.run()
        assert called == [25]
