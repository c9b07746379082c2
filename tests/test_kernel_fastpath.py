"""The kernel fast path: bare timers, direct wakes, lazy cancellation.

These lock in the zero-allocation hot-path mechanics: ``call_later``
timers share the heap and sequence counter with triggered events (so
timestamp tie-breaks stay globally FIFO and ``events_scheduled`` counts
every entry pushed), ``sleep()`` and every store hand-off resume their
process from a bare heap entry with no Event at all, or in place when
that entry would be the next pop, and abandoned timeouts are discarded
unprocessed instead of being dispatched long after anyone cares.
"""

import pytest

from repro.control import ControlPlane
from repro.core import EXIT, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost, RingBuffer, ToPort
from repro.dataplane.manager import NicPort
from repro.dataplane.messages import ChangeDefault
from repro.metrics.eventlog import EventLog
from repro.net import FiveTuple, FlowMatch, Packet
from repro.nfs import NoOpNf, PolicyEngine, VideoFlowDetector
from repro.sim import MS, US, Store
from repro.sim.events import Event, Interrupt
from repro.workloads import FlowChurnWorkload, FlowSpec, PktGen


class TestTimerLane:
    def test_call_later_fires_with_argument(self, sim):
        seen = []
        sim.call_later(25, seen.append, "tick")
        sim.run()
        assert sim.now == 25
        assert seen == ["tick"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.call_later(-1, lambda _: None)

    def test_timers_and_events_interleave_fifo(self, sim):
        """Same-timestamp entries fire in schedule order across lanes."""
        order = []
        sim.timeout(10).callbacks.append(lambda e: order.append("event-a"))
        sim.call_later(10, order.append, "timer-b")
        sim.timeout(10).callbacks.append(lambda e: order.append("event-c"))
        sim.call_later(10, order.append, "timer-d")
        sim.run()
        assert order == ["event-a", "timer-b", "event-c", "timer-d"]

    def test_timers_counted_in_events_scheduled(self, sim):
        """Satellite check: the odometer counts both lanes."""
        before = sim.events_scheduled
        sim.call_later(5, lambda _: None)
        sim.call_later(7, lambda _: None)
        sim.timeout(9)
        assert sim.events_scheduled == before + 3
        assert sim.timers_scheduled == 2

    def test_schedule_convenience_wrapper(self, sim):
        seen = []
        sim.schedule(30, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [30]

    def test_timer_lane_rearms_itself(self, sim):
        """A self-rearming timer (the pktgen/NIC-drain shape)."""
        ticks = []

        def tick(count):
            ticks.append(sim.now)
            if count > 1:
                sim.call_later(10, tick, count - 1)

        sim.call_later(10, tick, 3)
        sim.run()
        assert ticks == [10, 20, 30]


class TestEventRecycling:
    """Sleep basics: every sleep hands its process a fresh ``None``, and
    a negative delay is refused."""

    def test_recycled_event_resets_state(self, sim):
        values = []

        def sleeper():
            values.append((yield sim.sleep(5)))
            values.append((yield sim.sleep(5)))

        sim.process(sleeper())
        sim.run()
        assert values == [None, None]

    def test_negative_sleep_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.sleep(-3)


def _count_events(monkeypatch) -> list:
    """Record every Event (or subclass) constructed from here on."""
    made = []
    original = Event.__init__

    def counting_init(self, *args, **kwargs):
        made.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    return made


class TestDirectWakes:
    def test_sleeps_and_direct_hand_offs_construct_no_events(
            self, sim, monkeypatch):
        store = Store(sim, capacity=4)
        received = []

        def producer():
            for i in range(1000):
                assert store.try_put(i)
                yield sim.sleep(1)

        def consumer():
            for _ in range(1000):
                received.append((yield store.get()))
                yield sim.sleep(1)

        sim.process(producer())
        sim.process(consumer())
        made = _count_events(monkeypatch)
        sim.run()
        assert received == list(range(1000))
        # 2,000 sleeps and 1,000 store hand-offs, not one Event among
        # them.
        assert made == []

    @pytest.mark.parametrize("kind", ["store", "ring"])
    def test_every_store_hands_off_without_events(self, sim, monkeypatch,
                                                  kind):
        """Plain stores and rings alike: a get served from the store, a
        parked get woken by ``try_put`` and a ``try_get`` poll all hand
        off directly."""
        store = (Store(sim, capacity=1) if kind == "store"
                 else RingBuffer(sim, "r", slots=1))
        received = []

        def producer():
            for i in range(100):
                assert store.try_put(i)
                yield sim.sleep(1)

        def consumer():
            for _ in range(50):
                received.append((yield store.get()))
            for _ in range(50):
                yield sim.sleep(1)
                received.append(store.try_get())

        sim.process(producer())
        sim.process(consumer())
        made = _count_events(monkeypatch)
        sim.run()
        assert received == list(range(100))
        assert made == []

    def test_controller_round_trip_constructs_only_the_reply(
            self, sim, monkeypatch):
        controller = ControlPlane(sim, service_time_ns=100 * US,
                                   propagation_ns=50 * US)
        made = _count_events(monkeypatch)
        reply = controller.flow_request(
            "h0", "eth0", FiveTuple("10.0.0.1", "10.0.0.2", 17, 1, 2))
        assert sim.run(until=reply) == []
        assert sim.now == 200 * US
        assert made == ["Event"]

    def test_unwired_port_fills_egress_at_line_rate(self, sim):
        """With no ``on_egress`` hook, frames land in ``port.egress``
        back to back, each costing one heap entry: the timer at the end
        of its serialization."""
        port = NicPort(sim, "p", line_rate_gbps=1.0)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 17, 1, 2)
        for _ in range(10):
            port.transmit(Packet(flow=flow, size=1000))
        for frame in range(1, 11):
            # A 1000 B frame takes 8,192 ns on the wire at 1 Gbps.
            sim.run(until=frame * 8_192)
            assert len(port.egress) == frame - 1
            sim.run(until=frame * 8_192 + 1)
            assert len(port.egress) == frame
        assert port.tx_packets == 10
        assert sim.events_scheduled == 10
        assert sim.timers_scheduled == 10

    def test_direct_waits_are_not_timers(self, sim):
        def sleeper():
            for _ in range(5):
                yield sim.sleep(10)

        sim.process(sleeper())
        sim.run()
        assert sim.now == 50
        # The start and the process's own completion event: a lone
        # sleeper's five wakes all resume in place.
        assert sim.events_scheduled == 2
        assert sim.timers_scheduled == 0

    def test_sleep_outside_a_process_raises(self, sim):
        with pytest.raises(RuntimeError):
            sim.sleep(5)

    @pytest.mark.parametrize("call", ["get", "put"])
    def test_direct_store_outside_a_process_raises(self, sim, call):
        """``get`` needs a running process, whether the store is empty
        ("get") or a ``try_put`` left an item waiting ("put")."""
        store = Store(sim)
        if call == "put":
            assert store.try_put("x")
        with pytest.raises(RuntimeError):
            store.get()
        # try_put / try_get stay callable from anywhere, and the failed
        # get took nothing.
        assert store.try_put("y")
        assert store.try_get() == ("x" if call == "put" else "y")

    def test_interrupted_sleep_wakes_once(self, sim):
        """Sleep 100, interrupted at 10, then sleep 5: exactly one wake,
        at 15 — the abandoned t=100 wake entry resumes nobody."""
        wakes = []

        def sleeper():
            try:
                yield sim.sleep(100)
                wakes.append(("first", sim.now))
            except Interrupt:
                pass
            yield sim.sleep(5)
            wakes.append(("second", sim.now))

        process = sim.process(sleeper())
        sim.schedule(10, lambda: process.interrupt())
        sim.run()
        assert wakes == [("second", 15)]
        assert process.processed and process.ok
        # The abandoned entry still pops (at t=100), as a no-op.
        assert sim.now == 100


class TestInPlaceResume:
    """A wake due strictly before every queued entry and the ``run``
    horizon resumes its process in place: no entry is pushed."""

    def test_lone_sleeper_takes_no_entries(self, sim):
        seen = []

        def sleeper():
            for delay in (3, 0, 7, 10):
                yield sim.sleep(delay)
                seen.append((sim.now, sim.events_scheduled))

        sim.process(sleeper())
        sim.run()
        # Only the process's start entry was pushed before each wake.
        assert seen == [(3, 1), (3, 1), (10, 1), (20, 1)]
        # ... and its completion event after the last.
        assert sim.events_scheduled == 2

    def test_same_nanosecond_entry_runs_first(self, sim):
        order = []

        def sleeper():
            yield sim.sleep(10)
            order.append(("sleeper", sim.now, sim.events_scheduled))

        sim.process(sleeper())
        sim.call_later(10, order.append, ("timer", 10))
        sim.run()
        # The timer's lower sequence number wins the tie, so the wake was
        # pushed behind it: start, timer and wake are three entries.
        assert order == [("timer", 10), ("sleeper", 10, 3)]

    def test_resume_never_crosses_the_run_horizon(self, sim):
        wakes = []

        def sleeper():
            for _ in range(3):
                yield sim.sleep(10)
                wakes.append(sim.now)

        process = sim.process(sleeper())
        # The wake at 10 resumes in place; the one due at exactly the
        # horizon is pushed and waits.
        sim.run(until=20)
        assert sim.now == 20
        assert wakes == [10]
        assert process.is_alive
        assert sim.peek() == 20
        sim.run()
        assert wakes == [10, 20, 30]

    def test_run_until_event_returns_at_the_event(self, sim):
        done = sim.timeout(25, "done")
        wakes = []

        def waiter():
            yield done
            for _ in range(3):
                yield sim.sleep(10)
                wakes.append(sim.now)

        sim.process(waiter())
        assert sim.run(until=done) == "done"
        # The waiter resumed with the event but slept no further.
        assert sim.now == 25
        assert wakes == []
        assert sim.peek() == 35
        sim.run()
        assert wakes == [35, 45, 55]

    def test_shared_event_subscribers_all_resume_at_its_time(self, sim):
        ev = sim.event()
        sim.call_later(1, ev.succeed, "go")
        log = []

        def first():
            log.append(("first", (yield ev), sim.now))
            yield sim.sleep(5)
            log.append(("first woke", sim.now))

        def second():
            log.append(("second", (yield ev), sim.now))

        sim.process(first())
        sim.process(second())
        # A plain callback subscribes after both processes have.
        sim.call_later(0, lambda _: ev.callbacks.append(
            lambda event: log.append(("callback", sim.now))))
        sim.run()
        # The first subscriber's sleep is pushed, not resumed in place,
        # because the rest of the event's callbacks run in the same entry.
        assert log == [("first", "go", 1), ("second", "go", 1),
                       ("callback", 1), ("first woke", 6)]

    def test_last_subscriber_still_resumes_in_place(self, sim):
        ev = sim.event()
        sim.call_later(1, ev.succeed, "go")
        log = []
        ev.callbacks.append(lambda event: log.append(("callback", sim.now)))

        def waiter():
            yield ev
            entries = sim.events_scheduled
            yield sim.sleep(5)
            log.append(("woke", sim.now, sim.events_scheduled - entries))

        sim.process(waiter())
        sim.run()
        assert log == [("callback", 1), ("woke", 6, 0)]

    def test_get_that_finds_an_item_resumes_in_place(self, sim):
        store = Store(sim)
        assert store.try_put("a")
        assert store.try_put("b")
        got = []

        def consumer():
            for _ in range(2):
                got.append(((yield store.get()), sim.now,
                            sim.events_scheduled))
            got.append(process._target)

        process = sim.process(consumer())
        sim.run()
        assert got == [("a", 0, 1), ("b", 0, 1), None]
        assert len(store) == 0

    def test_interrupt_after_in_place_resume_is_delivered_once(self, sim):
        seen = []

        def sleeper():
            yield sim.sleep(5)
            seen.append(("in place", sim.now, sim.events_scheduled))
            try:
                yield sim.sleep(100)
                seen.append(("slept", sim.now))
            except Interrupt as interrupt:
                seen.append(("interrupted", sim.now, interrupt.cause))
            yield sim.sleep(1)
            seen.append(("after", sim.now))

        process = sim.process(sleeper())
        sim.call_later(10, lambda _: process.interrupt("x"))
        sim.run()
        assert seen == [("in place", 5, 2), ("interrupted", 10, "x"),
                        ("after", 11)]
        assert process.ok
        # The abandoned wake at 105 still pops, as a no-op.
        assert sim.now == 105


def _chain_graph(services: list[str], read_only: bool) -> ServiceGraph:
    graph = ServiceGraph("chain")
    for service in services:
        graph.add_service(service, read_only=read_only)
    for src, dst in zip(services, services[1:], strict=False):
        graph.add_edge(src, dst, default=True)
    graph.add_edge(services[-1], EXIT, default=True)
    graph.set_entry(services[0])
    return graph


class TestWireEntries:
    def test_frames_queued_on_a_down_link_leave_in_order(self, sim):
        """Frames sent while the link is down wait without a kernel
        entry; once it comes back they leave back to back, in order,
        one entry each (plus the restore event itself)."""
        port = NicPort(sim, "p", line_rate_gbps=1.0)
        port.set_link(False)
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 17, 1, 2)
        frames = [Packet(flow=flow, size=1000) for _ in range(5)]
        for frame in frames:
            port.transmit(frame)
        sim.run(until=50_000)
        assert len(port.egress) == 0
        assert sim.events_scheduled == 0
        port.set_link(True)
        # A 1000 B frame takes 8,192 ns on the wire at 1 Gbps.
        sim.run(until=50_000 + 5 * 8_192)
        assert len(port.egress) == 4
        sim.run()
        assert sim.now == 50_000 + 5 * 8_192
        assert [port.egress.try_get() for _ in frames] == frames
        assert port.tx_packets == 5
        assert sim.events_scheduled == 1 + 5
        assert sim.timers_scheduled == 5

    @pytest.mark.parametrize(("parallel", "entries"),
                             [(False, 12), (True, 16)])
    def test_table2_chain_entries_per_packet(self, sim, parallel,
                                             entries):
        """A Table 2-style 3-NoOp chain at 100 Mbps moves one packet at
        a time; each costs a fixed number of kernel entries, one of them
        on the wire.  A sleep or hand-off due before every other entry
        resumes in place and costs none."""
        host = NfvHost(sim, name="t2", seed=3)
        app = SdnfvApp(sim)
        app.register_host(host)
        services = ["a", "b", "c"]
        for service in services:
            host.add_nf(NoOpNf(service))
        flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 5000, 80)
        app.deploy(_chain_graph(services, read_only=parallel),
                   match=FlowMatch.exact(flow))
        gen = PktGen(sim, host, seed=3)
        gen.add_flow(FlowSpec(flow=flow, rate_mbps=100.0,
                              packet_size=1000))
        sim.run(until=1 * MS)
        events, received = sim.events_scheduled, gen.received
        sim.run(until=11 * MS)
        packets = gen.received - received
        assert packets > 100
        assert sim.events_scheduled - events == entries * packets

    def test_fig10_churn_host_entries_per_packet(self, sim):
        """Fig. 10's detector -> policy engine host, with every
        ChangeDefault validated by the app, at a churn rate low enough
        that each two-packet flow crosses it alone: one TX sleep per
        burst, a zero-latency validation that takes no kernel entry and
        the waits that resume in place give 8 entries per packet."""
        app = SdnfvApp(sim, trust_nfs=False)
        host = NfvHost(sim, name="v0", seed=3)
        app.register_host(host)
        host.add_nf(VideoFlowDetector("vd"))
        host.add_nf(PolicyEngine("pe", detector_service="vd",
                                 transcoder_service="tc", exit_port="eth1"))
        graph = ServiceGraph("video")
        graph.add_service("vd", read_only=True)
        graph.add_service("pe")
        graph.add_edge("vd", "pe", default=True)
        graph.add_edge("vd", EXIT)
        graph.add_edge("pe", EXIT, default=True)
        graph.set_entry("vd")
        app.deploy(graph, proactive=True)
        FlowChurnWorkload(sim, host, new_flows_per_second=1000, seed=3)
        port = host.port("eth1")
        sink = port.on_egress
        delivered = []

        def record(packet):
            delivered.append(packet.size)
            sink(packet)

        port.on_egress = record
        sim.run(until=5 * MS)
        events, before = sim.events_scheduled, len(delivered)
        sim.run(until=45 * MS)
        packets = len(delivered) - before
        assert packets > 50
        assert not app.rejected_messages
        assert sim.events_scheduled - events == 8 * packets

    @pytest.mark.parametrize("latency_ns", [0, 5 * US])
    def test_validation_latency_is_one_manager_sleep(self, sim, flow,
                                                     latency_ns):
        """An untrusted NF's message is applied exactly
        ``validation_latency_ns`` after it is queued.  Between the two,
        the queue hand-off takes one kernel entry; the manager's sleep
        for a nonzero latency, due before anything else, resumes in
        place and takes none."""
        app = SdnfvApp(sim, trust_nfs=False, validation_latency_ns=latency_ns)
        host = NfvHost(sim, name="h0")
        app.register_host(host)
        for name in ("a", "b"):
            host.add_nf(NoOpNf(name))
        graph = _chain_graph(["a", "b"], read_only=False)
        graph.add_edge("a", EXIT)
        app.deploy(graph)
        log = EventLog(sim)
        host.manager.event_log = log
        sim.run(until=1 * MS)
        events = sim.events_scheduled
        host.manager.submit_nf_message(ChangeDefault(
            sender_service="a", flows=FlowMatch.exact(flow), service="a",
            target="port:eth1"))
        sim.run()
        applied = [event.timestamp_ns
                   for event in log.filter("message_applied")]
        assert applied == [1 * MS + latency_ns]
        assert sim.events_scheduled - events == 1
        assert host.flow_table.lookup(
            "a", flow).default_action == ToPort("eth1")


class TestLazyCancellation:
    def test_cancelled_event_discarded_unprocessed(self, sim):
        fired = []
        timeout = sim.timeout(10)

        def waiter():
            try:
                yield timeout
                fired.append("fired")
            except Interrupt:
                pass

        process = sim.process(waiter())
        sim.schedule(5, lambda: process.interrupt())
        sim.run()
        # The interrupt left the timeout with no subscriber, so its heap
        # entry was popped at 10 ns and discarded unprocessed.
        assert fired == []
        assert sim.events_cancelled == 1
        assert not timeout.processed

    def test_resubscribe_uncancels(self, sim):
        fired = []
        timeout = sim.timeout(10)

        def waiter():
            try:
                yield timeout
            except Interrupt:
                # Waiting on the abandoned timeout again un-cancels it.
                yield timeout
            fired.append(sim.now)

        process = sim.process(waiter())
        sim.schedule(5, lambda: process.interrupt())
        sim.run()
        assert fired == [10]
        assert sim.events_cancelled == 0

    def test_interrupted_waits_do_not_bloat_the_heap(self, sim):
        """Satellite regression: many interrupted long waits (the ring
        poll / deadline shape) are discarded, not dispatched."""
        waiters = []

        def wait_forever():
            try:
                yield sim.timeout(10_000_000)
            except Interrupt:
                pass

        for _ in range(200):
            waiters.append(sim.process(wait_forever()))

        def interrupter():
            yield sim.timeout(5)
            for process in waiters:
                process.interrupt()

        sim.process(interrupter())
        sim.run()
        # Every abandoned timeout was discarded unprocessed (the heap
        # entry is popped to advance the clock, but never dispatched).
        assert sim.events_cancelled == 200
        assert not sim._queue
