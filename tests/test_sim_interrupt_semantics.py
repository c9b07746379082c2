"""Interrupt-semantics hardening: stale events must never mis-resume a
process, and stores must not lose items to abandoned getters."""


from repro.dataplane.rings import RingBuffer
from repro.sim import Interrupt, Store


class TestTargetDetachment:
    def test_old_target_firing_does_not_resume(self, sim):
        """A process interrupted out of a timeout must not be resumed a
        second time when that timeout eventually fires."""
        resumptions = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            # Now wait on something else past t=100.
            yield sim.timeout(500)
            resumptions.append(sim.now)

        process = sim.process(sleeper())
        sim.schedule(10, lambda: process.interrupt())
        sim.run()
        # Exactly one resumption, at 10 + 500 — the stale t=100 timeout
        # changed nothing.
        assert resumptions == [510]

    def test_interrupt_then_value_flow_correct(self, sim):
        """After an interrupt, the next awaited event's value arrives
        intact (no leakage from the abandoned event)."""
        values = []

        def worker():
            try:
                yield sim.timeout(100, value="stale-value")
            except Interrupt as interrupt:
                values.append(("interrupt", interrupt.cause))
            fresh = yield sim.timeout(50, value="fresh-value")
            values.append(("value", fresh))

        process = sim.process(worker())
        sim.schedule(10, lambda: process.interrupt("why"))
        sim.run()
        assert values == [("interrupt", "why"), ("value", "fresh-value")]


class TestStoreAbandonedGetters:
    def test_item_not_lost_to_interrupted_getter(self, sim):
        """An item put after a waiting consumer was interrupted must go
        to the next live consumer, not vanish."""
        store = Store(sim)
        received = []

        def doomed():
            try:
                yield store.get()
                received.append("doomed-got-item")
            except Interrupt:
                pass  # walks away without consuming

        def patient():
            item = yield store.get()
            received.append(("patient", item))

        doomed_process = sim.process(doomed())
        sim.process(patient())
        sim.schedule(10, lambda: doomed_process.interrupt())
        sim.schedule(20, lambda: store.try_put("the-item"))
        sim.run()
        assert received == [("patient", "the-item")]

    def test_all_getters_abandoned_item_queues(self, sim):
        store = Store(sim)

        def doomed():
            try:
                yield store.get()
            except Interrupt:
                pass

        process = sim.process(doomed())
        sim.schedule(10, lambda: process.interrupt())
        sim.schedule(20, lambda: store.try_put("kept"))
        sim.run()
        # Nobody was waiting: the item stays in the store.
        assert list(store.items) == ["kept"]

    def test_fifo_preserved_among_live_getters(self, sim):
        store = Store(sim)
        received = []

        def consumer(tag, give_up):
            try:
                item = yield store.get()
                received.append((tag, item))
            except Interrupt:
                pass

        first = sim.process(consumer("first", True))
        sim.process(consumer("second", False))
        sim.process(consumer("third", False))
        sim.schedule(10, lambda: first.interrupt())
        sim.schedule(20, lambda: (store.try_put("a"),
                                  store.try_put("b")))
        sim.run()
        assert received == [("second", "a"), ("third", "b")]


class TestInterruptedDirectWaits:
    def test_interrupt_cancels_pending_resume_on_processed_event(self, sim):
        """An interrupt queued at the same ns ahead of the resume of an
        already-processed event cancels that resume: the next wait gets
        its own value at its own time, not the stale one."""
        done = sim.event()
        done.succeed("old")
        seen = []

        def worker():
            yield sim.timeout(1)
            try:
                yield done
                seen.append("resumed")
            except Interrupt:
                seen.append(("interrupt", sim.now))
            seen.append(((yield sim.timeout(100, value="late")), sim.now))

        process = sim.process(worker())
        # Scheduled first, so at t=1 the interrupt is queued before the
        # worker yields the processed event.
        sim.call_later(1, lambda _: process.interrupt())
        sim.run()
        assert seen == [("interrupt", 1), ("late", 101)]

    def test_hand_off_to_interrupted_getter_stays_in_store(self, sim):
        """An item handed to a parked getter in the same ns its
        interrupt was queued goes back to the head of the store."""
        store = Store(sim)
        seen = []

        def consumer():
            try:
                seen.append((yield store.get()))
            except Interrupt:
                seen.append("interrupted")

        process = sim.process(consumer())

        def interrupt_then_put():
            process.interrupt()
            assert store.try_put("pkt")

        sim.schedule(10, interrupt_then_put)
        sim.run()
        assert seen == ["interrupted"]
        assert list(store.items) == ["pkt"]

    def test_cancelled_hand_off_goes_to_next_getter(self, sim):
        store = Store(sim)
        seen = []

        def consumer(tag):
            try:
                seen.append((tag, (yield store.get()), sim.now))
            except Interrupt:
                seen.append((tag, "interrupted", sim.now))

        first = sim.process(consumer("first"))
        sim.process(consumer("second"))

        def interrupt_then_put():
            first.interrupt()
            store.try_put("pkt")

        sim.schedule(10, interrupt_then_put)
        sim.run()
        assert seen == [("first", "interrupted", 10),
                        ("second", "pkt", 10)]
        assert not store.items

    def test_ring_keeps_descriptor_for_salvage(self, sim):
        """The data-plane shape: a descriptor enqueued on a VM ring in
        the ns the VM's kill is queued stays in the ring to drain."""
        ring = RingBuffer(sim, name="vm/rx", slots=4)
        seen = []

        def vm_loop():
            try:
                while True:
                    seen.append((yield ring.get()))
            except Interrupt:
                seen.append("killed")

        vm = sim.process(vm_loop())

        def crash_then_enqueue():
            vm.interrupt("crash")
            assert ring.try_enqueue("descriptor")

        sim.schedule(10, crash_then_enqueue)
        sim.run()
        assert seen == ["killed"]
        assert ring.enqueued == 1
        assert ring.drain() == ["descriptor"]

    def test_parked_getter_leaves_the_store(self, sim):
        store = Store(sim)

        def consumer():
            try:
                yield store.get()
            except Interrupt:
                pass

        process = sim.process(consumer())
        sim.schedule(10, lambda: process.interrupt())
        sim.schedule(20, lambda: store.try_put("kept"))
        sim.run()
        assert list(store.items) == ["kept"]
        assert not store._getters
