"""Store semantics: FIFO, capacity, blocking, and property-based checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Store


@pytest.fixture
def store(sim):
    return Store(sim, capacity=3)


class TestBasics:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_put_then_get_fifo(self, sim, store):
        for item in (1, 2, 3):
            assert store.try_put(item)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        sim.process(consumer())
        sim.run()
        assert received == [1, 2, 3]

    def test_len_tracks_items(self, sim, store):
        assert len(store) == 0
        store.try_put("x")
        assert len(store) == 1
        store.try_get()
        assert len(store) == 0

    def test_try_put_drops_when_full(self, sim, store):
        assert all(store.try_put(i) for i in range(3))
        assert store.is_full
        assert not store.try_put(99)
        assert len(store) == 3

    def test_try_get_empty_returns_none(self, store):
        assert store.try_get() is None


class TestBlocking:
    def test_get_blocks_until_put(self, sim, store):
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        sim.process(consumer())

        def producer():
            yield sim.timeout(42)
            assert store.try_put("late")

        sim.process(producer())
        sim.run()
        assert got == [(42, "late")]

    def test_direct_handoff_preserves_getter_order(self, sim, store):
        received = []

        def consumer(tag):
            item = yield store.get()
            received.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1)
            store.try_put("a")
            store.try_put("b")

        sim.process(producer())
        sim.run()
        assert received == [("first", "a"), ("second", "b")]


class TestProperties:
    @given(ops=st.lists(
        st.one_of(st.tuples(st.just("put"), st.integers()),
                  st.tuples(st.just("get"), st.none())),
        max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_fifo_and_capacity_invariants(self, ops):
        """try_put/try_get behave exactly like a bounded deque."""
        import collections
        sim = Simulator()
        store = Store(sim, capacity=5)
        reference: collections.deque = collections.deque(maxlen=None)
        for op, value in ops:
            if op == "put":
                accepted = store.try_put(value)
                assert accepted == (len(reference) < 5)
                if accepted:
                    reference.append(value)
            else:
                item = store.try_get()
                expected = reference.popleft() if reference else None
                assert item == expected
            assert len(store) == len(reference) <= 5

    @given(items=st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_everything_put_is_got_in_order(self, items):
        sim = Simulator()
        store = Store(sim, capacity=len(items))
        received = []

        def producer():
            for item in items:
                assert store.try_put(item)
                yield sim.timeout(1)

        def consumer():
            for _ in items:
                item = yield store.get()
                received.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == items
