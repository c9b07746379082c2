"""A bounded FIFO store with blocking put/get, for inter-process queues."""

from __future__ import annotations

import collections
import typing
from heapq import heappush as _heappush

from repro.sim.events import DIRECT, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Process
    from repro.sim.simulator import Simulator

_OUTSIDE_PROCESS = "a direct store's get/put needs a running process"


class Store:
    """Bounded FIFO channel between simulation processes.

    ``put(item)`` and ``get()`` return something a process yields::

        yield store.put(item)      # blocks while full
        item = yield store.get()   # blocks while empty

    Non-blocking variants ``try_put`` / ``try_get`` return success/None
    immediately — these model drop-on-full ring buffers.

    By default ``put``/``get`` return events any caller may keep, race
    in a condition or wait on later.  ``direct=True`` is for *internal*
    stores (NIC RX rings, VM rings, TX queues) whose ``get``/``put``
    results are yielded at once by the calling process: they schedule a
    bare wake entry that resumes that process directly (or park the
    process in the store) and return
    :data:`~repro.sim.events.DIRECT`, so a hand-off allocates no Event.
    Calling them outside a running process raises ``RuntimeError``.
    """

    # Stores sit on the per-packet path (NIC rings, VM rings, TX queues):
    # slotted so a busy host's queues never pay per-instance dict costs.
    __slots__ = ("sim", "capacity", "direct", "items", "_getters",
                 "_putters")

    def __init__(self, sim: Simulator,
                 capacity: int | float = float("inf"),
                 direct: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.direct = direct
        self.items: collections.deque = collections.deque()
        # Waiting getters and (putter, item) pairs: Events, or the
        # parked Processes themselves on a direct store.
        self._getters: collections.deque = collections.deque()
        self._putters: collections.deque = collections.deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    # ------------------------------------------------------------------
    # Blocking interface
    # ------------------------------------------------------------------
    def _wake(self, process: Process, value: typing.Any) -> None:
        sim = self.sim
        _heappush(sim._queue, (sim.now, sim._sequence, process._wake, value))
        sim._sequence += 1

    def put(self, item: typing.Any) -> typing.Any:
        # Hand-off checks are inlined (instead of calling the private
        # helpers) because put/get/try_put are the busiest calls in the
        # whole simulator — one per packet per pipeline stage.
        items = self.items
        if self.direct:
            process = self.sim._active_process
            if process is None:
                raise RuntimeError(_OUTSIDE_PROCESS)
            if self._getters and not items:
                self._wake(self._getters.popleft(), item)
            elif len(items) < self.capacity:
                items.append(item)
            else:
                process._target = self
                self._putters.append((process, item))
                return DIRECT
            process._target = None
            self._wake(process, None)
            return DIRECT
        event = Event(self.sim)
        if self._getters and not items:
            getter = self._pop_live_getter()
            if getter is not None:
                getter.succeed(item)
                event.succeed()
                return event
        if len(items) < self.capacity:
            items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> typing.Any:
        items = self.items
        if self.direct:
            process = self.sim._active_process
            if process is None:
                raise RuntimeError(_OUTSIDE_PROCESS)
            process._target = self
            if items:
                sim = self.sim
                _heappush(sim._queue, (sim.now, sim._sequence, process._wake,
                                       items.popleft()))
                sim._sequence += 1
                if self._putters and len(items) < self.capacity:
                    self._admit_putter()
            else:
                self._getters.append(process)
            return DIRECT
        event = Event(self.sim)
        if items:
            event.succeed(items.popleft())
            if self._putters and len(items) < self.capacity:
                self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        """Move the oldest blocked put into the store and wake its putter."""
        putter, item = self._putters.popleft()
        self.items.append(item)
        if self.direct:
            putter._target = None
            self._wake(putter, None)
        else:
            putter.succeed()

    def _pop_live_getter(self) -> Event | None:
        """Next getter event that still has a subscriber.

        A get event whose callbacks emptied out belongs to a process that
        was interrupted while waiting; delivering an item to it would
        lose the item silently.
        """
        while self._getters:
            getter = self._getters.popleft()
            if getter.callbacks:  # None (processed) is impossible here
                return getter
        return None

    # ------------------------------------------------------------------
    # Interrupted direct waits
    # ------------------------------------------------------------------
    def _abandon(self, process: Process) -> bool:
        """Unpark an interrupted process; False if it was not parked
        here (its get's hand-off is already scheduled)."""
        try:
            self._getters.remove(process)
            return True
        except ValueError:
            pass
        for index, (putter, _item) in enumerate(self._putters):
            if putter is process:
                # The abandoned put never enters the store.
                del self._putters[index]
                return True
        return False

    def _give_back(self, item: typing.Any) -> None:
        """Return an item whose hand-off an interrupt cancelled: to the
        next parked getter, else to the head of the store."""
        if self._getters and not self.items:
            self._wake(self._getters.popleft(), item)
        else:
            self.items.appendleft(item)

    # ------------------------------------------------------------------
    # Non-blocking interface
    # ------------------------------------------------------------------
    def try_put(self, item: typing.Any) -> bool:
        """Insert if not full.  Returns False (drop) when full."""
        items = self.items
        if self._getters and not items:
            if self.direct:
                sim = self.sim
                _heappush(sim._queue, (sim.now, sim._sequence,
                                       self._getters.popleft()._wake, item))
                sim._sequence += 1
                return True
            getter = self._pop_live_getter()
            if getter is not None:
                getter.succeed(item)
                return True
        if len(items) >= self.capacity:
            return False
        items.append(item)
        return True

    def try_get(self) -> typing.Any | None:
        """Remove and return the head item, or None when empty."""
        items = self.items
        if not items:
            return None
        item = items.popleft()
        if self._putters and len(items) < self.capacity:
            self._admit_putter()
        return item
