"""A bounded FIFO store with blocking put/get, for inter-process queues.

Every hand-off wakes its process directly: a blocking ``get``/``put``
pushes a bare ``(when, seq, process._wake, value)`` heap entry (or parks
the calling process in the store) and returns
:data:`~repro.sim.events.DIRECT`, so moving an item between processes
allocates no Event.
"""

from __future__ import annotations

import collections
import typing
from heapq import heappush as _heappush

from repro.sim.events import DIRECT

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Process
    from repro.sim.simulator import Simulator

_OUTSIDE_PROCESS = "a store's get/put needs a running process"


class Store:
    """Bounded FIFO channel between simulation processes.

    ``put(item)`` and ``get()`` are yielded at once by the running
    process that calls them::

        yield store.put(item)      # blocks while full
        item = yield store.get()   # blocks while empty

    Calling them outside a running process raises ``RuntimeError``.
    Non-blocking variants ``try_put`` / ``try_get`` return success/None
    immediately and work from anywhere — these model drop-on-full ring
    buffers.
    """

    # Stores sit on the per-packet path (NIC rings, VM rings, TX queues):
    # slotted so a busy host's queues never pay per-instance dict costs.
    __slots__ = ("sim", "capacity", "items", "_getters", "_putters")

    def __init__(self, sim: Simulator,
                 capacity: int | float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: collections.deque = collections.deque()
        # Parked getter Processes and (putter Process, item) pairs.
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
        process = self.sim._active_process
        if process is None:
            raise RuntimeError(_OUTSIDE_PROCESS)
        items = self.items
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

    def get(self) -> typing.Any:
        process = self.sim._active_process
        if process is None:
            raise RuntimeError(_OUTSIDE_PROCESS)
        process._target = self
        items = self.items
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

    def _admit_putter(self) -> None:
        """Move the oldest blocked put into the store and wake its putter."""
        putter, item = self._putters.popleft()
        self.items.append(item)
        putter._target = None
        self._wake(putter, None)

    # ------------------------------------------------------------------
    # Interrupted waits
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
            sim = self.sim
            _heappush(sim._queue, (sim.now, sim._sequence,
                                   self._getters.popleft()._wake, item))
            sim._sequence += 1
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
