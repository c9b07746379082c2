"""A bounded FIFO store for inter-process queues: producers never block.

A producer's ``try_put`` drops the item when the store is full, like an
SPSC ring.  Only the consumer waits: a blocking ``get`` pushes a bare
``(when, seq, process._wake, value)`` heap entry (or parks the calling
process in the store) and returns :data:`~repro.sim.events.DIRECT`, and
a ``try_put`` to a parked getter pushes its wake the same way, so moving
an item between processes allocates no Event.  A ``get`` that finds an
item while no entry is queued for the current time (the ``run``
horizon is later, and no other callback of the current entry is still
to run) pushes nothing: its process resumes in place with the
item, as an early enough :meth:`~repro.sim.simulator.Simulator.sleep`
does.
"""

from __future__ import annotations

import collections
import typing
from heapq import heappush as _heappush

from repro.sim.events import _IN_PLACE, DIRECT

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Process
    from repro.sim.simulator import Simulator

_OUTSIDE_PROCESS = "a store's get needs a running process"


class Store:
    """Bounded FIFO channel between simulation processes.

    The consumer yields ``get()`` at once from the running process::

        item = yield store.get()   # blocks while empty

    Calling it outside a running process raises ``RuntimeError``.
    ``try_put`` / ``try_get`` return success/None immediately and work
    from anywhere: ``try_put`` drops on full, as a ring buffer does.
    """

    # Stores sit on the per-packet path (NIC rings, VM rings, TX queues):
    # slotted so a busy host's queues never pay per-instance dict costs.
    __slots__ = ("sim", "capacity", "items", "_getters")

    def __init__(self, sim: Simulator,
                 capacity: int | float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: collections.deque = collections.deque()
        # Parked getter Processes.
        self._getters: collections.deque = collections.deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    # ------------------------------------------------------------------
    # Blocking interface
    # ------------------------------------------------------------------
    def get(self) -> typing.Any:
        # Wake entries are pushed inline because get/try_put are the
        # busiest calls in the whole simulator — one per packet per
        # pipeline stage.
        sim = self.sim
        process = sim._active_process
        if process is None:
            raise RuntimeError(_OUTSIDE_PROCESS)
        items = self.items
        if not items:
            process._target = self
            self._getters.append(process)
            return DIRECT
        now = sim.now
        queue = sim._queue
        # Simulator.sleep's in-place rule, inlined for speed: keep the
        # two identical.
        if queue and queue[0][0] <= now or now >= sim._horizon:
            process._target = self
            _heappush(queue, (now, sim._sequence, process._wake,
                              items.popleft()))
            sim._sequence += 1
            return DIRECT
        # The hand-off would be the next pop: resume in place.
        process._target = None
        sim._in_place = items.popleft()
        return _IN_PLACE

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
            return False

    def _give_back(self, item: typing.Any) -> None:
        """Return an item whose hand-off an interrupt cancelled: to the
        next parked getter, else to the head of the store."""
        if self._getters and not self.items:
            sim = self.sim
            _heappush(sim._queue, (sim.now, sim._sequence,
                                   self._getters.popleft()._wake, item))
            sim._sequence += 1
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
        return items.popleft() if items else None
