"""The event loop: an integer-nanosecond discrete-event scheduler.

Every heap entry has one shape, ``(when, seq, fn, arg)``, and the loop
runs each as ``fn(arg)``:

- a triggered :class:`~repro.sim.events.Event` is
  ``(when, seq, _fire, event)``, which runs the event's callbacks;
- :meth:`Simulator.call_later` (the ``rte_timer`` analogue) pushes its
  own ``fn`` for wakeups and deferred callbacks nobody waits on;
- direct process wakes — :meth:`Simulator.sleep`, store hand-offs,
  process starts and interrupts — carry a bound method of the process
  they resume.

Entries never compare past the sequence number (it is unique).  Every
push consumes the same sequence counter, so timestamp tie-breaks stay
globally FIFO; ``events_scheduled`` counts the entries pushed and
``timers_scheduled`` only the :meth:`Simulator.call_later` share.

Not every wait is an entry.  When a sleep's wake (or a store ``get``
that finds an item, at the current time) is strictly earlier than every
queued entry and than the ``run`` horizon, and nothing else runs in the
current entry after the process, the pushed wake would be the very next
thing to run, so the kernel resumes the process in place instead: it
moves ``now`` to the wake time and sends the process its value from the
same resume, pushing nothing.  An entry at the same nanosecond has a
lower sequence number and still runs first, so the order of everything
that happens is the same as with the push.  The last condition is
:func:`~repro.sim.events._fire`'s: it lowers the horizon while it runs
every callback of an event but the last, so a process resumed by a
shared event never runs on past the subscribers after it.
``run(until=event)`` resumes nothing in place, so it never runs a
process past the event.
"""

from __future__ import annotations

import heapq
import typing

from repro.sim.events import (
    _IN_PLACE,
    _NO_HORIZON,
    DIRECT,
    Event,
    Process,
    Timeout,
    _fire,
)


def _invoke(callback: typing.Callable[[], None]) -> None:
    callback()


#: ``run(until=None)``'s horizon: later than any simulated time.
_FOREVER = 1 << 63


class Simulator:
    """Deterministic discrete-event scheduler.

    Events scheduled for the same timestamp fire in the order they were
    scheduled (FIFO tie-break via a monotonically increasing sequence
    number), which keeps runs reproducible.
    """

    def __init__(self) -> None:
        self.now: int = 0
        # (when, seq, fn, arg) entries; the loop runs fn(arg).
        self._queue: list[tuple] = []
        self._sequence = 0
        self._active_process: Process | None = None
        # Wakes strictly earlier than this resume in place (see the
        # module docstring).  _in_place holds the value of the last one,
        # which the running process is sent at once.
        self._horizon = _NO_HORIZON
        self._in_place: typing.Any = None
        #: Bare timers pushed through :meth:`call_later` (subset of
        #: :attr:`events_scheduled`).
        self.timers_scheduled = 0
        #: Lazily-cancelled events whose heap entry was discarded
        #: unprocessed.
        self.events_cancelled = 0

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: typing.Any = None) -> Timeout:
        """Create an event firing ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: int) -> typing.Any:
        """Suspend the calling process for ``delay`` ns: ``yield
        sim.sleep(delay)``.

        Pushes a bare wake entry that resumes the process directly, with
        no Event object, and returns :data:`~repro.sim.events.DIRECT`.
        When the wake is due before every queued entry and the ``run``
        horizon, it pushes nothing and returns a private marker that
        resumes the process in place.  The process must yield either at
        once.  Only a running process may sleep; use :meth:`timeout`
        when the caller needs the event object itself.
        """
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay}")
        process = self._active_process
        if process is None:
            raise RuntimeError("sleep() outside a running process")
        process._target = None
        when = self.now + int(delay)
        queue = self._queue
        # The in-place rule.  Store.get applies the same test inline
        # (with ``when == now``) for speed: keep the two identical.
        if queue and queue[0][0] <= when or when >= self._horizon:
            heapq.heappush(queue, (when, self._sequence, process._wake, None))
            self._sequence += 1
            return DIRECT
        self.now = when
        self._in_place = None
        return _IN_PLACE

    def process(self, generator: typing.Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    @property
    def events_scheduled(self) -> int:
        """Total heap entries ever pushed — the kernel-work odometer.

        Counts every entry: triggered Events, bare ``call_later`` timers
        (also broken out in :attr:`timers_scheduled`) and direct process
        wakes.  A wake resumed in place is not an entry and is not
        counted, and whether a wake can resume in place depends on the
        ``run`` horizon, so the count depends on where a driver puts its
        ``run(until=...)`` calls.  Batching ablations divide this by
        packets moved to get "kernel events per packet", the
        simulator-side analogue of per-packet event-dispatch overhead in
        the real NF Manager.
        """
        return self._sequence

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue,
                       (self.now + int(delay), self._sequence, _fire, event))
        self._sequence += 1

    def call_later(self, delay: int, fn: typing.Callable[[typing.Any], None],
                   arg: typing.Any = None) -> None:
        """Run ``fn(arg)`` after ``delay`` ns — a bare timer.

        The ``rte_timer`` analogue: no Event object, no callback list,
        just a ``(when, seq, fn, arg)`` heap entry.  Use it for wakeups
        nobody waits on (poll loops, heartbeats, deferred hand-offs); use
        :meth:`timeout` when the result must be awaitable.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue,
                       (self.now + int(delay), self._sequence, fn, arg))
        self._sequence += 1
        self.timers_scheduled += 1

    def schedule(self, delay: int,
                 callback: typing.Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` ns (:meth:`call_later`
        convenience)."""
        self.call_later(delay, _invoke, callback)

    def peek(self) -> int | None:
        """Timestamp of the next event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def run(self, until: int | Event | None = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until no events remain,
        - an ``int``: run until the clock reaches that timestamp (events at
          exactly ``until`` do not fire; ``now`` is left at ``until``),
        - an :class:`Event`: run until that event has been processed and
          return its value.  No wake resumes in place in such a run, so
          it returns at the event's time with every process waiting.
        """
        queue = self._queue
        pop = heapq.heappop
        now = self.now
        if isinstance(until, Event):
            while not until.processed:
                if not queue:
                    raise RuntimeError(
                        "simulation ran out of events before the awaited "
                        "event triggered")
                entry = pop(queue)
                when = entry[0]
                if when < now:
                    raise AssertionError("time went backwards")
                self.now = now = when
                entry[2](entry[3])
            return until.value
        deadline = None if until is None else int(until)
        if deadline is not None and deadline < now:
            raise ValueError(f"until={deadline} is in the past "
                             f"(now={now})")
        limit = _FOREVER if deadline is None else deadline
        self._horizon = limit
        try:
            while queue:
                entry = pop(queue)
                when = entry[0]
                if when >= limit:
                    # Past the horizon: put it back (the heap's pop order
                    # depends only on the unique (when, seq) keys).
                    heapq.heappush(queue, entry)
                    break
                if when < now:
                    raise AssertionError("time went backwards")
                self.now = now = when
                entry[2](entry[3])
        finally:
            self._horizon = _NO_HORIZON
        if deadline is not None:
            self.now = deadline
        return None
