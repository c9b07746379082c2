"""Event primitives for the simulation kernel.

The kernel is callback-based at the bottom (:class:`Event`) with a
generator-based process layer on top (:class:`Process`).  A process is a
generator that yields events; when a yielded event fires, the process is
resumed with the event's value (or the event's exception is thrown into it).

Every heap entry has one shape, ``(when, seq, fn, arg)``.  A triggered
Event is the entry ``(when, seq, _fire, event)``, and :func:`_fire` runs
its callbacks.  Time waits and store hand-offs skip the Event layer
altogether: :meth:`Simulator.sleep` and a
:class:`~repro.sim.store.Store`'s ``get`` push
``(when, seq, process._wake, value)`` (or park the process until a
``try_put`` pushes it) and hand the process :data:`DIRECT` to yield,
so the wake resumes the generator with no Event, callback list or
dispatch in between.  When that wake would be the very next thing to
run (it is due strictly before every queued entry and the ``run``
horizon, and no other callback of the event being fired is still to
run), no entry is pushed at all: the call holds the value on the simulator and
returns ``_IN_PLACE`` instead, and the :meth:`Process._wake` or
:meth:`Process._throw` that is running the process sends the value on
as soon as the process yields it, with the process's target ``None``
and no wake entry for an interrupt to cancel.  Process starts,
interrupts and resumes on already-processed events are bare entries
too.  An interrupt detaches whatever wait it abandons: a subscribed
event loses the process's callback (and a timeout nobody else watches
is lazily cancelled so :func:`_fire` discards it unprocessed), a parked
getter leaves its store, and a pending wake entry is overwritten in
place by a no-op entry with the same ``(when, seq)``.

A process waits on one thing at a time; the kernel has no composite
events.  A bounded wait yields the awaited event itself and lets a
bare :meth:`~repro.sim.simulator.Simulator.call_later` timer fail it if
it is still pending at the deadline, as the NF Manager does for each
flow request under a ``ControlPlanePolicy``.

Every event class carries ``__slots__`` (lint rule SIM003 checks it).
"""

from __future__ import annotations

import typing
from heapq import heappush as _heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class _DirectWait:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<direct wait>"


#: What :meth:`Simulator.sleep` and a store's ``get`` return
#: for the calling process to yield at once: its wake entry is already
#: in the heap (or it is parked in the store), so the process
#: subscribes to nothing.
DIRECT = _DirectWait()

#: What they return instead when the wake resumes in place: the process
#: that yields it is sent the simulator's ``_in_place`` at once.
_IN_PLACE = _DirectWait()


#: The simulator's ``_horizon`` outside ``run(until=int|None)``, and
#: while :func:`_fire` runs any callback but an event's last: no wake is
#: earlier, so nothing resumes in place.
_NO_HORIZON = -1


def _noop(_arg: typing.Any) -> None:
    """Stands in for a wake entry an interrupt abandoned."""


def _fire(event: Event) -> None:
    """Run a triggered event's callbacks, or discard its heap entry if
    it was lazily cancelled and nobody re-subscribed."""
    callbacks = event.callbacks
    if event._cancelled and not callbacks:
        event.sim.events_cancelled += 1
        return
    event.callbacks = None
    last = len(callbacks) - 1
    if last > 0:
        # The callbacks after this one run in the same entry, so a
        # process resumed here must not run on in place past them.
        sim = event.sim
        horizon, sim._horizon = sim._horizon, _NO_HORIZON
        try:
            for index in range(last):
                callbacks[index](event)
        finally:
            sim._horizon = horizon
    if last >= 0:
        callbacks[last](event)
    if event._exception is not None and not event._defused:
        raise event._exception


class Event:
    """A one-shot occurrence with a value and subscriber callbacks.

    Lifecycle: *pending* → *triggered* (scheduled into the event queue) →
    *processed* (callbacks ran).  An event may succeed with a value or fail
    with an exception; failing events propagate their exception into any
    process that waits on them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_defused",
                 "_cancelled")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.callbacks: list[typing.Callable[[Event], None]] | None = []
        self._value: typing.Any = _PENDING
        self._exception: BaseException | None = None
        # Failures must either be waited on or explicitly defused, mirroring
        # "errors should never pass silently".
        self._defused = False
        # Lazy cancellation: a triggered event nobody listens to anymore
        # (a timeout abandoned by an interrupt) is skipped, not run.
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a result and is scheduled (or processed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> typing.Any:
        """The event's value (or raises its failure exception)."""
        if self._value is _PENDING:
            raise RuntimeError("event is not yet triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: typing.Any = None) -> Event:
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self.sim._enqueue(self)
        return self

    def fail(self, exception: BaseException) -> Event:
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = None
        self._exception = exception
        self.sim._enqueue(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise it."""
        self._defused = True

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: int,
                 value: typing.Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = int(delay)
        self._value = value
        sim._enqueue(self, delay=self.delay)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> typing.Any:
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator and drives it through the events it yields.

    The process *is* an event: it triggers when the generator returns
    (succeeding with the return value) or raises (failing with the
    exception).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: Simulator,
                 generator: typing.Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        # What the process waits on: an Event it subscribed to, a Store
        # it is parked in or whose hand-off to it is pending, or None (a
        # pending wake entry).
        self._target: typing.Any = None
        # Kick off the process with a bare wake entry.
        _heappush(sim._queue, (sim.now, sim._sequence, self._wake, None))
        sim._sequence += 1

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: typing.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        sim = self.sim
        if sim._active_process is self:
            raise RuntimeError("a process cannot interrupt itself")
        _heappush(sim._queue, (sim.now, sim._sequence, self._interrupted,
                               Interrupt(cause)))
        sim._sequence += 1

    def _interrupted(self, interrupt: Interrupt) -> None:
        """Deliver an interrupt: first detach from the abandoned wait so
        its later completion cannot mis-resume this process."""
        if self.triggered:
            return
        target, self._target = self._target, None
        if isinstance(target, Event):
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:
                    pass
                if not callbacks and isinstance(target, Timeout):
                    # Nobody is left waiting: let the scheduler discard
                    # the entry instead of dispatching a dead timeout.
                    target._cancelled = True
        elif target is None or not target._abandon(self):
            item = self._cancel_wake()
            if target is not None and item is not _PENDING:
                # A get whose hand-off had not reached us yet: the item
                # goes back to the head of the store, not to nobody.
                target._give_back(item)
        self._throw(interrupt)

    def _cancel_wake(self) -> typing.Any:
        """Overwrite this process's pending wake entry with a no-op entry
        at the same ``(when, seq)``; return the value it carried (or
        ``_PENDING`` when there is none).  A process has at most one."""
        queue = self.sim._queue
        wake, throw = self._wake, self._throw
        for index, entry in enumerate(queue):
            if entry[2] == wake or entry[2] == throw:
                queue[index] = (entry[0], entry[1], _noop, None)
                return entry[3]
        return _PENDING

    def _wake(self, value: typing.Any) -> None:
        """Resume the generator with ``value`` (a bare wake entry), and
        again with each value a wait it yields resumes in place."""
        sim = self.sim
        sim._active_process = self
        generator = self._generator
        try:
            target = generator.send(value)
            while target is _IN_PLACE:
                target = generator.send(sim._in_place)
        except BaseException as exc:
            sim._active_process = None
            self._finish(exc)
            return
        sim._active_process = None
        if target is not DIRECT:
            self._wait(target)

    def _throw(self, exception: BaseException) -> None:
        """Throw ``exception`` into the generator (interrupts, failures)."""
        sim = self.sim
        sim._active_process = self
        try:
            target = self._generator.throw(exception)
        except BaseException as exc:
            sim._active_process = None
            self._finish(exc)
            return
        if target is _IN_PLACE:
            self._wake(sim._in_place)
            return
        sim._active_process = None
        if target is not DIRECT:
            self._wait(target)

    def _resume(self, event: Event) -> None:
        """Callback lane: the event this process subscribed to fired."""
        # A stale wakeup: the process already finished.
        if self._value is not _PENDING:
            return
        if event._exception is None:
            self._wake(event._value)
        else:
            # The waited-on event failed; the failure is now the
            # process's problem.
            event._defused = True
            self._throw(event._exception)

    def _finish(self, exc: BaseException) -> None:
        self._target = None
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        else:
            self.fail(exc)

    def _wait(self, event: typing.Any) -> None:
        """Wait on a yielded event: subscribe, or resume at once (by a
        bare entry at the current time) when it was already processed."""
        sim = self.sim
        if isinstance(event, Event):
            if event.sim is not sim:
                raise RuntimeError("process yielded an event from another "
                                   "simulator")
            callbacks = event.callbacks
            if callbacks is None:
                self._target = None
                if event._exception is None:
                    entry = (sim.now, sim._sequence, self._wake, event._value)
                else:
                    entry = (sim.now, sim._sequence, self._throw,
                             event._exception)
                _heappush(sim._queue, entry)
                sim._sequence += 1
            else:
                self._target = event
                callbacks.append(self._resume)
            return
        kind = type(event).__name__
        error = RuntimeError(
            f"process yielded a non-event ({kind}); yield sim.timeout() "
            "or another Event")
        try:
            self._generator.throw(error)
        except BaseException as exc:
            self.fail(exc)
            return
        # The generator swallowed the error and kept yielding; that is
        # a programming error we refuse to paper over.
        self.fail(error)
