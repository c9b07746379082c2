"""Differential oracle for in-place resumes.

``run()`` lets a wake that is due strictly before every queued entry
resume its process in place; ``run(until=event)`` never does.  A random
network of processes that sleep (zero delays included), hand items
through stores, arm ``call_later`` timers, wait together on shared
events that timers fire, and interrupt each other must therefore leave
one and the same trace under both, and ``run()`` may push no more heap
entries than the run that resumes nothing in place.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Store
from repro.sim.events import Interrupt

STORES = 2
SHARED = 2
#: Every process still alive by then is stopped, so a get that no
#: producer serves cannot keep ``done`` waiting.
LATE = 10_000
STOP = "stop"

_STEP = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 3)),
    st.tuples(st.just("get"), st.integers(0, STORES - 1)),
    st.tuples(st.just("put"), st.integers(0, STORES - 1)),
    st.tuples(st.just("timer"), st.integers(0, 3),
              st.integers(0, STORES - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    st.tuples(st.just("wait"), st.integers(0, SHARED - 1)),
)

NETWORKS = st.fixed_dictionaries({
    "capacities": st.lists(st.sampled_from([1, 2, math.inf]),
                           min_size=STORES, max_size=STORES),
    # When a call_later timer fires each shared event.
    "fires": st.lists(st.integers(0, 6), min_size=SHARED,
                      max_size=SHARED),
    "scripts": st.lists(st.lists(_STEP, max_size=8), min_size=1,
                        max_size=4),
})


def run_network(network: dict, until_done: bool) -> tuple[list, int]:
    """Build ``network`` on a fresh kernel, run it, and return its trace
    and ``events_scheduled`` as of the moment ``done`` is processed."""
    sim = Simulator()
    stores = [Store(sim, capacity=capacity)
              for capacity in network["capacities"]]
    shared = [sim.event() for _ in range(SHARED)]
    for key, (event, delay) in enumerate(zip(shared, network["fires"],
                                             strict=True)):
        sim.call_later(delay, event.succeed, f"e{key}")
    trace: list[tuple] = []
    procs: list = []
    started: set[int] = set()

    def actor(me: int, script: list[tuple]):
        started.add(me)
        name = f"p{me}"
        for index, step in enumerate(script):
            kind = step[0]
            try:
                if kind == "sleep":
                    value = yield sim.sleep(step[1])
                elif kind == "get":
                    value = yield stores[step[1]].get()
                elif kind == "wait":
                    value = yield shared[step[1]]
                elif kind == "put":
                    value = stores[step[1]].try_put(f"{name}.{index}")
                elif kind == "timer":
                    sim.call_later(step[1], stores[step[2]].try_put,
                                   f"{name}.{index}")
                    value = None
                else:
                    target = step[1] % len(procs)
                    # An unstarted generator cannot catch an interrupt.
                    if (target == me or target not in started
                            or not procs[target].is_alive):
                        value = "skip"
                    else:
                        procs[target].interrupt(f"{name}.{index}")
                        value = f"p{target}"
            except Interrupt as interrupt:
                trace.append((sim.now, name, index, "interrupted",
                              interrupt.cause))
                if interrupt.cause == STOP:
                    return
                continue
            trace.append((sim.now, name, index, kind, value))

    for me, script in enumerate(network["scripts"]):
        procs.append(sim.process(actor(me, script)))

    def stop_all(_arg) -> None:
        for proc in procs:
            if proc.is_alive:
                proc.interrupt(STOP)

    sim.call_later(LATE, stop_all)

    def waiter():
        for proc in procs:
            yield proc

    done = sim.process(waiter())
    # Entries pushed by the time every process is done: under run(), a
    # shared event's timer may still fire (and push) after that.
    entries: list[int] = []
    done.callbacks.append(lambda _: entries.append(sim.events_scheduled))
    if until_done:
        sim.run(until=done)
    else:
        sim.run()
    assert done.ok
    return trace, entries[0]


@settings(max_examples=300, deadline=None)
@given(NETWORKS)
# A lone sleeper: every sleep resumes in place under run().
@example({"capacities": [1, 1], "fires": [0, 0],
          "scripts": [[("sleep", 2), ("sleep", 0)]]})
# A producer and a consumer meeting at the same nanosecond.
@example({"capacities": [1, math.inf], "fires": [0, 0],
          "scripts": [[("get", 0), ("get", 0), ("sleep", 0)],
                      [("put", 0), ("put", 0), ("interrupt", 0),
                       ("sleep", 1), ("put", 0)]]})
# Two processes wait on one event: the first to resume sleeps, and the
# second must still see the event's time.
@example({"capacities": [1, 1], "fires": [1, 0],
          "scripts": [[("wait", 0), ("sleep", 5)], [("wait", 0)]]})
def test_in_place_resumes_keep_the_trace(network):
    trace, entries = run_network(network, until_done=False)
    reference, reference_entries = run_network(network, until_done=True)
    assert trace == reference
    assert entries <= reference_entries


def test_a_lone_sleeper_pushes_fewer_entries():
    """The oracle compares two different dispatch paths: on a lone
    sleeper, ``run()`` really does push fewer entries."""
    network = {"capacities": [1, 1], "fires": [0, 0],
               "scripts": [[("sleep", 1), ("sleep", 2), ("sleep", 0)]]}
    _trace, entries = run_network(network, until_done=False)
    _reference, reference_entries = run_network(network, until_done=True)
    assert entries < reference_entries
