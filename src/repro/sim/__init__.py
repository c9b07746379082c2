"""Discrete-event simulation kernel.

A small, deterministic, generator-based event kernel in the style of SimPy,
specialised for this project:

- the clock is an **integer nanosecond** counter (no float drift),
- events fired at the same timestamp are processed in FIFO schedule order,
- processes are plain generator functions that ``yield`` events, or
  ``sim.sleep(...)`` and store ``get`` results, which wake them directly
  (producers never block: a store's ``try_put`` wakes a parked getter).

Typical use::

    from repro.sim import Simulator, US

    sim = Simulator()

    def worker(sim):
        yield sim.sleep(5 * US)
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"
"""

from repro.sim.events import Event, Interrupt, Process, Timeout
from repro.sim.simulator import Simulator
from repro.sim.store import Store
from repro.sim.units import MS, NS, S, US, ns_to_seconds, seconds_to_ns

__all__ = [
    "Event",
    "Interrupt",
    "MS",
    "NS",
    "Process",
    "S",
    "Simulator",
    "Store",
    "Timeout",
    "US",
    "ns_to_seconds",
    "seconds_to_ns",
]
