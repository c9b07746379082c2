"""A POX-like SDN controller shard: single-threaded, queueing.

The paper uses POX, "a single threaded python application", deliberately —
its saturation is the phenomenon behind Fig. 1 and Fig. 10.  We model one
controller as a single-server FIFO queue with a configurable per-request
service time, plus symmetric channel propagation delay.  At idle the total
flow-setup round trip matches §5.1's measured 31 ms; under load, queueing
delay grows without bound — exactly the behaviour the experiments show.

:class:`SdnController` is one shard's server inside a
:class:`~repro.control.plane.ControlPlane`, the only controller object
hosts, the application, the fault injector and the metrics see.  Rule
content comes from a pluggable *northbound application* (usually the
:class:`~repro.core.app.SdnfvApp`) implementing ``rules_for(host, scope,
flow)``.  The controller serves only those flow-table misses: proactive
rules are installed by the application at deploy time, before traffic,
and never occupy its queue.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.openflow import PacketInMessage
from repro.dataplane.flow_table import FlowTableEntry
from repro.net.flow import FiveTuple
from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.sim.store import Store
from repro.sim.units import US


@dataclasses.dataclass
class ControllerStats:
    """Load counters for the controller."""

    requests: int = 0
    busy_ns: int = 0
    max_queue: int = 0
    failures: int = 0
    outages: int = 0

    def utilization(self, elapsed_ns: int) -> float:
        return self.busy_ns / elapsed_ns if elapsed_ns else 0.0


def _deliver(outcome: tuple[Event, typing.Any, Exception | None]) -> None:
    """Land a reply (or a northbound failure) at the host, unless the
    host's deadline already failed the request."""
    reply, value, error = outcome
    if reply.triggered:
        return
    if error is None:
        reply.succeed(value)
    else:
        reply.fail(error)


class _Job:
    """One unit of controller work: compute a result, then reply."""

    def __init__(self, compute: typing.Callable[[], typing.Any],
                 reply: Event) -> None:
        self.compute = compute
        self.reply = reply


class SdnController:
    """One controller shard: a single-threaded server with a FIFO queue."""

    def __init__(self, sim: Simulator,
                 service_time_ns: int = 500 * US,
                 propagation_ns: int = 15_250 * US,
                 northbound: typing.Any | None = None) -> None:
        if service_time_ns <= 0:
            raise ValueError("service time must be positive")
        self.sim = sim
        self.service_time_ns = service_time_ns
        self.propagation_ns = propagation_ns
        self.northbound = northbound
        self.stats = ControllerStats()
        self.down = False
        self._restored: Event | None = None
        self._queue = Store(sim)
        sim.process(self._serve())

    # ------------------------------------------------------------------
    # Outages (ControlPlane.set_down / ControlPlane.outage)
    # ------------------------------------------------------------------
    def set_down(self, down: bool) -> None:
        """Take the shard down / bring it back.  While down, requests
        still propagate and queue, but nothing serves them — hosts see
        unbounded response times (what their retry policies must absorb).
        """
        if down == self.down:
            return
        self.down = down
        if down:
            self._restored = self.sim.event()
        else:
            restored, self._restored = self._restored, None
            if restored is not None:
                restored.succeed()

    @property
    def idle_lookup_ns(self) -> int:
        """Flow-setup round trip with an empty queue (§5.1: 31 ms)."""
        return 2 * self.propagation_ns + self.service_time_ns

    @property
    def capacity_per_second(self) -> float:
        """Saturation request rate of the single server."""
        return 1e9 / self.service_time_ns

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def snapshot(self) -> dict[str, int | float | bool]:
        """Scalar load counters as primitives — one row of a control-
        plane report (:meth:`repro.control.plane.ControlPlane.snapshot`).
        """
        return {
            "requests": self.stats.requests,
            "busy_ns": self.stats.busy_ns,
            "utilization": self.stats.utilization(self.sim.now),
            "queue_depth": self.queue_depth,
            "max_queue": self.stats.max_queue,
            "failures": self.stats.failures,
            "outages": self.stats.outages,
            "down": self.down,
        }

    # ------------------------------------------------------------------
    # Southbound: hosts ask for rules on a flow-table miss
    # ------------------------------------------------------------------
    def flow_request(self, host: str, scope: str,
                     flow: FiveTuple) -> Event:
        """Submit a packet-in; the event fires with the rule list after the
        full round trip (propagation + queueing + service + propagation)."""
        message = PacketInMessage(host=host, scope=scope, flow=flow)
        return self._submit(lambda: self._rules_for(message))

    def _rules_for(self, message: PacketInMessage) -> list[FlowTableEntry]:
        if self.northbound is None:
            return []
        return list(self.northbound.rules_for(message.host, message.scope,
                                              message.flow))

    def submit_work(self, compute: typing.Callable[[], typing.Any]) -> Event:
        """Run arbitrary controller-resident work through the queue (used
        by SDN-baseline applications whose logic lives in the controller).
        """
        return self._submit(compute)

    # ------------------------------------------------------------------
    # The single-threaded server
    # ------------------------------------------------------------------
    def _submit(self, compute: typing.Callable[[], typing.Any]) -> Event:
        reply = self.sim.event()
        job = _Job(compute, reply)
        # Request propagation to the controller.
        self.sim.schedule(self.propagation_ns,
                          lambda: self._queue.try_put(job))
        return reply

    def _serve(self):
        while True:
            job: _Job = yield self._queue.get()
            while self.down:
                yield self._restored
            self.stats.max_queue = max(self.stats.max_queue,
                                       len(self._queue) + 1)
            yield self.sim.sleep(self.service_time_ns)
            self.stats.requests += 1
            self.stats.busy_ns += self.service_time_ns
            try:
                result = job.compute()
            except Exception as error:  # noqa: BLE001 - app fault isolation
                # A buggy northbound app must not kill the controller:
                # fail that one request and keep serving.
                self.stats.failures += 1
                outcome = (job.reply, None, error)
            else:
                outcome = (job.reply, result, None)
            # Reply propagation back to the host.
            self.sim.call_later(self.propagation_ns, _deliver, outcome)
