"""The control plane: N controller shards partitioned over flow space.

The paper deliberately bottlenecks flow setup on one single-threaded POX
controller (Figs. 1 and 10); ``shards=1`` is that controller.
Dragonflow-style distribution is the escape hatch: split the controller
into *shards*, each a :class:`~repro.control.controller.SdnController`
with its own FIFO queue, capacity, and outage state, and partition the
work:

- **Reactive requests** (table-miss ``PacketInMessage``) route by flow:
  ``FiveTuple.hash_bucket(n_shards)`` names the owning shard, so one
  flow's setup always serializes through one queue while distinct flows
  spread over all shards — aggregate setup capacity scales with the
  shard count.
- **Proactive covers** never reach the plane: the SDNFV Application
  installs them at deploy time, so a full proactive cover leaves every
  shard's request counter at zero.

:class:`ControlPlane` is the one controller object hosts
(``NfManager.controller``), the application (``SdnfvApp(controller=)``),
the fault injector, the baselines and the metrics take; ``shards`` is
its one capacity knob.  ``shards=1`` delegates every call to its one
shard unchanged (pinned by the control-plane parity suite).

With ``failover=True`` (default), requests owned by a downed shard are
absorbed by the next live shard in ring order — the surviving shards
cover the dead shard's flow-space, so a :class:`ControllerOutage` on one
shard no longer stalls flows owned by the others.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.control.controller import SdnController
from repro.net.flow import FiveTuple
from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.sim.units import US


@dataclasses.dataclass
class ControlPlaneStats:
    """Plane-level counters (per-shard load lives in each shard's
    :class:`~repro.control.controller.ControllerStats`)."""

    failovers: int = 0
    outages: int = 0


class ControlPlane:
    """N controller shards behind one request interface.

    ``flow_request`` / ``submit_work`` route to a shard and return that
    shard's reply event; ``northbound`` fans out to every shard;
    ``shards[i]`` is shard ``i``'s server and load counters.
    """

    def __init__(self, sim: Simulator, shards: int = 1,
                 service_time_ns: int = 500 * US,
                 propagation_ns: int = 15_250 * US,
                 northbound: typing.Any | None = None,
                 failover: bool = True,
                 event_log: typing.Any | None = None) -> None:
        if shards < 1:
            raise ValueError("need at least one controller shard")
        self.sim = sim
        self.service_time_ns = service_time_ns
        self.propagation_ns = propagation_ns
        self.failover = failover
        self.event_log = event_log
        self.stats = ControlPlaneStats()
        self._northbound = northbound
        self.shards: tuple[SdnController, ...] = tuple(
            SdnController(sim, service_time_ns=service_time_ns,
                          propagation_ns=propagation_ns,
                          northbound=northbound)
            for _ in range(shards))

    # ------------------------------------------------------------------
    # Plane-wide view
    # ------------------------------------------------------------------
    @property
    def northbound(self) -> typing.Any | None:
        return self._northbound

    @northbound.setter
    def northbound(self, app: typing.Any | None) -> None:
        self._northbound = app
        for shard in self.shards:
            shard.northbound = app

    @property
    def down(self) -> bool:
        """The plane is down only when *every* shard is down."""
        return all(shard.down for shard in self.shards)

    @property
    def idle_lookup_ns(self) -> int:
        return self.shards[0].idle_lookup_ns

    @property
    def capacity_per_second(self) -> float:
        """Aggregate saturation request rate across all shards."""
        return sum(shard.capacity_per_second for shard in self.shards)

    # ------------------------------------------------------------------
    # Flow-space partition
    # ------------------------------------------------------------------
    def owner_of(self, flow: FiveTuple) -> int:
        """The shard owning this flow's slice of flow space."""
        return flow.hash_bucket(len(self.shards))

    def _route(self, index: int) -> tuple[int, SdnController]:
        """Resolve an owner index to a live shard (ring failover)."""
        shard = self.shards[index]
        if not shard.down or not self.failover:
            return index, shard
        count = len(self.shards)
        for offset in range(1, count):
            candidate = (index + offset) % count
            if not self.shards[candidate].down:
                self.stats.failovers += 1
                self._log("shard_failover", shard=index, absorbed_by=candidate)
                return candidate, self.shards[candidate]
        return index, shard  # total outage: queue at the owner

    # ------------------------------------------------------------------
    # Southbound / northbound request routing
    # ------------------------------------------------------------------
    def flow_request(self, host: str, scope: str, flow: FiveTuple) -> Event:
        """Packet-in, routed to the flow's owning shard (or, during that
        shard's outage, absorbed by the next live shard)."""
        _index, shard = self._route(self.owner_of(flow))
        return shard.flow_request(host, scope, flow)

    def submit_work(self, compute: typing.Callable[[], typing.Any],
                    shard: int = 0) -> Event:
        """Controller-resident work pinned to one shard's queue."""
        return self.shards[shard].submit_work(compute)

    # ------------------------------------------------------------------
    # Outages (repro.faults.ControllerOutage, per shard or plane-wide)
    # ------------------------------------------------------------------
    def set_down(self, down: bool, shard: int | None = None) -> None:
        """Take one shard (or, with ``shard=None``, every shard) down or
        bring it back; transitions land in the event log for MTTR."""
        if shard is None:
            for index in range(len(self.shards)):
                self.set_down(down, shard=index)
            return
        controller = self.shards[shard]
        if controller.down == down:
            return
        controller.set_down(down)
        self._log("controller_shard_down" if down
                  else "controller_shard_restored", shard=shard)

    def outage(self, duration_ns: int, shard: int | None = None) -> None:
        """A bounded outage of one shard (or the whole plane)."""
        if duration_ns <= 0:
            raise ValueError("outage duration must be positive")
        if shard is None:
            for index in range(len(self.shards)):
                self.outage(duration_ns, shard=index)
            return
        self.stats.outages += 1
        self.shards[shard].stats.outages += 1
        self.set_down(True, shard=shard)
        self.sim.schedule(duration_ns,
                          lambda: self.set_down(False, shard=shard))

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def queue_depths(self) -> list[int]:
        return [shard.queue_depth for shard in self.shards]

    @property
    def requests(self) -> int:
        return sum(shard.stats.requests for shard in self.shards)

    def snapshot(self) -> dict[str, typing.Any]:
        """Per-shard load rows plus plane counters, as primitives."""
        return {
            "shards": [shard.snapshot() for shard in self.shards],
            "failovers": self.stats.failovers,
            "outages": self.stats.outages,
        }

    def _log(self, category: str, **detail: typing.Any) -> None:
        if self.event_log is not None:
            self.event_log.record(category, **detail)
