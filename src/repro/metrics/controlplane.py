"""Control-plane observability: per-shard load and the reactive miss rate.

The two quantities the distributed control plane is supposed to move
(Figs. 1 and 10): how hard each controller shard works — utilization and
queue depth over time — and what fraction of flow setups still take the
reactive slow path once proactive pre-population covers the rest.

Attach a monitor to a :class:`~repro.control.plane.ControlPlane` and
the hosts whose miss classifiers feed the rate::

    monitor = ControlPlaneMonitor(sim, plane, hosts=app.hosts.values())
    monitor.start(interval_ns=1 * MS)
    sim.run(until=...)
    print(counters_table("control plane", monitor.summary()))
"""

from __future__ import annotations

import typing

from repro.metrics.timeseries import TimeSeries
from repro.sim.simulator import Simulator
from repro.sim.units import MS

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.control.plane import ControlPlane


def aggregate_miss_rate(hosts: typing.Iterable[typing.Any]
                        ) -> tuple[float, int, int]:
    """Network-wide ``(miss_rate, reactive_misses, flow_setups)`` over
    the hosts' miss classifiers (:class:`HostStats`)."""
    misses = 0
    setups = 0
    for host in hosts:
        stats = host.stats if hasattr(host, "stats") else host
        misses += stats.reactive_misses
        setups += stats.flow_setups()
    return (misses / setups if setups else 0.0), misses, setups


class ControlPlaneMonitor:
    """Periodic sampler: per-shard utilization/queue-depth timeseries
    plus the aggregate reactive-miss-rate series."""

    def __init__(self, sim: Simulator, plane: ControlPlane,
                 hosts: typing.Iterable[typing.Any] = ()) -> None:
        self.sim = sim
        self.plane = plane
        self.hosts = list(hosts)
        self._shards = plane.shards
        count = len(self._shards)
        self.utilization = [TimeSeries(f"shard{i}/utilization")
                            for i in range(count)]
        self.queue_depth = [TimeSeries(f"shard{i}/queue_depth")
                            for i in range(count)]
        self.miss_rate = TimeSeries("reactive_miss_rate")
        self._last_ns = sim.now
        self._last_busy = [shard.stats.busy_ns for shard in self._shards]

    def start(self, interval_ns: int = 1 * MS) -> ControlPlaneMonitor:
        if interval_ns <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim.process(self._loop(interval_ns))
        return self

    def _loop(self, interval_ns: int):
        while True:
            yield self.sim.sleep(interval_ns)
            self.sample()

    def sample(self) -> None:
        """Take one sample now (the loop calls this; tests may too)."""
        now = self.sim.now
        window = now - self._last_ns
        for index, shard in enumerate(self._shards):
            busy = shard.stats.busy_ns
            if window > 0:
                self.utilization[index].append(
                    now, (busy - self._last_busy[index]) / window)
            self._last_busy[index] = busy
            self.queue_depth[index].append(now, shard.queue_depth)
        rate, _misses, _setups = aggregate_miss_rate(self.hosts)
        self.miss_rate.append(now, rate)
        self._last_ns = now

    def summary(self) -> dict[str, int | float]:
        """Scalar rollup for :func:`repro.metrics.reporting.
        counters_table`: final miss rate, setup totals, and per-shard
        load."""
        rate, misses, setups = aggregate_miss_rate(self.hosts)
        out: dict[str, int | float] = {
            "reactive_miss_rate": rate,
            "reactive_misses": misses,
            "flow_setups": setups,
        }
        for index, shard in enumerate(self._shards):
            out[f"shard{index}_requests"] = shard.stats.requests
            out[f"shard{index}_queue_depth"] = shard.queue_depth
            out[f"shard{index}_max_queue"] = shard.stats.max_queue
            out[f"shard{index}_utilization"] = (
                shard.stats.utilization(self.sim.now))
        return out
