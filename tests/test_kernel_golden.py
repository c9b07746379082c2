"""Golden digests of single-host fault runs that abandon kernel waits.

Each case runs one host under traffic and breaks it in one of the ways
the data plane can walk away from a wait it started:

- ``crash_mid_batch``: an ``NfCrash`` lands while the VM sleeps on a
  batch's service time;
- ``crash_parked_on_ring``: an ``NfCrash`` lands while the VM is parked
  on its empty RX ring, and traffic keeps landing in the dead ring;
- ``hang_watchdog_kill``: an ``NfHang`` wedges the VM on an event that
  never fires, the watchdog kills it and a standby process takes over;
- ``link_flap_egress``: the egress link goes down while frames are
  queued for the wire;
- ``controller_outage_policy``: the controller goes dark under a
  ``ControlPlanePolicy``, so each flow request's deadline timer fails
  its pending reply, the manager retries after backoff sleeps, and the
  replies that arrive after the outage are dropped.

Each case pins one SHA-256 over the kernel's three odometers
(``events_scheduled``, ``timers_scheduled``, ``events_cancelled``),
``HostStats.summary()``, the event log's ``(time, kind, host, service)``
records and the RTT samples, plus a few readable facts showing the case
reached its corner.  A second SHA-256, ``sha256_without_odometers``,
covers the same fields except ``events_scheduled`` and
``timers_scheduled``: a change that only removes kernel entries moves
the first digest and must leave the second alone.  A change to how the
kernel schedules, resumes or abandons a wait must reproduce every
digest exactly.  Regenerate (only for a deliberate behaviour change)
with::

    PYTHONPATH=src python -m tests.test_kernel_golden \\
        > tests/data/kernel_golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.control import ControlPlane, NfvOrchestrator
from repro.core import SdnfvApp, ServiceGraph
from repro.core.service_graph import EXIT
from repro.dataplane import ControlPlanePolicy, NfvHost, ToPort
from repro.faults import (
    ControllerOutage,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    NfCrash,
    NfHang,
)
from repro.metrics.eventlog import EventLog
from repro.net import FiveTuple
from repro.nfs import ComputeNf, NoOpNf
from repro.sim import MS, US, Simulator
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "data" / "kernel_golden.json")

#: Odometers that count kernel entries; ``sha256_without_odometers``
#: leaves them out.
ODOMETERS = ("events_scheduled", "timers_scheduled")

FLOW = FiveTuple("10.0.0.1", "10.0.0.2", 17, 5000, 5001)
SEED = 3
FAULT_NS = 20 * MS


def _failover_host(sim: Simulator, dpi_factory) -> tuple:
    """fw -> dpi on one host, with a standby-process failover for dpi."""
    controller = ControlPlane(sim, service_time_ns=100 * US,
                               propagation_ns=100 * US)
    app = SdnfvApp(sim, controller=controller,
                   orchestrator=NfvOrchestrator(sim))
    host = NfvHost(sim, name="h0", controller=controller, seed=SEED)
    app.register_host(host)
    log = EventLog(sim)
    app.attach_event_log(log)
    host.add_nf(NoOpNf("fw"))
    host.add_nf(dpi_factory())
    install_chain(host, ["fw", "dpi"])
    app.enable_failover(host, {"dpi": dpi_factory}, interval_ns=1 * MS,
                        heartbeat_timeout_ns=5 * MS,
                        mode="standby_process")
    return host, log


def _traffic(sim: Simulator, host: NfvHost, rate_mbps: float,
             stop_ns: int) -> PktGen:
    gen = PktGen(sim, host, seed=SEED)
    gen.add_flow(FlowSpec(flow=FLOW, rate_mbps=rate_mbps, packet_size=1000,
                          pacing="poisson", stop_ns=stop_ns))
    return gen


def _arm(sim: Simulator, host: NfvHost, fault, probe) -> dict:
    """Arm ``fault`` and sample ``probe()`` just before it fires."""
    facts: dict = {}
    # Scheduled before the injector arms, so it runs first at that ns.
    sim.schedule(fault.at_ns, lambda: facts.update(probe()))
    plan = FaultPlan(seed=SEED)
    plan.add(fault)
    FaultInjector(sim, plan, hosts=[host]).arm()
    return facts


def _dpi_state(host: NfvHost) -> dict:
    vm = host.manager.vms_by_service["dpi"][0]
    return {"dpi_busy": vm.inflight is not None,
            "dpi_ring": vm.rx_ring.occupancy}


def crash_mid_batch(sim: Simulator) -> tuple:
    host, log = _failover_host(
        sim, lambda: ComputeNf("dpi", cost_ns=70 * US, jitter_ns=20 * US))
    gen = _traffic(sim, host, rate_mbps=100.0, stop_ns=300 * MS)
    facts = _arm(sim, host, NfCrash(at_ns=FAULT_NS, service="dpi"),
                 lambda: _dpi_state(host))
    sim.run(until=320 * MS)
    return host, log, gen, facts


def crash_parked_on_ring(sim: Simulator) -> tuple:
    host, log = _failover_host(sim, lambda: NoOpNf("dpi"))
    gen = _traffic(sim, host, rate_mbps=10.0, stop_ns=300 * MS)
    facts = _arm(sim, host, NfCrash(at_ns=FAULT_NS, service="dpi"),
                 lambda: _dpi_state(host))
    sim.run(until=320 * MS)
    return host, log, gen, facts


def hang_watchdog_kill(sim: Simulator) -> tuple:
    host, log = _failover_host(sim, lambda: NoOpNf("dpi"))
    gen = _traffic(sim, host, rate_mbps=10.0, stop_ns=300 * MS)
    facts = _arm(sim, host, NfHang(at_ns=FAULT_NS, service="dpi"),
                 lambda: _dpi_state(host))
    sim.run(until=320 * MS)
    return host, log, gen, facts


def link_flap_egress(sim: Simulator) -> tuple:
    host = NfvHost(sim, name="h0", seed=SEED)
    log = EventLog(sim)
    host.manager.event_log = log
    host.add_nf(NoOpNf("fw"))
    install_chain(host, ["fw"])
    gen = _traffic(sim, host, rate_mbps=400.0, stop_ns=40 * MS)
    port = host.port("eth1")
    facts = _arm(sim, host,
                 LinkFlap(at_ns=FAULT_NS, port="eth1", down_ns=2 * MS),
                 lambda: {"link_up": port.link_up})
    sim.schedule(FAULT_NS + 2 * MS - 1, lambda: facts.update(
        {"egress_queued": len(port._tx_backlog)}))
    sim.run(until=50 * MS)
    return host, log, gen, facts


def controller_outage_policy(sim: Simulator) -> tuple:
    controller = ControlPlane(sim, service_time_ns=100 * US,
                               propagation_ns=500 * US)
    app = SdnfvApp(sim, controller=controller)
    host = NfvHost(sim, name="h0", controller=controller, seed=SEED,
                   control_policy=ControlPlanePolicy(
                       timeout_ns=2 * MS, max_attempts=3,
                       backoff_base_ns=1 * MS, backoff_cap_ns=2 * MS),
                   miss_fallback=ToPort("eth1"))
    app.register_host(host)
    log = EventLog(sim)
    app.attach_event_log(log)
    host.add_nf(NoOpNf("svc"))
    graph = ServiceGraph("g")
    graph.add_service("svc")
    graph.add_edge("svc", EXIT, default=True)
    graph.set_entry("svc")
    app.deploy(graph, proactive=False)
    # The first packet misses 1 ms into a 10 ms outage: three attempts
    # time out, the flow degrades to the fallback port, and the queued
    # requests are answered late once the controller returns.
    gen = PktGen(sim, host, seed=SEED)
    gen.add_flow(FlowSpec(flow=FLOW, rate_mbps=20.0, packet_size=1000,
                          pacing="poisson", start_ns=FAULT_NS + 1 * MS,
                          stop_ns=50 * MS))
    plan = FaultPlan(seed=SEED)
    plan.add(ControllerOutage(at_ns=FAULT_NS, down_ns=10 * MS))
    FaultInjector(sim, plan, hosts=[host], controller=controller).arm()
    sim.run(until=60 * MS)
    return host, log, gen, {}


CASES = {
    "crash_mid_batch": crash_mid_batch,
    "crash_parked_on_ring": crash_parked_on_ring,
    "hang_watchdog_kill": hang_watchdog_kill,
    "link_flap_egress": link_flap_egress,
    "controller_outage_policy": controller_outage_policy,
}


def run_case(name: str) -> dict:
    """One deterministic run; returns its digest and facts, JSON-ready."""
    sim = Simulator()
    host, log, gen, facts = CASES[name](sim)
    records = [(event.timestamp_ns, event.category, event.host,
                event.get("service")) for event in log.events]
    pinned = {
        "events_scheduled": sim.events_scheduled,
        "timers_scheduled": sim.timers_scheduled,
        "events_cancelled": sim.events_cancelled,
        "summary": host.stats.summary(),
        "log": records,
        "rtt_ns": gen.latency.samples_ns,
    }
    blob = json.dumps(pinned, sort_keys=True, default=str)
    behaviour = {key: value for key, value in pinned.items()
                 if key not in ODOMETERS}
    behaviour_blob = json.dumps(behaviour, sort_keys=True, default=str)
    categories: dict[str, int] = {}
    for _time, category, _host, _service in records:
        categories[category] = categories.get(category, 0) + 1
    causes = [event.get("cause") for event in log.events
              if event.category == "nf_failure"]
    result = {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "sha256_without_odometers":
            hashlib.sha256(behaviour_blob.encode()).hexdigest(),
        "events_scheduled": sim.events_scheduled,
        "received": gen.received,
        "categories": categories,
        "failure_causes": causes,
        "facts": facts,
    }
    return json.loads(json.dumps(result, sort_keys=True))


def observed() -> dict:
    return {name: run_case(name) for name in CASES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_committed_golden(name, golden):
    assert run_case(name) == golden[name]


def test_golden_exercises_each_corner(golden):
    mid_batch = golden["crash_mid_batch"]
    assert mid_batch["facts"]["dpi_busy"]
    assert mid_batch["failure_causes"] == ["crash"]
    assert mid_batch["categories"]["nf_recovered"] == 1
    parked = golden["crash_parked_on_ring"]
    assert not parked["facts"]["dpi_busy"]
    assert parked["facts"]["dpi_ring"] == 0
    assert parked["failure_causes"] == ["crash"]
    assert parked["categories"]["nf_recovered"] == 1
    hung = golden["hang_watchdog_kill"]
    assert hung["failure_causes"] == ["hang"]
    assert hung["categories"]["nf_recovered"] == 1
    flap = golden["link_flap_egress"]
    assert flap["facts"]["link_up"] and flap["facts"]["egress_queued"] > 0
    outage = golden["controller_outage_policy"]["categories"]
    assert outage["sdn_timeout"] > 0
    assert outage["miss_degraded"] > 0
    assert outage["controller_shard_down"] == 1
    assert outage["controller_shard_restored"] == 1
    for run in golden.values():
        assert run["received"] > 0


if __name__ == "__main__":
    print(json.dumps(observed(), indent=2, sort_keys=True))
