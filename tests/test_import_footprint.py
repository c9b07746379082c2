"""A simulation run loads only what it runs.

The placement engine (§3.5) is an offline planner that no packet path
calls, and the lint engine and the action-profile extractor serve the
tooling and profile-driven chains only.  No run needs networkx: the
topology routes on its own adjacency dicts, and only the routing tests
load networkx, as their reference.  No run needs numpy either: the
random streams are a pure-Python port of numpy's PCG64 and latency
percentiles are computed in Python, so only the MILP planner and the
tests that use numpy as their reference load it.  Each case runs in a
fresh interpreter, so the modules an earlier test imported do not
count.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_a_run_without_scipy_loads_no_planner_and_no_lint():
    result = run_python("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now fails

        from repro.api import (EXIT, ControlPlane, NfvHost, SdnfvApp,
                               ServiceGraph, Simulator, MS, FlowSpec,
                               PktGen)
        from repro.net import FiveTuple
        from repro.nfs import NoOpNf

        sim = Simulator()
        controller = ControlPlane(sim)
        app = SdnfvApp(sim, controller=controller)
        host = NfvHost(sim, name="h0", controller=controller)
        app.register_host(host)
        host.add_nf(NoOpNf("a"))
        host.add_nf(NoOpNf("b"))
        graph = ServiceGraph("two")
        graph.add_service("a", read_only=True)
        graph.add_service("b", read_only=True)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", EXIT, default=True)
        graph.set_entry("a")
        app.deploy(graph)
        gen = PktGen(sim, host)
        gen.add_flow(FlowSpec(
            flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 4000, 80),
            rate_mbps=1000.0, packet_size=512, stop_ns=1 * MS))
        sim.run(until=1 * MS)
        assert gen.received > 0, (gen.sent, gen.received)

        loaded = [name for name in ("repro.core.placement",
                                    "repro.analysis.lint",
                                    "repro.analysis.profiles")
                  if name in sys.modules]
        assert not loaded, loaded
    """)
    assert result.returncode == 0, result.stderr


def test_placement_still_imports_from_its_own_module():
    result = run_python("""
        from repro.core.placement import MilpSolver
        assert MilpSolver.__module__ == "repro.core.placement.milp"
    """)
    assert result.returncode == 0, result.stderr


def test_api_loads_no_networkx():
    result = run_python("""
        import sys

        import repro.api
        import repro.core

        assert "networkx" not in sys.modules
    """)
    assert result.returncode == 0, result.stderr


def test_api_loads_no_numpy():
    result = run_python("""
        import sys

        import repro.api

        assert "numpy" not in sys.modules
    """)
    assert result.returncode == 0, result.stderr


def test_a_run_loads_no_numpy():
    """Every draw a run makes, and its latency summary, without numpy."""
    result = run_python("""
        import sys
        sys.modules["numpy"] = None  # any numpy import now fails

        from repro.api import (EXIT, MS, US, ControlPlane, FaultInjector,
                               FaultPlan, FiveTuple, FlowSpec, LinkFlap,
                               NfvHost, PktGen, Scenario, SdnfvApp,
                               ServiceGraph, ShardedSimulator, Simulator,
                               TrafficSpec)
        from repro.nfs import ComputeNf
        from repro.topology import rocketfuel_like
        from repro.workloads import FlowChurnWorkload, MemcachedWorkload

        def compute_host(sim, name):
            controller = ControlPlane(sim)
            app = SdnfvApp(sim, controller=controller)
            host = NfvHost(sim, name=name, controller=controller)
            app.register_host(host)
            # A jittered cost draws from the VM's ctx.rng per packet.
            host.add_nf(ComputeNf("work", cost_ns=2 * US, jitter_ns=US))
            graph = ServiceGraph("one")
            graph.add_service("work", read_only=True)
            graph.add_edge("work", EXIT, default=True)
            graph.set_entry("work")
            app.deploy(graph)
            return host

        sim = Simulator()
        host = compute_host(sim, "h0")
        gen = PktGen(sim, host)  # draws each packet's wire jitter
        gen.add_flow(FlowSpec(
            flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 4000, 80),
            rate_mbps=200.0, stop_ns=2 * MS))
        gen.add_flow(FlowSpec(
            flow=FiveTuple("10.0.0.3", "10.0.0.2", 6, 4000, 80),
            rate_mbps=200.0, pacing="poisson", stop_ns=2 * MS))
        churn = FlowChurnWorkload(sim, compute_host(sim, "h1"),
                                  new_flows_per_second=20_000)
        memcached = MemcachedWorkload(sim, compute_host(sim, "h2"),
                                      requests_per_second=20_000)
        plan = FaultPlan(seed=3)
        plan.add(LinkFlap(at_ns=MS, jitter_ns=100 * US, port="eth1",
                          down_ns=100 * US))
        FaultInjector(sim, plan, hosts=[host])
        sim.run(until=3 * MS)
        assert gen.received > 0, (gen.sent, gen.received)
        assert churn.flows_started > 1 and memcached.sent > 1
        assert plan.fire_time_ns(0) != MS
        assert list(host.manager.streams._streams), "no VM stream drew"
        summary = gen.latency.summary()
        assert summary["p99_us"] >= summary["p50_us"] > 0, summary

        graph = ServiceGraph("wan")
        graph.add_service("a", read_only=True)
        graph.add_service("b", read_only=True)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", EXIT, default=True)
        graph.set_entry("a")
        scenario = Scenario(
            topology=rocketfuel_like(),
            graph=graph,
            placement={"a": "n0", "b": "n14"},
            duration_ns=MS,
            traffic=[TrafficSpec(
                host="n0",
                flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 4000, 80),
                rate_mbps=400.0, stop_ns=MS // 4)])
        result = ShardedSimulator(scenario, shards=2).run()
        assert result.received > 0, (result.sent, result.received)
    """)
    assert result.returncode == 0, result.stderr


def test_a_sharded_wan_run_without_networkx_delivers():
    result = run_python("""
        import sys
        sys.modules["networkx"] = None  # any networkx import now fails

        from repro.api import (EXIT, MS, FiveTuple, Scenario,
                               ServiceGraph, ShardedSimulator,
                               TrafficSpec)
        from repro.topology import rocketfuel_like

        graph = ServiceGraph("wan")
        graph.add_service("a", read_only=True)
        graph.add_service("b", read_only=True)
        graph.add_edge("a", "b", default=True)
        graph.add_edge("b", EXIT, default=True)
        graph.set_entry("a")
        scenario = Scenario(
            topology=rocketfuel_like(),
            graph=graph,
            placement={"a": "n0", "b": "n14"},  # one 500 us hop apart
            duration_ns=1 * MS,
            traffic=[TrafficSpec(
                host="n0",
                flow=FiveTuple("10.0.0.1", "10.0.0.2", 6, 4000, 80),
                rate_mbps=400.0, stop_ns=MS // 4)])
        result = ShardedSimulator(scenario, shards=2).run()
        assert {"n0", "n14"} <= set(result.hosts)
        assert result.received > 0, (result.sent, result.received)
    """)
    assert result.returncode == 0, result.stderr
