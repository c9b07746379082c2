"""A simulation run loads only what it runs.

The placement engine (§3.5) is an offline planner that no packet path
calls, and the lint engine and the action-profile extractor serve the
tooling and profile-driven chains only.  No run needs networkx: the
topology routes on its own adjacency dicts, and only the routing tests
load networkx, as their reference.  Each case runs in a fresh
interpreter, so the modules an earlier test imported do not count.
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
