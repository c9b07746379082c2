"""Per-flow memory under Fig. 10's flow churn.

Every new flow leaves state behind on the Fig. 10 host: its exact rule
from the policy engine's ``ChangeDefault``, its content type in the
video detector and its entry in the manager's first-contact classifier.
That state is the model; anything beyond it is waste that grows with
the run.  This test churns 2,000 flows after a warm-up and bounds the
traced memory each one leaves, then checks the parts that keep it
small: the lookup-plan cache keeps only current-generation plans, a
rule and its exact match have no instance dict, rewritten rules share
their actions tuple and the detector shares its content-type string.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.api import EXIT, MS, NfvHost, SdnfvApp, ServiceGraph, Simulator
from repro.nfs import PolicyEngine, VideoFlowDetector
from repro.workloads import FlowChurnWorkload

NEW_FLOWS_PER_S = 20_000
WARM_UP_NS = 25 * MS
#: About 2,000 flows at the offered rate.
MEASURE_NS = 100 * MS
#: Traced bytes each churned flow may leave behind.  The exact rule,
#: the detector's entry, the policy engine's released-flow entry and the
#: first-contact classifier's entry come to about 665 B on CPython
#: 3.11.7.  The bound leaves room for interpreter differences, not for
#: per-flow waste such as a stale lookup plan (about 190 B).
MAX_BYTES_PER_FLOW = 1000


def _fig10_host(sim: Simulator) -> tuple[NfvHost, VideoFlowDetector,
                                         FlowChurnWorkload]:
    """Fig. 10's SDNFV arm: VideoFlowDetector -> PolicyEngine, proactive
    rules, every NF message validated by the app."""
    app = SdnfvApp(sim, trust_nfs=False)
    host = NfvHost(sim, name="sdnfv0", seed=1)
    app.register_host(host)
    detector = VideoFlowDetector("vd")
    host.add_nf(detector, ring_slots=4096)
    host.add_nf(PolicyEngine("pe", detector_service="vd",
                             transcoder_service="tc", exit_port="eth1"),
                ring_slots=4096)
    graph = ServiceGraph("video")
    graph.add_service("vd", read_only=True)
    graph.add_service("pe")
    graph.add_edge("vd", "pe", default=True)
    graph.add_edge("vd", EXIT)
    graph.add_edge("pe", EXIT, default=True)
    graph.set_entry("vd")
    app.deploy(graph, proactive=True)
    churn = FlowChurnWorkload(sim, host,
                              new_flows_per_second=NEW_FLOWS_PER_S, seed=1)
    return host, detector, churn


@pytest.fixture(scope="module")
def churned():
    """The host after warm-up plus the measured window, and the traced
    bytes per flow the window left."""
    sim = Simulator()
    host, detector, churn = _fig10_host(sim)
    tracemalloc.start()
    try:
        sim.run(until=WARM_UP_NS)
        gc.collect()
        flows_before = churn.flows_started
        bytes_before = tracemalloc.get_traced_memory()[0]
        sim.run(until=WARM_UP_NS + MEASURE_NS)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - bytes_before
    finally:
        tracemalloc.stop()
    flows = churn.flows_started - flows_before
    return host, detector, flows, grown / flows


def test_measured_window_churns_about_2000_flows(churned):
    _host, _detector, flows, _per_flow = churned
    assert 1800 <= flows <= 2200


def test_each_churned_flow_leaves_at_most_1000_bytes(churned):
    _host, _detector, _flows, per_flow = churned
    assert per_flow <= MAX_BYTES_PER_FLOW, f"{per_flow:.0f} B/flow"


def test_plan_cache_holds_only_current_plans(churned):
    host = churned[0]
    assert len(host.manager._plans) <= 2


def test_rules_have_no_instance_dict(churned):
    host = churned[0]
    entry = host.flow_table.entries()[0]
    assert not hasattr(entry, "__dict__")


def test_exact_matches_have_no_instance_dict(churned):
    host = churned[0]
    match = next(entry.match for entry in host.flow_table.entries("vd")
                 if entry.match.is_exact)
    assert not hasattr(match, "__dict__")


def test_rewritten_rules_share_one_actions_tuple(churned):
    host = churned[0]
    first, second = [entry for entry in host.flow_table.entries("vd")
                     if entry.match.is_exact][:2]
    assert first.match != second.match
    assert first.actions is second.actions


def test_detector_shares_one_content_type_string(churned):
    detector = churned[1]
    assert len(detector.flow_content) > 2000
    content_types = {id(value) for value in detector.flow_content.values()}
    assert len(content_types) == 1
