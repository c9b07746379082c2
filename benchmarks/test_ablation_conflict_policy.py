"""Ablation: parallel verdict conflict resolution (§4.2).

"The NF Manager's TX thread resolves conflicting action requests by
either prioritizing actions (e.g., drop is most important, followed by
transmit out, etc), or by having priorities associated with each VM."

Scenario: a permissive monitor runs in parallel with a strict filter that
discards a fraction of packets.  Under action-priority the filter's drops
always win; under VM-priority the outcome follows the configured ranking,
so putting the monitor first *overrides* the filter — the operator's
knob for "observe but don't enforce" deployments.
"""


from repro.dataplane import FlowTableEntry, NfvHost, ToPort, ToService, Verdict
from repro.metrics import series_table
from repro.net import FiveTuple, FlowMatch, Packet
from repro.nfs.base import NetworkFunction
from repro.sim import MS, Simulator


class EveryOtherDropper(NetworkFunction):
    read_only = True

    def process(self, packet, ctx):
        if self.packets_seen % 2 == 1:
            return Verdict.discard()
        return Verdict.default()


class PassiveMonitor(NetworkFunction):
    read_only = True

    def process(self, packet, ctx):
        return Verdict.default()


def run_case(policy: str, monitor_priority: int, filter_priority: int):
    sim = Simulator()
    host = NfvHost(sim, name=f"cp-{policy}-{monitor_priority}",
                   conflict_policy=policy)
    host.add_nf(PassiveMonitor("monitor"), priority=monitor_priority)
    host.add_nf(EveryOtherDropper("filter"), priority=filter_priority)
    hops = (ToService("monitor"), ToService("filter"), ToPort("eth1"))
    for scope, hop in zip(("eth0", "monitor", "filter"), hops):
        host.install_rule(FlowTableEntry(scope=scope, match=FlowMatch.any(),
                                         actions=(hop,)))
    host.manager.register_parallel_chain(["monitor", "filter"])
    flow = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1, 80)
    delivered = []
    host.port("eth1").on_egress = delivered.append
    for _ in range(100):
        host.inject("eth0", Packet(flow=flow, size=128))
    sim.run(until=50 * MS)
    return len(delivered)


def test_ablation_conflict_policy(report):
    def run():
        return {
            "action_priority": run_case("action_priority", 0, 1),
            "vm_priority (filter ranked)": run_case("vm_priority", 1, 0),
            "vm_priority (monitor ranked)": run_case("vm_priority", 0, 1),
        }

    results = run()
    # Action priority: the filter's drop always wins -> half delivered.
    assert results["action_priority"] == 50
    # VM priority with the filter ranked highest: same enforcement.
    assert results["vm_priority (filter ranked)"] == 50
    # VM priority with the monitor ranked highest: observe-only, no drops.
    assert results["vm_priority (monitor ranked)"] == 100

    columns = {"policy": list(results),
               "delivered": list(results.values())}
    report("ablation_conflict_policy", series_table(
        "Ablation — parallel conflict policy (100 packets, 50% filter)",
        columns), metrics=columns)
