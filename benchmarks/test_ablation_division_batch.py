"""Ablation: Division Heuristic sub-problem size (§3.5).

The paper picks batches of ~5 flows "so as to compute the solution
quickly".  This sweep shows the trade-off: larger batches approach the
joint optimum (lower max utilization) at super-linear solve cost; batch
size 1 degenerates toward greedy-like quality.
"""


from repro.core.placement import DivisionSolver, FlowRequest, PlacementProblem
from repro.metrics import series_table
from repro.topology import rocketfuel_like

BATCH_SIZES = [1, 2, 5]


def build_problem():
    topology = rocketfuel_like()
    names = topology.node_names
    per_core = {"J1": 10, "J2": 10, "J3": 10, "J4": 10, "J5": 4}
    flows = [FlowRequest(
        flow_id=f"f{i}", entry=names[(3 * i) % len(names)],
        exit=names[(5 * i + 2) % len(names)],
        chain=("J1", "J2", "J3", "J4", "J5"), bandwidth_gbps=0.3)
        for i in range(10)]
    return PlacementProblem(topology=topology, flows=flows,
                            flows_per_core=per_core)


def test_ablation_division_batch_size(report):
    def run():
        problem = build_problem()
        results = {}
        for batch in BATCH_SIZES:
            solver = DivisionSolver(batch_size=batch,
                                    time_limit_per_batch_s=12,
                                    mip_rel_gap=0.2)
            results[batch] = solver.solve(problem)
        return results

    results = run()
    for batch, result in results.items():
        assert result.placed_count == 10, f"batch={batch}"
    # Bigger batches never produce a worse objective (some slack for the
    # MIP gap).
    assert (results[5].max_utilization
            <= results[1].max_utilization + 0.15)

    columns = {
        "batch_size": BATCH_SIZES,
        "max_util": [results[b].max_utilization for b in BATCH_SIZES],
        "instances": [results[b].total_instances() for b in BATCH_SIZES],
        "solve_s": [results[b].solve_time_s for b in BATCH_SIZES]}
    report("ablation_division_batch", series_table(
        "Ablation — Division Heuristic batch size (10 flows, J1–J5)",
        columns), metrics=columns)
