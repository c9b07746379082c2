"""Figure 5: placement quality — greedy vs MILP vs Division Heuristic.

Paper setup: Rocketfuel AS-16631 (22 nodes / 64 edges), homogeneous
2-core nodes, every flow's chain is J1–J5, each core supports 10 flows
for J1–J4 and 4 flows for J5.

Left sub-figure: max utilization (link and core) versus number of flows —
"the greedy heuristic is inefficient ... Solving the MILP optimally ...
accommodates 3 times as many flows", the Division heuristic ≈85 % of
optimal.  Right sub-figure: flows supported as capacity scales.

Scaled for CI runtime: flow counts are modest and the MILP runs with a
time limit; shapes, not absolute solver times, are the reproduction
target.
"""


from repro.core.placement import (
    DivisionSolver,
    FlowRequest,
    GreedySolver,
    PlacementProblem,
)
from repro.core.placement.milp import InfeasiblePlacement, MilpSolver
from repro.metrics import series_table
from repro.topology import rocketfuel_like

CHAIN = ("J1", "J2", "J3", "J4", "J5")
PER_CORE = {"J1": 10, "J2": 10, "J3": 10, "J4": 10, "J5": 4}


def paper_problem(flow_count: int, capacity_multiplier: float = 1.0,
                  bandwidth: float = 0.2) -> PlacementProblem:
    topology = rocketfuel_like(
        cores_per_node=2,
        link_capacity_gbps=10.0 * capacity_multiplier)
    names = topology.node_names
    per_core = {service: round(count * capacity_multiplier)
                for service, count in PER_CORE.items()}
    flows = [FlowRequest(
        flow_id=f"f{i}",
        entry=names[(i * 5) % len(names)],
        exit=names[(i * 11 + 7) % len(names)],
        chain=CHAIN, bandwidth_gbps=bandwidth)
        for i in range(flow_count)]
    return PlacementProblem(topology=topology, flows=flows,
                            flows_per_core=per_core)


def test_fig5_utilization_vs_flow_count(report):
    """Left sub-figure: Greedy-Link/Greedy-Core vs ILP-Link/ILP-Core."""
    flow_counts = [4, 8, 12]

    def run():
        rows = []
        for count in flow_counts:
            problem = paper_problem(count)
            greedy = GreedySolver().solve(problem)
            ilp = DivisionSolver(batch_size=4, time_limit_per_batch_s=12,
                                 mip_rel_gap=0.25).solve(problem)
            rows.append((count, greedy, ilp))
        return rows

    rows = run()
    for count, greedy, ilp in rows:
        assert ilp.placed_count == count
        # The ILP family never does worse than greedy on the objective.
        if greedy.placed_count == count:
            assert (ilp.max_utilization
                    <= greedy.max_utilization + 0.05)
    # At the largest count the ILP's balanced placement keeps core
    # utilization clearly below greedy's first-fit packing.
    _count, greedy_last, ilp_last = rows[-1]
    assert (ilp_last.max_core_utilization
            < greedy_last.max_core_utilization)

    columns = {
        "flows": [row[0] for row in rows],
        "Greedy-Link": [row[1].max_link_utilization for row in rows],
        "Greedy-Core": [row[1].max_core_utilization for row in rows],
        "ILP-Link": [row[2].max_link_utilization for row in rows],
        "ILP-Core": [row[2].max_core_utilization for row in rows]}
    report("fig5_left_utilization", series_table(
        "Fig. 5 (left) — max utilization vs number of flows", columns),
        metrics=columns)


def test_fig5_flows_accommodated(report):
    """Greedy rejects flows well before the ILP family does."""
    def run():
        # 36 offered flows: greedy saturates around 28 on this topology.
        problem = paper_problem(36, bandwidth=0.4)
        greedy = GreedySolver().solve(problem)
        division = DivisionSolver(batch_size=4,
                                  time_limit_per_batch_s=12,
                                  mip_rel_gap=0.25).solve(problem)
        return greedy, division

    greedy, division = run()
    # Paper: optimal accommodates ~3x greedy; division ~85% of optimal.
    assert division.placed_count > greedy.placed_count
    columns = {"solver": ["greedy", "division"],
               "placed": [greedy.placed_count, division.placed_count],
               "max_util": [greedy.max_utilization,
                            division.max_utilization]}
    report("fig5_flows_accommodated", series_table(
        "Fig. 5 — flows accommodated (36 offered, J1–J5 chains)",
        columns), metrics=columns)


def test_fig5_right_capacity_scaling(report):
    """Right sub-figure: scaling CPU+link capacity supports more flows
    and the division heuristic keeps beating greedy."""
    def run():
        rows = []
        for multiplier in (1.0, 2.0):
            problem = paper_problem(16, capacity_multiplier=multiplier,
                                    bandwidth=0.4)
            greedy = GreedySolver().solve(problem)
            division = DivisionSolver(batch_size=4,
                                      time_limit_per_batch_s=12,
                                      mip_rel_gap=0.25).solve(problem)
            rows.append((multiplier, greedy.placed_count,
                         division.placed_count))
        return rows

    rows = run()
    for _multiplier, greedy_placed, division_placed in rows:
        assert division_placed >= greedy_placed
    # More capacity -> at least as many flows for each solver.
    assert rows[1][1] >= rows[0][1]
    assert rows[1][2] >= rows[0][2]
    columns = {"capacity_x": [row[0] for row in rows],
               "greedy_placed": [row[1] for row in rows],
               "division_placed": [row[2] for row in rows]}
    report("fig5_right_scaling", series_table(
        "Fig. 5 (right) — flows placed vs capacity multiplier", columns),
        metrics=columns)


def test_fig5_division_within_85pct_of_optimal(report):
    """§3.5: "we can fit about 85% of the flows accommodated by the
    optimal solution" — checked on a size the exact MILP can handle."""
    def run():
        problem = paper_problem(10, bandwidth=0.4)
        try:
            optimal = MilpSolver(time_limit_s=45,
                                 mip_rel_gap=0.1).solve(problem)
            optimal_count = optimal.placed_count
        except InfeasiblePlacement:
            optimal_count = None
        division = DivisionSolver(batch_size=5,
                                  time_limit_per_batch_s=15,
                                  mip_rel_gap=0.25).solve(problem)
        return optimal_count, division.placed_count

    optimal_count, division_count = run()
    if optimal_count is not None:
        assert division_count >= 0.8 * optimal_count
    columns = {
        "solver": ["optimal", "division"],
        "placed": [optimal_count if optimal_count is not None else -1,
                   division_count]}
    report("fig5_division_vs_optimal", series_table(
        "Fig. 5 — division heuristic vs optimal (10 flows offered)",
        columns), metrics=columns)
