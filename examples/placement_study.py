"""NF placement study (paper §3.5, Fig. 5).

Run:  python examples/placement_study.py

Places J1–J5 service chains on a Rocketfuel-like topology with the three
solvers — greedy first-fit, the exact MILP (eqs. 1–9 on HiGHS), and the
Division Heuristic — and compares flows placed, maximum utilization, and
solve time.  Solve times are wall-clock, so they go to stderr: stdout is
the same on every run and can be diffed.
"""

import sys

from repro.core.placement import (
    DivisionSolver,
    FlowRequest,
    GreedySolver,
    MilpSolver,
    PlacementProblem,
)
from repro.core.placement.milp import InfeasiblePlacement
from repro.topology import rocketfuel_like

CHAIN = ("J1", "J2", "J3", "J4", "J5")
PER_CORE = {"J1": 10, "J2": 10, "J3": 10, "J4": 10, "J5": 4}


def build_problem(flow_count: int) -> PlacementProblem:
    topology = rocketfuel_like()  # 22 nodes / 64 edges, 2 cores each
    names = topology.node_names
    flows = [FlowRequest(
        flow_id=f"flow{i}",
        entry=names[(i * 5) % len(names)],
        exit=names[(i * 11 + 7) % len(names)],
        chain=CHAIN, bandwidth_gbps=0.25)
        for i in range(flow_count)]
    return PlacementProblem(topology=topology, flows=flows,
                            flows_per_core=PER_CORE)


def main() -> None:
    problem = build_problem(10)
    print(f"topology: 22 nodes / 64 edges, {problem.topology.total_cores()}"
          f" cores; {len(problem.flows)} flows, chain {'-'.join(CHAIN)}\n")
    print(f"{'solver':<10} {'placed':>6} {'max util':>9} "
          f"{'instances':>9}")

    solvers = [
        GreedySolver(),
        DivisionSolver(batch_size=5, time_limit_per_batch_s=15,
                       mip_rel_gap=0.2),
        MilpSolver(time_limit_s=30, mip_rel_gap=0.2),
    ]
    division = None
    for solver in solvers:
        try:
            result = solver.solve(problem)
        except InfeasiblePlacement as error:
            print(f"{solver.name:<10} infeasible: {error}")
            continue
        print(f"{result.solver:<10} {result.placed_count:>6} "
              f"{result.max_utilization:>9.3f} "
              f"{result.total_instances():>9}")
        print(f"{result.solver} solved in {result.solve_time_s:.2f}s",
              file=sys.stderr)
        if isinstance(solver, DivisionSolver):
            division = result

    # The route comes from the Division solve above: each of its
    # batches may run into the time limit, so a second solve would
    # double the example's run time.
    if division is None:
        return
    sample = problem.flows[0].flow_id
    print(f"\nexample route for {sample}:")
    for position, (service, node) in enumerate(zip(
            CHAIN, division.assignments[sample], strict=True)):
        print(f"  step {position + 1}: {service} on {node} "
              f"(via {'-'.join(division.routes[sample][position])})")


if __name__ == "__main__":
    main()
