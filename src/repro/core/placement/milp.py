"""The paper's MILP placement formulation (§3.5, eqs. 1–9) on HiGHS.

Variables (Table 1):

- ``U`` — max utilization of links and cores (the objective);
- ``N[k][l][i]`` — binary: switch *i* hosts position *l* of flow *k*'s
  chain (eq. 2/3);
- ``V[k][seg][e]`` — binary: directed edge *e* carries segment *seg* of
  flow *k*'s route (eq. 5);
- ``w[i][j][c]`` — instance-count selector: exactly one ``c`` per (node,
  service) with ``M_ij = Σ c·w`` — this linearizes the per-core
  utilization constraint (eq. 9), which is bilinear in (U, M) when written
  directly.

Constraints map to the paper's equations: (1) cores per node, (2)/(3)
one node per chain position, (4)/(5) route construction with entry/exit
pinning, (6) per-flow delay bound, (7) instance capacity, (8) link
utilization ≤ U, (9) core utilization ≤ U.

Supports *residual* capacity (existing instances, spare flow slots, prior
link loads) so the Division heuristic can chain sub-problem solves.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
from scipy import optimize, sparse

from repro.core.placement.model import (
    PlacementProblem,
    PlacementResult,
    compute_utilizations,
)


@dataclasses.dataclass
class ResidualState:
    """Capacity already consumed by earlier sub-problems."""

    residual_cores: dict[str, int]
    existing_instances: dict[tuple[str, str], int]
    existing_slots: dict[tuple[str, str], int]
    prior_core_load: dict[tuple[str, str], int]
    prior_link_gbps: dict[frozenset, float]

    @classmethod
    def fresh(cls, problem: PlacementProblem) -> ResidualState:
        return cls(
            residual_cores={name: problem.topology.node(name).cores
                            for name in problem.topology.node_names},
            existing_instances={},
            existing_slots={},
            prior_core_load={},
            prior_link_gbps={},
        )


class InfeasiblePlacement(Exception):
    """The flows cannot all be placed within the capacities."""


class MilpSolver:
    """Optimal joint placement + routing via scipy's HiGHS MILP."""

    name = "milp"

    def __init__(self, time_limit_s: float = 60.0,
                 mip_rel_gap: float = 1e-3) -> None:
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap

    # ------------------------------------------------------------------
    def solve(self, problem: PlacementProblem,
              residual: ResidualState | None = None) -> PlacementResult:
        """Solve; raises InfeasiblePlacement when flows cannot fit."""
        started = time.monotonic()  # sdnfv: noqa SIM001 (solver wall time, not sim time)
        build = _ModelBuilder(problem, residual
                              or ResidualState.fresh(problem))
        model = build.build()
        result = optimize.milp(
            c=model["c"],
            constraints=model["constraints"],
            integrality=model["integrality"],
            bounds=model["bounds"],
            options={"time_limit": self.time_limit_s,
                     "mip_rel_gap": self.mip_rel_gap,
                     "disp": False},
        )
        # scipy/HiGHS status: 0 = optimal, 1 = iteration/time limit (an
        # incumbent may still be present), 2 = infeasible, 3 = unbounded.
        if result.status not in (0, 1) or result.x is None:
            raise InfeasiblePlacement(
                f"MILP infeasible or failed (status={result.status}: "
                f"{result.message})")
        instances, assignments, routes = build.extract(result.x)
        max_link, max_core, _l, _c = compute_utilizations(
            problem, _merged_instances(instances, build.residual),
            assignments, routes)
        return PlacementResult(
            instances=instances,
            assignments=assignments,
            routes=routes,
            placed_flows=[flow.flow_id for flow in problem.flows],
            rejected_flows=[],
            max_link_utilization=max_link,
            max_core_utilization=max_core,
            solve_time_s=time.monotonic() - started,  # sdnfv: noqa SIM001
            solver=self.name)


def _merged_instances(new: dict[tuple[str, str], int],
                      residual: ResidualState) -> dict[tuple[str, str], int]:
    merged = dict(residual.existing_instances)
    for key, count in new.items():
        merged[key] = merged.get(key, 0) + count
    return merged


class _ModelBuilder:
    """Flattens the formulation into scipy's matrix form."""

    def __init__(self, problem: PlacementProblem,
                 residual: ResidualState) -> None:
        self.problem = problem
        self.residual = residual
        self.nodes = list(problem.topology.node_names)
        self.node_index = {name: i for i, name in enumerate(self.nodes)}
        self.services = problem.services
        # Directed edges, both orientations of every undirected link.
        self.edges: list[tuple[str, str]] = []
        for link in problem.topology.links:
            self.edges.append((link.a, link.b))
            self.edges.append((link.b, link.a))
        self.edge_index = {edge: i for i, edge in enumerate(self.edges)}
        self._allocate_variables()

    # ------------------------------------------------------------------
    def _allocate_variables(self) -> None:
        self.n_vars = 1  # U at index 0
        self.N: dict[tuple[int, int, int], int] = {}
        for k, flow in enumerate(self.problem.flows):
            for l in range(len(flow.chain)):
                for i in range(len(self.nodes)):
                    self.N[(k, l, i)] = self.n_vars
                    self.n_vars += 1
        self.V: dict[tuple[int, int, int], int] = {}
        for k, flow in enumerate(self.problem.flows):
            for seg in range(len(flow.chain) + 1):
                for e in range(len(self.edges)):
                    self.V[(k, seg, e)] = self.n_vars
                    self.n_vars += 1
        self.W: dict[tuple[str, str, int], int] = {}
        for node in self.nodes:
            max_new = self.residual.residual_cores.get(node, 0)
            for service in self.services:
                for count in range(max_new + 1):
                    self.W[(node, service, count)] = self.n_vars
                    self.n_vars += 1

    # ------------------------------------------------------------------
    def build(self) -> dict:
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        lower: list[float] = []
        upper: list[float] = []
        row_count = 0

        def add_row(entries: list[tuple[int, float]],
                    lb: float, ub: float) -> None:
            nonlocal row_count
            for col, val in entries:
                rows.append(row_count)
                cols.append(col)
                vals.append(val)
            lower.append(lb)
            upper.append(ub)
            row_count += 1

        problem, residual = self.problem, self.residual
        flows = problem.flows
        per_core = problem.flows_per_core
        big_m = len(flows) + max(
            residual.prior_core_load.values(), default=0) + 1

        # (1) cores per node: Σ_j Σ_c c*w ≤ residual cores.
        for node in self.nodes:
            entries = []
            for service in self.services:
                for count in range(
                        residual.residual_cores.get(node, 0) + 1):
                    if count:
                        entries.append(
                            (self.W[(node, service, count)], float(count)))
            add_row(entries, -np.inf,
                    float(residual.residual_cores.get(node, 0)))

        # Selector: exactly one instance count per (node, service).
        for node in self.nodes:
            for service in self.services:
                entries = [(self.W[(node, service, count)], 1.0)
                           for count in range(
                               residual.residual_cores.get(node, 0) + 1)]
                add_row(entries, 1.0, 1.0)

        # (2)/(3) each chain position on exactly one node.
        for k, flow in enumerate(flows):
            for l in range(len(flow.chain)):
                entries = [(self.N[(k, l, i)], 1.0)
                           for i in range(len(self.nodes))]
                add_row(entries, 1.0, 1.0)

        # (7) capacity: load ≤ existing slots + P * new instances.
        for node in self.nodes:
            for service in self.services:
                entries: list[tuple[int, float]] = []
                for k, flow in enumerate(flows):
                    for l, chain_service in enumerate(flow.chain):
                        if chain_service == service:
                            entries.append(
                                (self.N[(k, l,
                                         self.node_index[node])], 1.0))
                if not entries:
                    continue
                for count in range(
                        1, residual.residual_cores.get(node, 0) + 1):
                    entries.append(
                        (self.W[(node, service, count)],
                         -float(count * per_core[service])))
                slots = residual.existing_slots.get((node, service), 0)
                add_row(entries, -np.inf, float(slots))

        # (4)/(5) flow conservation per flow, segment, node.
        for k, flow in enumerate(flows):
            chain_len = len(flow.chain)
            for seg in range(chain_len + 1):
                for i, node in enumerate(self.nodes):
                    entries = []
                    for e, (a, b) in enumerate(self.edges):
                        if a == node:
                            entries.append((self.V[(k, seg, e)], 1.0))
                        elif b == node:
                            entries.append((self.V[(k, seg, e)], -1.0))
                    const = 0.0
                    if seg == 0:
                        const += 1.0 if node == flow.entry else 0.0
                    else:
                        entries.append((self.N[(k, seg - 1, i)], -1.0))
                    if seg == chain_len:
                        const -= 1.0 if node == flow.exit else 0.0
                    else:
                        entries.append((self.N[(k, seg, i)], 1.0))
                    add_row(entries, const, const)

        # (6) per-flow delay bound.
        for k, flow in enumerate(flows):
            if flow.max_delay_ns is None:
                continue
            entries = []
            for seg in range(len(flow.chain) + 1):
                for e, (a, b) in enumerate(self.edges):
                    delay = problem.topology.link(a, b).delay_ns
                    entries.append((self.V[(k, seg, e)], float(delay)))
            add_row(entries, -np.inf, float(flow.max_delay_ns))

        # (8) link utilization ≤ U.
        for link in problem.topology.links:
            entries: list[tuple[int, float]] = [(0, -link.capacity_gbps)]
            for orientation in ((link.a, link.b), (link.b, link.a)):
                e = self.edge_index[orientation]
                for k, flow in enumerate(flows):
                    for seg in range(len(flow.chain) + 1):
                        entries.append((self.V[(k, seg, e)],
                                        flow.bandwidth_gbps))
            prior = residual.prior_link_gbps.get(
                frozenset((link.a, link.b)), 0.0)
            add_row(entries, -np.inf, -prior)

        # (9) core utilization ≤ U, linearized per instance count.
        for node in self.nodes:
            for service in self.services:
                load_entries: list[tuple[int, float]] = []
                for k, flow in enumerate(flows):
                    for l, chain_service in enumerate(flow.chain):
                        if chain_service == service:
                            load_entries.append(
                                (self.N[(k, l,
                                         self.node_index[node])], 1.0))
                prior_load = residual.prior_core_load.get(
                    (node, service), 0)
                if not load_entries and not prior_load:
                    continue
                existing = residual.existing_instances.get(
                    (node, service), 0)
                for count in range(
                        residual.residual_cores.get(node, 0) + 1):
                    total = existing + count
                    if total == 0:
                        continue  # capacity row already forces load 0
                    entries = list(load_entries)
                    entries.append((0, -float(total * per_core[service])))
                    entries.append(
                        (self.W[(node, service, count)], float(big_m)))
                    add_row(entries, -np.inf,
                            float(big_m - prior_load))

        matrix = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(row_count, self.n_vars)).tocsc()
        constraints = optimize.LinearConstraint(
            matrix, np.array(lower), np.array(upper))

        # Objective: U plus tiny path/instance shaping terms (break ties
        # toward short routes and few instances; never competes with U).
        c = np.zeros(self.n_vars)
        c[0] = 1.0
        for index in self.V.values():
            c[index] = 1e-7
        for (node, service, count), index in self.W.items():
            c[index] = 1e-6 * count

        integrality = np.ones(self.n_vars)
        integrality[0] = 0  # U is continuous
        lower_bounds = np.zeros(self.n_vars)
        upper_bounds = np.ones(self.n_vars)
        upper_bounds[0] = np.inf
        bounds = optimize.Bounds(lower_bounds, upper_bounds)
        return {"c": c, "constraints": constraints,
                "integrality": integrality, "bounds": bounds}

    # ------------------------------------------------------------------
    def extract(self, x: np.ndarray) -> tuple[
            dict[tuple[str, str], int], dict[str, list[str]],
            dict[str, list[list[str]]]]:
        instances: dict[tuple[str, str], int] = {}
        for (node, service, count), index in self.W.items():
            if count and x[index] > 0.5:
                instances[(node, service)] = (
                    instances.get((node, service), 0) + count)
        assignments: dict[str, list[str]] = {}
        routes: dict[str, list[list[str]]] = {}
        for k, flow in enumerate(self.problem.flows):
            nodes_for_flow = []
            for l in range(len(flow.chain)):
                chosen = [self.nodes[i] for i in range(len(self.nodes))
                          if x[self.N[(k, l, i)]] > 0.5]
                assert len(chosen) == 1, "assignment constraint violated"
                nodes_for_flow.append(chosen[0])
            assignments[flow.flow_id] = nodes_for_flow
            waypoints = [flow.entry, *nodes_for_flow, flow.exit]
            segments = []
            for seg in range(len(flow.chain) + 1):
                chosen_edges = [self.edges[e]
                                for e in range(len(self.edges))
                                if x[self.V[(k, seg, e)]] > 0.5]
                segments.append(_walk(waypoints[seg], waypoints[seg + 1],
                                      chosen_edges))
            routes[flow.flow_id] = segments
        return instances, assignments, routes


def _walk(start: str, end: str,
          edges: list[tuple[str, str]]) -> list[str]:
    """Reconstruct the node path from a segment's chosen directed edges.

    Within the MIP gap the solver may keep stray zero-pressure cycles in
    the V variables; BFS over the chosen edges extracts the simple
    start→end path and ignores such cycles.
    """
    if start == end:
        return [start]
    adjacency: dict[str, list[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    parents: dict[str, str] = {}
    frontier = [start]
    seen = {start}
    while frontier and end not in parents:
        node = frontier.pop(0)
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                parents[neighbor] = node
                frontier.append(neighbor)
    if end not in parents:
        raise AssertionError(
            f"route reconstruction failed {start}->{end}: {edges}")
    path = [end]
    while path[-1] != start:
        path.append(parents[path[-1]])
    path.reverse()
    return path
