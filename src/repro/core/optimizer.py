"""Lineage-strategy optimizer (§VII).

Chooses, per operator, a set of storage strategies minimising the expected
query-workload cost subject to user disk/runtime budgets:

.. math::

    \\min_x \\sum_i p_i \\big( \\min_{j | x_{ij}=1} q_{ij} \\big)
    + \\epsilon \\sum_{ij} (disk_{ij} + \\beta\\, run_{ij})\\, x_{ij}

The inner ``min`` is linearised with per-(operator, query-class) assignment
variables ``y`` (``sum_j y = 1``, ``y <= x``); the resulting mixed-integer
program is solved with scipy's HiGHS backend (standing in for the paper's
GNU Linear Programming Kit), with a greedy fallback when MILP is
unavailable.  Heuristic pruning mirrors the paper: strategies that alone
bust a budget are dropped, as are stored strategies whose index orientation
matches no query in the workload; mapping functions are always kept (they
are free).

The disk budget is enforced against :meth:`CostModel.disk_bytes`, which is
codec-aware: operators whose lineage compresses well (interval-coded
convolution/reshape regions, bitmap-coded dense-but-ragged masks) are
budgeted at their sampled compressed footprint rather than a flat
bytes-per-cell constant, so the optimizer can afford to materialise
strategies the old estimate would have pruned.  Query costs are likewise
batch-aware: mismatched-orientation access is priced at the vectorised
batch-scan rate (``batch_entry_s``) instead of the per-entry cursor rate,
which keeps single-orientation Full stores competitive for mixed workloads
instead of forcing a second, redundant store within the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.costmodel import CostModel
from repro.core.model import Direction
from repro.core.modes import (
    ALL_STRATEGIES,
    BLACKBOX,
    MAP,
    LineageMode,
    Orientation,
    StorageStrategy,
)
from repro.errors import OptimizationError
from repro.ops.base import Operator

__all__ = ["WorkloadProfile", "OptimizationResult", "StrategyOptimizer", "candidate_strategies"]


def candidate_strategies(op: Operator) -> list[StorageStrategy]:
    """Every storage strategy the operator's supported modes allow."""
    supported = op.supported_modes() | {LineageMode.BLACKBOX}
    return [s for s in ALL_STRATEGIES if s.mode in supported]


@dataclass
class WorkloadProfile:
    """Per-node access probabilities derived from a sample query workload.

    ``weights[node][direction]`` is the probability mass of workload queries
    whose path touches ``node`` in that direction; ``cells`` is the mean
    query-cell count for sizing cost estimates.
    """

    weights: dict[str, dict[Direction, float]] = field(default_factory=dict)
    cells: float = 100.0

    @classmethod
    def from_queries(cls, queries: list, spec) -> "WorkloadProfile":
        """Profile a sample workload of
        :class:`~repro.core.query.QueryRequest` values, each optionally
        paired with a weight as ``(request, weight)``; ``spec`` resolves
        endpoint requests to their paths."""
        weights: dict[str, dict[Direction, float]] = {}
        total = 0.0
        cell_counts: list[float] = []
        for item in queries:
            request, weight = item if isinstance(item, tuple) else (item, 1.0)
            direction = Direction(request.direction)
            total += weight
            cell_counts.append(float(len(request.cells)))
            for step in request.resolve_path(spec):
                node_weights = weights.setdefault(step.node, {})
                node_weights[direction] = node_weights.get(direction, 0.0) + weight
        if total > 0:
            for node_weights in weights.values():
                for direction in list(node_weights):
                    node_weights[direction] /= total
        cells = float(np.mean(cell_counts)) if cell_counts else 100.0
        return cls(weights=weights, cells=cells)

    def directions_for(self, node: str) -> dict[Direction, float]:
        return self.weights.get(node, {})


@dataclass
class OptimizationResult:
    """The chosen plan plus the optimizer's own accounting."""

    plan: dict[str, list[StorageStrategy]]
    est_disk_bytes: float
    est_runtime_seconds: float
    est_query_seconds: float
    used_ilp: bool
    status: str = "optimal"

    def describe(self) -> str:
        lines = [
            f"status={self.status} ilp={self.used_ilp} "
            f"disk={self.est_disk_bytes / 1e6:.2f}MB "
            f"runtime=+{self.est_runtime_seconds:.2f}s "
            f"query~{self.est_query_seconds * 1e3:.2f}ms"
        ]
        for node in sorted(self.plan):
            labels = ", ".join(s.label for s in self.plan[node])
            lines.append(f"  {node}: {labels}")
        return "\n".join(lines)


class StrategyOptimizer:
    """Builds and solves the strategy-selection MILP (see module docstring)."""

    def __init__(self, cost_model: CostModel):
        self.cost_model = cost_model

    # -- public entry -----------------------------------------------------------

    def optimize(
        self,
        operators: dict[str, Operator],
        workload: WorkloadProfile,
        max_disk_bytes: float,
        max_runtime_seconds: float | None = None,
        beta: float = 1.0,
        eps: float = 1e-9,
        pinned: dict[str, list[StorageStrategy]] | None = None,
    ) -> OptimizationResult:
        pinned = pinned or {}
        nodes, cands, pins = self._build_candidates(operators, workload, pinned, max_disk_bytes, max_runtime_seconds)
        if not nodes:
            return OptimizationResult({}, 0.0, 0.0, 0.0, used_ilp=False, status="empty")
        try:
            plan, used_ilp = self._solve_ilp(
                nodes, cands, pins, workload, max_disk_bytes, max_runtime_seconds, beta, eps
            )
        except OptimizationError:
            plan, used_ilp = (
                self._solve_greedy(
                    nodes, cands, pins, workload, max_disk_bytes, max_runtime_seconds
                ),
                False,
            )
        return self._finalize(operators, plan, workload, used_ilp)

    # -- candidate construction ----------------------------------------------------

    def _build_candidates(
        self,
        operators: dict[str, Operator],
        workload: WorkloadProfile,
        pinned: dict[str, list[StorageStrategy]],
        max_disk: float,
        max_run: float | None,
    ):
        nodes: list[str] = []
        cands: dict[str, list[StorageStrategy]] = {}
        pins: dict[str, list[StorageStrategy]] = {}
        for node, op in operators.items():
            options = candidate_strategies(op)
            directions = workload.directions_for(node)
            kept: list[StorageStrategy] = []
            for strategy in options:
                if strategy.mode is LineageMode.BLACKBOX:
                    kept.append(strategy)
                    continue
                if strategy.mode is LineageMode.MAP:
                    kept.append(strategy)
                    continue
                if directions and not self._properly_indexed(strategy, directions):
                    continue
                if self.cost_model.disk_bytes(node, strategy) > max_disk:
                    continue
                if (
                    max_run is not None
                    and self.cost_model.write_seconds(node, strategy) > max_run
                ):
                    continue
                kept.append(strategy)
            for strategy in pinned.get(node, []):
                if strategy not in kept:
                    kept.append(strategy)
            nodes.append(node)
            cands[node] = kept
            pins[node] = list(pinned.get(node, []))
            # Mapping functions are free and dominate (§VII: "the optimizer
            # also picks mapping functions over all other classes").
            if MAP in kept and MAP not in pins[node]:
                pins[node].append(MAP)
        return nodes, cands, pins

    @staticmethod
    def _properly_indexed(
        strategy: StorageStrategy, directions: dict[Direction, float]
    ) -> bool:
        wants_backward = directions.get(Direction.BACKWARD, 0.0) > 0
        wants_forward = directions.get(Direction.FORWARD, 0.0) > 0
        if strategy.orientation is Orientation.BACKWARD:
            return wants_backward or strategy.mode in (LineageMode.PAY, LineageMode.COMP)
        return wants_forward

    # -- cost helpers -----------------------------------------------------------------

    def _query_cost(
        self, node: str, strategy: StorageStrategy, direction: Direction, cells: float
    ) -> float:
        return self.cost_model.query_seconds(
            node, strategy, direction is Direction.BACKWARD, int(cells)
        )

    # -- MILP ----------------------------------------------------------------------------

    def _solve_ilp(
        self,
        nodes: list[str],
        cands: dict[str, list[StorageStrategy]],
        pins: dict[str, list[StorageStrategy]],
        workload: WorkloadProfile,
        max_disk: float,
        max_run: float | None,
        beta: float,
        eps: float,
    ) -> tuple[dict[str, list[StorageStrategy]], bool]:
        try:
            from scipy.optimize import Bounds, LinearConstraint, milp
        except ImportError as exc:  # pragma: no cover - scipy is a dependency
            raise OptimizationError(f"scipy.optimize.milp unavailable: {exc}") from exc

        x_index: dict[tuple[str, StorageStrategy], int] = {}
        for node in nodes:
            for strategy in cands[node]:
                x_index[(node, strategy)] = len(x_index)
        n_x = len(x_index)

        classes: list[tuple[str, Direction, float]] = []
        for node in nodes:
            for direction, weight in workload.directions_for(node).items():
                if weight > 0:
                    classes.append((node, direction, weight))
        y_index: dict[tuple[int, StorageStrategy], int] = {}
        for ci, (node, _, _) in enumerate(classes):
            for strategy in cands[node]:
                y_index[(ci, strategy)] = n_x + len(y_index)
        n_vars = n_x + len(y_index)

        cost = np.zeros(n_vars)
        for (node, strategy), xi in x_index.items():
            disk = self.cost_model.disk_bytes(node, strategy)
            run = self.cost_model.write_seconds(node, strategy)
            cost[xi] = eps * (disk + beta * run)
        for (ci, strategy), yi in y_index.items():
            node, direction, weight = classes[ci]
            cost[yi] = weight * self._query_cost(node, strategy, direction, workload.cells)

        rows, lbs, ubs = [], [], []

        def add_row(row, lb, ub):
            rows.append(row)
            lbs.append(lb)
            ubs.append(ub)

        # Each accessed (node, class) must be served by exactly one strategy.
        for ci, (node, _, _) in enumerate(classes):
            row = np.zeros(n_vars)
            for strategy in cands[node]:
                row[y_index[(ci, strategy)]] = 1.0
            add_row(row, 1.0, 1.0)
        # y <= x
        for (ci, strategy), yi in y_index.items():
            node = classes[ci][0]
            row = np.zeros(n_vars)
            row[yi] = 1.0
            row[x_index[(node, strategy)]] = -1.0
            add_row(row, -np.inf, 0.0)
        # At least one strategy per node.
        for node in nodes:
            row = np.zeros(n_vars)
            for strategy in cands[node]:
                row[x_index[(node, strategy)]] = 1.0
            add_row(row, 1.0, np.inf)
        # Budgets.
        disk_row = np.zeros(n_vars)
        run_row = np.zeros(n_vars)
        for (node, strategy), xi in x_index.items():
            disk_row[xi] = self.cost_model.disk_bytes(node, strategy)
            run_row[xi] = self.cost_model.write_seconds(node, strategy)
        add_row(disk_row, -np.inf, float(max_disk))
        if max_run is not None:
            add_row(run_row, -np.inf, float(max_run))

        lower = np.zeros(n_vars)
        upper = np.ones(n_vars)
        for node in nodes:
            for strategy in pins.get(node, []):
                if (node, strategy) in x_index:
                    lower[x_index[(node, strategy)]] = 1.0
        integrality = np.zeros(n_vars)
        integrality[:n_x] = 1

        result = milp(
            c=cost,
            constraints=LinearConstraint(np.asarray(rows), np.asarray(lbs), np.asarray(ubs)),
            integrality=integrality,
            bounds=Bounds(lower, upper),
        )
        if not result.success:
            raise OptimizationError(f"MILP solve failed: {result.message}")
        plan: dict[str, list[StorageStrategy]] = {}
        for (node, strategy), xi in x_index.items():
            if result.x[xi] > 0.5:
                plan.setdefault(node, []).append(strategy)
        return plan, True

    # -- greedy fallback ---------------------------------------------------------------

    def _solve_greedy(
        self,
        nodes: list[str],
        cands: dict[str, list[StorageStrategy]],
        pins: dict[str, list[StorageStrategy]],
        workload: WorkloadProfile,
        max_disk: float,
        max_run: float | None,
    ) -> dict[str, list[StorageStrategy]]:
        plan = {node: [BLACKBOX] for node in nodes}
        for node, strategies in pins.items():
            for strategy in strategies:
                if strategy not in plan[node]:
                    plan[node].append(strategy)

        def objective() -> float:
            total = 0.0
            for node in nodes:
                for direction, weight in workload.directions_for(node).items():
                    best = min(
                        self._query_cost(node, s, direction, workload.cells)
                        for s in plan[node]
                    )
                    total += weight * best
            return total

        def disk_used() -> float:
            return sum(
                self.cost_model.disk_bytes(n, s) for n in nodes for s in plan[n]
            )

        def run_used() -> float:
            return sum(
                self.cost_model.write_seconds(n, s) for n in nodes for s in plan[n]
            )

        improved = True
        while improved:
            improved = False
            base = objective()
            best_gain, best_pick = 0.0, None
            for node in nodes:
                for strategy in cands[node]:
                    if strategy in plan[node]:
                        continue
                    extra_disk = self.cost_model.disk_bytes(node, strategy)
                    extra_run = self.cost_model.write_seconds(node, strategy)
                    if disk_used() + extra_disk > max_disk:
                        continue
                    if max_run is not None and run_used() + extra_run > max_run:
                        continue
                    plan[node].append(strategy)
                    gain = base - objective()
                    plan[node].remove(strategy)
                    if gain > best_gain:
                        best_gain, best_pick = gain, (node, strategy)
            if best_pick is not None and best_gain > 0:
                plan[best_pick[0]].append(best_pick[1])
                improved = True
        return plan

    # -- result assembly ----------------------------------------------------------------

    def _finalize(
        self,
        operators: dict[str, Operator],
        plan: dict[str, list[StorageStrategy]],
        workload: WorkloadProfile,
        used_ilp: bool,
    ) -> OptimizationResult:
        for node in operators:
            strategies = plan.setdefault(node, [])
            if not strategies:
                strategies.append(BLACKBOX)
        disk = sum(
            self.cost_model.disk_bytes(node, s)
            for node, strategies in plan.items()
            for s in strategies
        )
        run = sum(
            self.cost_model.write_seconds(node, s)
            for node, strategies in plan.items()
            for s in strategies
        )
        query = 0.0
        for node, strategies in plan.items():
            for direction, weight in workload.directions_for(node).items():
                query += weight * min(
                    self._query_cost(node, s, direction, workload.cells)
                    for s in strategies
                )
        return OptimizationResult(
            plan=plan,
            est_disk_bytes=disk,
            est_runtime_seconds=run,
            est_query_seconds=query,
            used_ilp=used_ilp,
        )
