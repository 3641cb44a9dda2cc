"""An executed workflow: versions, bound operators, per-node timings.

``W_j`` in the paper's notation — one run of a workflow specification on a
concrete dataset.  The instance remembers enough to (a) re-run any operator
from its persisted input versions (black-box lineage) and (b) validate
lineage query paths against the actual dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arrays.array import SciArray
from repro.arrays.versions import VersionStore
from repro.errors import QueryError, WorkflowError
from repro.ops.base import Operator
from repro.workflow.spec import WorkflowSpec

__all__ = ["NodeExecution", "WorkflowInstance"]


@dataclass
class NodeExecution:
    """Bookkeeping for one operator invocation inside an instance."""

    node: str
    operator: Operator
    input_versions: tuple[int, ...]
    output_version: int
    compute_seconds: float = 0.0
    lineage_seconds: float = 0.0


@dataclass
class WorkflowInstance:
    """The result of executing a :class:`WorkflowSpec` on concrete inputs."""

    spec: WorkflowSpec
    versions: VersionStore
    source_versions: dict[str, int] = field(default_factory=dict)
    executions: dict[str, NodeExecution] = field(default_factory=dict)

    # -- array access --------------------------------------------------------

    def source_array(self, name: str) -> SciArray:
        if name not in self.source_versions:
            raise WorkflowError(f"unknown source {name!r}")
        return self.versions.get(self.source_versions[name]).array

    def output_array(self, node: str) -> SciArray:
        if node not in self.executions:
            raise WorkflowError(f"node {node!r} has not executed")
        return self.versions.get(self.executions[node].output_version).array

    def array_of(self, name: str) -> SciArray:
        """Array produced by a node, or a source array."""
        if name in self.executions:
            return self.output_array(name)
        return self.source_array(name)

    def input_arrays(self, node: str) -> list[SciArray]:
        execution = self.executions[node]
        return [self.versions.get(v).array for v in execution.input_versions]

    def operator(self, node: str) -> Operator:
        if node not in self.executions:
            raise WorkflowError(f"node {node!r} has not executed")
        return self.executions[node].operator

    # -- shapes (needed constantly by the query executor) ------------------------

    def output_shape(self, node: str) -> tuple[int, ...]:
        return self.output_array(node).shape

    # -- query-path validation (§IV query model) -----------------------------------

    def validate_backward_path(self, path) -> None:
        """``P_{i+1}`` must produce input ``idx_i`` of ``P_i``."""
        for step in path:
            if step.node not in self.executions:
                raise QueryError(f"query path visits unexecuted node {step.node!r}")
            arity = self.operator(step.node).arity
            if not 0 <= step.input_idx < arity:
                raise QueryError(
                    f"node {step.node!r} has no input index {step.input_idx}"
                )
        for cur, nxt in zip(path, path[1:]):
            producer = self.spec.producer(cur.node, cur.input_idx)
            if producer != nxt.node:
                raise QueryError(
                    f"backward path broken: input {cur.input_idx} of {cur.node!r} "
                    f"is produced by {producer!r}, not {nxt.node!r}"
                )

    def validate_forward_path(self, path) -> None:
        """The output of ``P_{i-1}`` must be input ``idx_i`` of ``P_i``."""
        for step in path:
            if step.node not in self.executions:
                raise QueryError(f"query path visits unexecuted node {step.node!r}")
            arity = self.operator(step.node).arity
            if not 0 <= step.input_idx < arity:
                raise QueryError(
                    f"node {step.node!r} has no input index {step.input_idx}"
                )
        for prev, cur in zip(path, path[1:]):
            producer = self.spec.producer(cur.node, cur.input_idx)
            if producer != prev.node:
                raise QueryError(
                    f"forward path broken: input {cur.input_idx} of {cur.node!r} "
                    f"is produced by {producer!r}, not {prev.node!r}"
                )

    # -- accounting ---------------------------------------------------------------------

    def total_compute_seconds(self) -> float:
        return sum(e.compute_seconds for e in self.executions.values())

    def total_lineage_seconds(self) -> float:
        return sum(e.lineage_seconds for e in self.executions.values())
