"""Genomics (medulloblastoma relapse) benchmark: workflow, data, queries (§II-B).

The Broad Institute's patient matrix is private, so :func:`generate_matrix`
synthesises a 56x100 patient-feature matrix with the same shape (55 feature
rows plus a relapse-label row, 100 patient columns) and the paper's scaling
procedure — replicate the patient columns ``scale`` times (the paper reports
the 100x point).

The Figure-2 workflow has 10 built-in mapping operators and four payload
UDFs: E/G extract a feature subset from the (transposed) training/test
matrices, F fits a per-feature Bayesian relapse model, and H scores test
patients against the model.  Unlike astronomy, these UDFs have no locality:
E/G shuffle columns, F has fanin ~2x#patients per model cell, and H touches
the whole model for every prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.core.modes import LineageMode
from repro.core.query import QueryRequest
from repro.ops import Clip, LogTransform, Scale, Threshold, Transpose
from repro.ops.base import Operator
from repro.workflow.spec import WorkflowSpec

__all__ = [
    "generate_matrix",
    "build_spec",
    "ExtractFeatures",
    "TrainModel",
    "Predict",
    "GenomicsBenchmark",
    "UDF_NODES",
    "BUILTIN_NODES",
    "N_FEATURES_SELECTED",
]

UDF_NODES = ("extract_train", "train_model", "extract_test", "predict")
BUILTIN_NODES = (
    "t_transpose",
    "t_log",
    "t_norm",
    "m_scale",
    "m_clip",
    "s_transpose",
    "s_log",
    "s_norm",
    "p_scale",
    "p_thresh",
)

#: how many feature columns the extraction UDFs keep
N_FEATURES_SELECTED = 10
#: row index of the relapse label in the raw 56-row matrix
LABEL_ROW = 55


def generate_matrix(
    n_features: int = 55,
    n_patients: int = 100,
    scale: int = 1,
    seed: int = 0,
    relapse_rate: float = 0.35,
) -> SciArray:
    """A (n_features+1) x (n_patients*scale) matrix; last row = relapse label.

    Columns are replicated ``scale`` times (the paper's scaling procedure);
    small per-replica noise keeps feature variances realistic without
    changing lineage volume.
    """
    rng = np.random.default_rng(seed)
    relapse = (rng.random(n_patients) < relapse_rate).astype(np.float64)
    base = rng.gamma(2.0, 2.0, size=(n_features, n_patients))
    # A handful of informative features shift with the relapse label.
    informative = rng.choice(n_features, size=12, replace=False)
    base[informative] += relapse[None, :] * rng.uniform(2.0, 5.0, size=(12, 1))
    matrix = np.vstack([base, relapse[None, :]])
    if scale > 1:
        tiled = np.tile(matrix, (1, scale))
        noise = rng.normal(0.0, 0.01, size=tiled.shape)
        noise[-1, :] = 0.0  # labels stay binary
        matrix = tiled + noise
    return SciArray.from_numpy(matrix)


class _PayloadCoordMixin:
    """Shared fast paths for UDFs whose payload is one packed coordinate."""

    @staticmethod
    def _pack_payloads(packed: np.ndarray) -> np.ndarray:
        return packed.astype("<i8").view(np.uint8).reshape(-1, 8)

    @staticmethod
    def _unpack_payloads(payloads) -> np.ndarray:
        if isinstance(payloads, np.ndarray):
            return payloads.reshape(-1, 8).copy().view("<i8").ravel().astype(np.int64)
        return np.frombuffer(b"".join(payloads), dtype="<i8").astype(np.int64)


class ExtractFeatures(Operator, _PayloadCoordMixin):
    """UDF E/G: keep the ``n_select`` highest-variance feature columns.

    Input is the transposed, normalised matrix (patients x 56).  The output
    is patients x (n_select [+ label]); each output cell comes from exactly
    one input cell, but *which* one is data-dependent, so this is a payload
    operator (payload = packed source coordinate), not a mapping operator.
    """

    arity = 1
    payload_uniform = True  # single-cell pairs
    # Every output cell has a source, so a full forward frontier covers the
    # whole output; the reverse is false (unselected columns are dropped).
    entire_array_safe_forward = True

    def __init__(
        self,
        n_select: int = N_FEATURES_SELECTED,
        include_label: bool = True,
        label_col: int = LABEL_ROW,
        name: str | None = None,
    ):
        super().__init__(name)
        self.n_select = int(n_select)
        self.include_label = bool(include_label)
        self.label_col = int(label_col)
        self._selected: np.ndarray | None = None

    def infer_schema(self, input_schemas):
        schema = input_schemas[0]
        width = self.n_select + (1 if self.include_label else 0)
        if schema.ndim != 2 or schema.shape[1] <= max(self.n_select, self.label_col):
            raise ValueError(f"{self.name}: input too narrow for extraction")
        return schema.with_shape((schema.shape[0], width))

    def _select(self, values: np.ndarray) -> np.ndarray:
        candidates = [c for c in range(values.shape[1]) if c != self.label_col]
        variances = values[:, candidates].var(axis=0)
        order = np.argsort(variances)[::-1][: self.n_select]
        selected = np.sort(np.asarray(candidates, dtype=np.int64)[order])
        if self.include_label:
            selected = np.concatenate([selected, [self.label_col]])
        return selected

    def compute(self, inputs: list[SciArray]) -> SciArray:
        values = inputs[0].values()
        self._selected = self._select(values)
        return SciArray.from_numpy(values[:, self._selected].copy(), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return frozenset({LineageMode.FULL, LineageMode.PAY, LineageMode.BLACKBOX})

    def _source_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(out_coords, in_coords) row-aligned, for every output cell."""
        n_rows, n_cols = self.output_shape
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), n_cols)
        out_cols = np.tile(np.arange(n_cols, dtype=np.int64), n_rows)
        in_cols = np.asarray(self._selected, dtype=np.int64)[out_cols]
        out_coords = np.stack([rows, out_cols], axis=1)
        in_coords = np.stack([rows, in_cols], axis=1)
        return out_coords, in_coords

    def write_lineage(self, inputs, output, ctx) -> None:
        out_coords, in_coords = self._source_coords()
        if ctx.wants_full:
            ctx.lwrite_elementwise(out_coords, in_coords)
        if ctx.wants_payload:
            packed = C.pack_coords(in_coords, self.input_shapes[0])
            ctx.lwrite_payload_batch(out_coords, self._pack_payloads(packed))

    def map_p_many(self, out_coords, payload, input_idx):
        packed = np.frombuffer(payload, dtype="<i8").astype(np.int64)
        return C.unpack_coords(packed, self.input_shapes[0])

    def map_p_batch(self, out_coords, payloads, input_idx):
        packed = self._unpack_payloads(payloads)
        cells = C.unpack_coords(packed, self.input_shapes[0])
        return cells, np.arange(cells.shape[0], dtype=np.int64)


class TrainModel(Operator):
    """UDF F: per-feature Bayesian relapse model.

    Input: patients x (F features + label).  Output: F x 2 — class-
    conditional feature means for relapse / no-relapse.  A model cell
    depends on its whole feature column *and* the whole label column
    (fanin = 2 x #patients; these are the "very large fanins" that make BQ1
    slow on forward-optimized stores).  Payload = packed feature column id.
    """

    arity = 1
    payload_uniform = True
    entire_array_safe = True  # every input column feeds some model cell

    def compute(self, inputs: list[SciArray]) -> SciArray:
        values = inputs[0].values()
        features, labels = values[:, :-1], values[:, -1] > 0.5
        n_relapse = max(int(labels.sum()), 1)
        n_clean = max(int((~labels).sum()), 1)
        w_relapse = features[labels].sum(axis=0) / n_relapse
        w_clean = features[~labels].sum(axis=0) / n_clean
        model = np.stack([w_relapse, w_clean], axis=1)
        return SciArray.from_numpy(model, name=self.name)

    def infer_schema(self, input_schemas):
        schema = input_schemas[0]
        return schema.with_shape((schema.shape[1] - 1, 2))

    def supported_modes(self) -> frozenset[LineageMode]:
        return frozenset({LineageMode.FULL, LineageMode.PAY, LineageMode.BLACKBOX})

    def _column_cells(self, col: int) -> np.ndarray:
        n_patients, n_cols = self.input_shapes[0]
        rows = np.arange(n_patients, dtype=np.int64)
        feature = np.stack([rows, np.full_like(rows, col)], axis=1)
        label = np.stack([rows, np.full_like(rows, n_cols - 1)], axis=1)
        return np.concatenate([feature, label])

    def write_lineage(self, inputs, output, ctx) -> None:
        n_features = self.output_shape[0]
        n_patients, n_cols = self.input_shapes[0]
        # pair f: out cells [[f,0],[f,1]]; in cells = feature column f plus
        # the label column — all emitted as one columnar descriptor
        f_idx = np.repeat(np.arange(n_features, dtype=np.int64), 2)
        out_coords = np.stack(
            [f_idx, np.tile(np.asarray([0, 1], dtype=np.int64), n_features)], axis=1
        )
        out_offsets = np.arange(n_features + 1, dtype=np.int64) * 2
        if ctx.wants_full:
            rows = np.arange(n_patients, dtype=np.int64)
            cols = np.empty((n_features, 2 * n_patients), dtype=np.int64)
            cols[:, :n_patients] = np.arange(n_features, dtype=np.int64)[:, None]
            cols[:, n_patients:] = n_cols - 1
            in_coords = np.stack(
                [np.tile(np.concatenate([rows, rows]), n_features), cols.ravel()],
                axis=1,
            )
            in_offsets = np.arange(n_features + 1, dtype=np.int64) * (2 * n_patients)
            ctx.lwrite_batch(out_coords, out_offsets, (in_coords,), (in_offsets,))
        if ctx.wants_payload:
            payloads = np.arange(n_features, dtype="<u4").tobytes()
            payload_offsets = np.arange(n_features + 1, dtype=np.int64) * 4
            ctx.lwrite_payload_regions(
                out_coords, out_offsets, payloads, payload_offsets
            )

    def map_p_many(self, out_coords, payload, input_idx):
        col = int.from_bytes(payload[:4], "little")
        return self._column_cells(col)

    def runtime_cost_hint(self) -> float:
        return 2.0


class Predict(Operator):
    """UDF H: score each test patient against the model.

    Inputs: (model F x 2, test features patients x F).  Output: patients x 1
    relapse probability.  A prediction depends on the entire model and on
    the patient's feature row; payload = packed patient row index.
    """

    arity = 2
    payload_uniform = True
    entire_array_safe = True

    def infer_schema(self, input_schemas):
        model, features = input_schemas
        if model.shape[0] != features.shape[1]:
            raise ValueError(
                f"{self.name}: model rows {model.shape[0]} != feature cols "
                f"{features.shape[1]}"
            )
        return features.with_shape((features.shape[0], 1))

    def compute(self, inputs: list[SciArray]) -> SciArray:
        model = inputs[0].values()
        feats = inputs[1].values()
        d_relapse = np.abs(feats - model[:, 0][None, :]).sum(axis=1)
        d_clean = np.abs(feats - model[:, 1][None, :]).sum(axis=1)
        score = d_clean / (d_relapse + d_clean + 1e-9)
        return SciArray.from_numpy(score.reshape(-1, 1), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return frozenset({LineageMode.FULL, LineageMode.PAY, LineageMode.BLACKBOX})

    def _model_cells(self) -> np.ndarray:
        return C.all_coords(self.input_shapes[0])

    def _row_cells(self, row: int) -> np.ndarray:
        n_feats = self.input_shapes[1][1]
        cols = np.arange(n_feats, dtype=np.int64)
        return np.stack([np.full_like(cols, row), cols], axis=1)

    def write_lineage(self, inputs, output, ctx) -> None:
        n_patients = self.output_shape[0]
        if ctx.wants_full:
            # pair p: out [[p,0]]; in0 = the whole model, in1 = patient p's
            # feature row — one columnar descriptor for all patients
            model_cells = self._model_cells()
            n_feats = self.input_shapes[1][1]
            patients = np.arange(n_patients, dtype=np.int64)
            out_coords = np.stack([patients, np.zeros_like(patients)], axis=1)
            one_cell = np.arange(n_patients + 1, dtype=np.int64)
            in_model = np.tile(model_cells, (n_patients, 1))
            in_row = np.stack(
                [
                    np.repeat(patients, n_feats),
                    np.tile(np.arange(n_feats, dtype=np.int64), n_patients),
                ],
                axis=1,
            )
            ctx.lwrite_batch(
                out_coords,
                one_cell,
                (in_model, in_row),
                (one_cell * model_cells.shape[0], one_cell * n_feats),
            )
        if ctx.wants_payload:
            out_coords = np.stack(
                [
                    np.arange(n_patients, dtype=np.int64),
                    np.zeros(n_patients, dtype=np.int64),
                ],
                axis=1,
            )
            payloads = (
                np.arange(n_patients, dtype="<i8").view(np.uint8).reshape(-1, 8)
            )
            ctx.lwrite_payload_batch(out_coords, payloads)

    def map_p_many(self, out_coords, payload, input_idx):
        if input_idx == 0:
            return self._model_cells()
        row = int(np.frombuffer(payload[:8], dtype="<i8")[0])
        return self._row_cells(row)

    def map_p_batch(self, out_coords, payloads, input_idx):
        out_coords = C.as_coord_array(out_coords, ndim=2)
        n = out_coords.shape[0]
        if input_idx == 0:
            cells = self._model_cells()
            reps = np.tile(cells, (n, 1))
            rows = np.repeat(np.arange(n, dtype=np.int64), cells.shape[0])
            return reps, rows
        if isinstance(payloads, np.ndarray):
            patient = payloads.reshape(-1, 8).copy().view("<i8").ravel().astype(np.int64)
        else:
            patient = np.frombuffer(b"".join(payloads), dtype="<i8").astype(np.int64)
        n_feats = self.input_shapes[1][1]
        cols = np.tile(np.arange(n_feats, dtype=np.int64), n)
        prows = np.repeat(patient, n_feats)
        cells = np.stack([prows, cols], axis=1)
        rows = np.repeat(np.arange(n, dtype=np.int64), n_feats)
        return cells, rows

    def runtime_cost_hint(self) -> float:
        return 2.0


def build_spec() -> WorkflowSpec:
    """The Figure-2 workflow: 10 built-ins + UDFs E, F, G, H."""
    spec = WorkflowSpec(name="genomics")
    spec.add_source("train")
    spec.add_source("test")
    # modelling phase
    spec.add_node("t_transpose", Transpose(), ["train"])
    spec.add_node("t_log", LogTransform(), ["t_transpose"])
    spec.add_node("t_norm", Scale(0.1), ["t_log"])
    spec.add_node("extract_train", ExtractFeatures(include_label=True), ["t_norm"])
    spec.add_node("train_model", TrainModel(), ["extract_train"])
    spec.add_node("m_scale", Scale(10.0), ["train_model"])
    spec.add_node("m_clip", Clip(0.0, 100.0), ["m_scale"])
    # testing phase
    spec.add_node("s_transpose", Transpose(), ["test"])
    spec.add_node("s_log", LogTransform(), ["s_transpose"])
    spec.add_node("s_norm", Scale(0.1), ["s_log"])
    spec.add_node("extract_test", ExtractFeatures(include_label=False), ["s_norm"])
    spec.add_node("predict", Predict(), ["m_clip", "extract_test"])
    spec.add_node("p_scale", Scale(100.0), ["predict"])
    spec.add_node("p_thresh", Threshold(50.0), ["p_scale"])
    return spec


_MODEL_BACKWARD_PATH = (
    ("train_model", 0),
    ("extract_train", 0),
    ("t_norm", 0),
    ("t_log", 0),
    ("t_transpose", 0),
)

_FORWARD_TO_MODEL = (
    ("t_transpose", 0),
    ("t_log", 0),
    ("t_norm", 0),
    ("extract_train", 0),
    ("train_model", 0),
)


@dataclass
class GenomicsBenchmark:
    """Data + workflow + the four benchmark queries (BQ0, BQ1, FQ0, FQ1)."""

    scale: int = 100
    seed: int = 0

    def __post_init__(self):
        self.train = generate_matrix(scale=self.scale, seed=self.seed)
        self.test = generate_matrix(scale=self.scale, seed=self.seed + 1)

    def inputs(self) -> dict[str, SciArray]:
        return {"train": self.train, "test": self.test}

    def build_spec(self) -> WorkflowSpec:
        return build_spec()

    def queries(self, instance, n_cells: int = 24) -> dict[str, QueryRequest]:
        rng = np.random.default_rng(self.seed + 7)
        n_pred = instance.output_shape("p_thresh")[0]
        pred_rows = rng.choice(n_pred, size=min(n_cells, n_pred), replace=False)
        pred_cells = np.stack(
            [pred_rows, np.zeros_like(pred_rows)], axis=1
        ).astype(np.int64)
        model_shape = instance.output_shape("train_model")
        model_cells = np.stack(
            [
                rng.choice(model_shape[0], size=min(n_cells, model_shape[0]), replace=False),
                rng.integers(0, 2, size=min(n_cells, model_shape[0])),
            ],
            axis=1,
        ).astype(np.int64)
        train_shape = instance.source_array("train").shape
        train_cells = np.stack(
            [
                rng.integers(0, train_shape[0] - 1, size=n_cells),
                rng.integers(0, train_shape[1], size=n_cells),
            ],
            axis=1,
        ).astype(np.int64)
        return {
            # a relapse prediction back to the supporting training data
            "BQ0": QueryRequest.backward(
                pred_cells,
                (
                    ("p_thresh", 0),
                    ("p_scale", 0),
                    ("predict", 0),
                    ("m_clip", 0),
                    ("m_scale", 0),
                )
                + _MODEL_BACKWARD_PATH,
            ),
            # a model feature back to the contributing training values
            "BQ1": QueryRequest.backward(model_cells, _MODEL_BACKWARD_PATH),
            # training values forward to the model
            "FQ0": QueryRequest.forward(train_cells, _FORWARD_TO_MODEL),
            # training values forward to the predictions they affected
            "FQ1": QueryRequest.forward(
                train_cells,
                _FORWARD_TO_MODEL
                + (
                    ("m_scale", 0),
                    ("m_clip", 0),
                    ("predict", 0),
                    ("p_scale", 0),
                    ("p_thresh", 0),
                ),
            ),
        }
