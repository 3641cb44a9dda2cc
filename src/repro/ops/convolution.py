"""Convolution built-ins — windowed mapping operators.

A convolution output cell depends on the input cells under the kernel
support centred at its coordinate; that is computable from coordinates and
the kernel shape alone, so convolutions are mapping operators (§V-A.2 lists
convolution among the built-ins with implemented mapping functions).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.core.modes import LineageMode
from repro.errors import OperatorError
from repro.ops.base import Operator

__all__ = ["Convolve2D", "gaussian_kernel", "dilate_coords"]

_MAPPING_MODES = frozenset({LineageMode.MAP, LineageMode.BLACKBOX})


def gaussian_kernel(size: int = 3, sigma: float = 1.0) -> np.ndarray:
    """Normalised 2-D Gaussian kernel of odd ``size``."""
    if size % 2 != 1 or size < 1:
        raise OperatorError("gaussian kernel size must be odd and positive")
    half = size // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    xx, yy = np.meshgrid(ax, ax)
    kernel = np.exp(-(xx**2 + yy**2) / (2.0 * sigma**2))
    return kernel / kernel.sum()


def dilate_coords(
    coords: np.ndarray, offsets: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Union of ``coords + offsets`` clipped to ``shape`` and deduplicated.

    The workhorse for windowed mapping functions: each coordinate expands to
    its whole neighbourhood in one vectorised pass.
    """
    coords = C.as_coord_array(coords, ndim=len(shape))
    if coords.shape[0] == 0 or offsets.shape[0] == 0:
        return C.empty_coords(len(shape))
    expanded = (coords[:, None, :] + offsets[None, :, :]).reshape(-1, len(shape))
    expanded = C.clip_coords(expanded, shape)
    return C.unique_coords(expanded, shape)


class Convolve2D(Operator):
    """2-D convolution with constant-zero boundary handling."""

    arity = 1
    entire_array_safe = True

    def __init__(self, kernel: np.ndarray, name: str | None = None):
        super().__init__(name)
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2 or any(s % 2 == 0 for s in kernel.shape):
            raise OperatorError("convolution kernels must be 2-D with odd sides")
        self.kernel = kernel
        half = np.asarray(kernel.shape, dtype=np.int64) // 2
        grids = np.meshgrid(
            *(np.arange(-h, h + 1, dtype=np.int64) for h in half), indexing="ij"
        )
        self._offsets = np.stack([g.ravel() for g in grids], axis=1)

    def infer_schema(self, input_schemas):
        if input_schemas[0].ndim != 2:
            raise OperatorError(f"{self.name}: expects a 2-D array")
        return input_schemas[0]

    def compute(self, inputs: list[SciArray]) -> SciArray:
        smoothed = ndimage.convolve(
            inputs[0].values().astype(np.float64), self.kernel, mode="constant"
        )
        return SciArray.from_numpy(smoothed, name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return dilate_coords(out_coords, self._offsets, self.input_shapes[0])

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        # Forward lineage mirrors the kernel support (offsets are symmetric
        # around zero by construction, so the same offset set applies).
        return dilate_coords(in_coords, self._offsets, self.output_shape)
