"""Operator library: the SciDB-style built-ins plus the UDF base classes."""

from repro.ops.aggregates import (
    CumulativeSum,
    GlobalMean,
    GlobalReduce,
    Reduce,
    Standardize,
)
from repro.ops.base import LineageContext, Operator
from repro.ops.convolution import Convolve2D, dilate_coords, gaussian_kernel
from repro.ops.elementwise import (
    Add,
    AddConstant,
    BinaryElementwise,
    BroadcastCombine,
    BroadcastSubtract,
    Clip,
    ClipMin,
    Divide,
    DivideConstant,
    LogTransform,
    Minimum,
    Scale,
    SubtractConstant,
    Threshold,
    UnaryElementwise,
)
from repro.ops.join import AttributeJoin, CrossProduct
from repro.ops.linalg import MatMul, MatrixInverse, Transpose
from repro.ops.spatial import Flip, Rotate90, Shift, WindowReduce
from repro.ops.reshape import Concat, Pad, Reshape, SliceOp, Subsample

__all__ = [
    "Operator",
    "LineageContext",
    # elementwise
    "UnaryElementwise",
    "BinaryElementwise",
    "BroadcastCombine",
    "Scale",
    "AddConstant",
    "SubtractConstant",
    "DivideConstant",
    "ClipMin",
    "Clip",
    "LogTransform",
    "Threshold",
    "Add",
    "Divide",
    "Minimum",
    "BroadcastSubtract",
    # linalg
    "Transpose",
    "MatMul",
    "MatrixInverse",
    # convolution
    "Convolve2D",
    "gaussian_kernel",
    "dilate_coords",
    # spatial
    "Shift",
    "Flip",
    "Rotate90",
    "WindowReduce",
    # reshape
    "SliceOp",
    "Concat",
    "Subsample",
    "Reshape",
    "Pad",
    # aggregates
    "Reduce",
    "GlobalReduce",
    "GlobalMean",
    "Standardize",
    "CumulativeSum",
    # join
    "AttributeJoin",
    "CrossProduct",
]
