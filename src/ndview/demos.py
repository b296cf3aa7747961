"""Reusable demo pipelines consumed by both the test suite and the CLI:
coordinate grids with operation/allocation accounting, polynomial evaluation
strategies, divided differences from slices, and pinhole-camera projection.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .broadcast import broadcast_view, newaxis_view
from .core import (
    ArrayView,
    arange,
    array_from,
    create,
    gather,
    get_element,
    materialize,
    reshape,
    set_element,
    slice_view,
    transpose,
)
from .counters import counting
from .dtypes import DType, float64, int64, make_struct_dtype, uint64
from .errors import ShapeError
from .kernels import (
    dot,
    elementwise_binary,
    elementwise_binary_inplace,
    elementwise_unary,
    scalar_binary,
)

__all__ = [
    "GridMethod",
    "GridReport",
    "mgrid",
    "ogrid",
    "distance_grid",
    "EvalStrategy",
    "evaluate_f",
    "forward_diff",
    "central_diff",
    "project_points",
    "measurement_dtype",
    "sample_measurements",
    "MutableText",
]


class GridMethod(Enum):
    DENSE = "dense"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class GridReport:
    """Accounting snapshot of one distance-grid computation."""

    method: str
    n: int
    scalar_ops: int
    buffers_allocated: int
    bytes_allocated: int
    checksum: float

    def to_text(self) -> str:
        """Flat key=value block, one field per line."""
        return "\n".join([
            f"method={self.method}",
            f"n={self.n}",
            f"scalar_ops={self.scalar_ops}",
            f"buffers_allocated={self.buffers_allocated}",
            f"bytes_allocated={self.bytes_allocated}",
            f"checksum={self.checksum!r}",
        ])


def _axis_vector(start: int, stop: int, axis: int, rank: int) -> ArrayView:
    vec = arange(start, stop, 1, int64)
    if rank == 1:
        return vec
    shape = [1] * rank
    shape[axis] = vec.shape[0]
    return reshape(vec, shape)


def mgrid(ranges: Sequence[tuple[int, int]]) -> list[ArrayView]:
    """Dense integer coordinate grids: one fully materialized array per axis.

    Array k has the full d-dimensional shape and varies along axis k only.
    """
    vecs = ogrid(ranges)
    if len(vecs) == 1:
        return vecs
    full = tuple(stop - start for start, stop in ranges)
    return [materialize(broadcast_view(vec, full)) for vec in vecs]


def ogrid(ranges: Sequence[tuple[int, int]]) -> list[ArrayView]:
    """Orientation-only coordinate vectors meant for broadcast combination.

    Vector k has extent along axis k and extent 1 elsewhere, so the total
    allocation is just the sum of the axis lengths.
    """
    if not ranges:
        raise ShapeError("a grid needs at least one axis range")
    for start, stop in ranges:
        if stop <= start:
            raise ShapeError(f"empty axis range ({start}, {stop})")
    rank = len(ranges)
    return [_axis_vector(start, stop, axis, rank)
            for axis, (start, stop) in enumerate(ranges)]


def distance_grid(n: int, method: GridMethod | str = GridMethod.BROADCAST
                  ) -> tuple[ArrayView, GridReport]:
    """Euclidean distance from the origin over an n^3 grid of integer offsets.

    The axis range is -floor(n/2) .. n - floor(n/2), so n=200 covers
    -100..99. The dense method squares and adds full n^3 grids (6*n^3 scalar
    ops); the broadcast method combines three axis vectors through zero
    strides (3n + n^2 + 2*n^3 scalar ops) and allocates far less.
    """
    method = GridMethod(method) if not isinstance(method, GridMethod) else method
    if n < 1:
        raise ShapeError(f"grid extent must be positive, got {n}")
    lo = -(n // 2)
    ranges = [(lo, n + lo)] * 3
    with counting() as tally:
        if method is GridMethod.DENSE:
            i, j, k = mgrid(ranges)
        else:
            i, j, k = ogrid(ranges)
        a = elementwise_unary("square", i)
        b = elementwise_unary("square", j)
        c = elementwise_unary("square", k)
        s = elementwise_binary("add", a, b)
        s = elementwise_binary("add", s, c)
        r = elementwise_unary("sqrt", s)
    checksum = 0.0
    for row in range(n):  # one leading row at a time, in C-order, so no whole-grid list is built
        for v in gather(r[row]):
            checksum += v
    report = GridReport(method=method.value, n=n, scalar_ops=tally.scalar_ops,
                        buffers_allocated=tally.buffers_allocated,
                        bytes_allocated=tally.bytes_allocated, checksum=checksum)
    return r, report


class EvalStrategy(Enum):
    PER_ELEMENT = "per_element"
    VECTORIZED = "vectorized"
    INPLACE = "inplace"


def evaluate_f(x: ArrayView, strategy: EvalStrategy | str) -> ArrayView:
    """f(x) = x^2 - 3x + 4 under three execution strategies.

    per_element loops with scalar get/set; vectorized allocates one buffer
    per stage (x^2, 3x, the subtraction, the addition); inplace reuses the
    x^2 buffer for the last two stages and allocates exactly two. All three
    apply the stages in the same order, so results agree exactly.
    """
    strategy = EvalStrategy(strategy) if not isinstance(strategy, EvalStrategy) else strategy
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D input, got shape {x.shape}")
    if strategy is EvalStrategy.PER_ELEMENT:
        out = create(x.shape, x.dtype)
        for i in range(x.shape[0]):
            v = get_element(x, (i,))
            set_element(out, (i,), (v * v) - (3 * v) + 4)
        return out
    if strategy is EvalStrategy.VECTORIZED:
        a = elementwise_unary("square", x)
        b = scalar_binary("mul", x, 3, scalar_side="left")
        c = elementwise_binary("sub", a, b)
        return scalar_binary("add", c, 4)
    fx = elementwise_unary("square", x)
    b = scalar_binary("mul", x, 3, scalar_side="left")
    elementwise_binary_inplace("sub", fx, b)
    elementwise_binary_inplace("add", fx, 4)
    return fx


def forward_diff(x: ArrayView, y: ArrayView) -> ArrayView:
    """Forward divided difference (y[i+1]-y[i]) / (x[i+1]-x[i]), length n-1.

    Built purely from slice views and element-wise kernels.
    """
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    if x.shape[0] < 2:
        raise ShapeError("divided difference needs at least 2 samples")
    dy = elementwise_binary("sub", slice_view(y, [slice(1, None)]),
                            slice_view(y, [slice(None, -1)]))
    dx = elementwise_binary("sub", slice_view(x, [slice(1, None)]),
                            slice_view(x, [slice(None, -1)]))
    return elementwise_binary("div", dy, dx)


def central_diff(x: ArrayView, y: ArrayView) -> ArrayView:
    """Central divided difference (y[i+2]-y[i]) / (x[i+2]-x[i]), length n-2."""
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"need equal-length 1-D inputs, got {x.shape} and {y.shape}")
    if x.shape[0] < 3:
        raise ShapeError("central difference needs at least 3 samples")
    dy = elementwise_binary("sub", slice_view(y, [slice(2, None)]),
                            slice_view(y, [slice(None, -2)]))
    dx = elementwise_binary("sub", slice_view(x, [slice(2, None)]),
                            slice_view(x, [slice(None, -2)]))
    return elementwise_binary("div", dy, dx)


def project_points(points: ArrayView, camera: ArrayView) -> ArrayView:
    """Project n homogeneous 3-D points through a 3x3 camera matrix.

    Applies the matrix to every point, then divides each row by its third
    component via a newaxis broadcast, so the result's third column is 1.
    """
    if points.ndim != 2 or points.shape[1] != 3:
        raise ShapeError(f"points must be n x 3, got {points.shape}")
    if camera.shape != (3, 3):
        raise ShapeError(f"camera must be 3 x 3, got {camera.shape}")
    vecs = transpose(dot(camera, transpose(points)))
    thirds = vecs[:, 2]
    vals = gather(thirds)
    if 0.0 in vals:  # -0.0 == 0.0 matches; a NaN equals nothing
        raise ZeroDivisionError(f"projected point {vals.index(0.0)} has zero third coordinate")
    del vals  # n Python floats: free them before the division allocates
    return elementwise_binary("div", vecs, newaxis_view(thirds, 1))


# ---------------------------------------------------------------------------
# Shared fixtures: the measurement-record dataset and a foreign-memory exporter.


def measurement_dtype() -> DType:
    """Records of a uint64 timestamp and a nested float64 (x, y) position."""
    return make_struct_dtype([
        ("time", uint64),
        ("pos", [("x", float64), ("y", float64)]),
    ])


def sample_measurements() -> ArrayView:
    """Three measurement records used by the record demos."""
    return array_from(
        [(1, (0, 0.5)), (2, (0, 10.3)), (3, (5.5, 1.1))],
        measurement_dtype())


class MutableText:
    """A ctypes-allocated text buffer exporting the array-interface protocol.

    Stands in for memory owned by foreign code: views created over it write
    straight into the exporter's bytes.
    """

    def __init__(self, text: str):
        data = text.encode("ascii")
        self._buf = ctypes.create_string_buffer(data)
        self.__array_interface__ = {
            "shape": (len(data),),
            "data": (ctypes.addressof(self._buf), False),
            "typestr": "|u1",
        }

    def __str__(self) -> str:
        return self._buf.value.decode("ascii")
