"""Shape compatibility and zero-copy expansion via zero strides.

Shapes broadcast by right-aligning their axes: extents match when equal, or
when either is 1 or absent, and the output takes the larger extent. An
expanded view never copies data; every expanded or prepended axis simply gets
a stride of zero, so reads along it revisit the same bytes. Because a zero
stride aliases many logical positions onto one location, expanded views are
marked non-writeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .core import ArrayView, _select
from .errors import BoundsError, BroadcastError

__all__ = ["BroadcastPlan", "broadcast_shapes", "aligned_strides",
           "broadcast_plan", "broadcast_view", "newaxis_view"]

Extents = tuple[int, ...]


def broadcast_shapes(a: Sequence[int], b: Sequence[int]) -> Extents:
    """Common shape of two operand shapes, or BroadcastError naming the axis."""
    a, b = tuple(a), tuple(b)
    rank = max(len(a), len(b))
    out = []
    for k in range(rank):
        ea = a[len(a) - rank + k] if len(a) - rank + k >= 0 else None
        eb = b[len(b) - rank + k] if len(b) - rank + k >= 0 else None
        if ea is None:
            out.append(eb)
        elif eb is None:
            out.append(ea)
        elif ea == eb or eb == 1:
            out.append(ea)
        elif ea == 1:
            out.append(eb)
        else:
            raise BroadcastError(
                f"cannot broadcast extent {ea} with {eb} on axis {k} "
                f"(shapes {a} vs {b})")
    return tuple(out)


def aligned_strides(shape: Extents, strides: Extents, target: Extents) -> Extents:
    """Strides of `shape` right-aligned to `target`, zero on expanded axes."""
    offset = len(target) - len(shape)
    if offset < 0:
        raise BroadcastError(f"shape {shape} has more axes than target {target}")
    out = [0] * len(target)
    for k, (ext, st) in enumerate(zip(shape, strides)):
        t = target[offset + k]
        if ext == t:
            out[offset + k] = st
        elif ext == 1:
            out[offset + k] = 0
        else:
            raise BroadcastError(
                f"cannot broadcast extent {ext} to {t} on axis {offset + k} "
                f"(shape {shape} to target {target})")
    return tuple(out)


@dataclass(frozen=True)
class BroadcastPlan:
    """Common output shape plus per-operand aligned strides (0 where expanded)."""

    output_shape: Extents
    operand_strides: tuple[Extents, ...]


def broadcast_plan(operands: Sequence[ArrayView]) -> BroadcastPlan:
    """Plan joint iteration of several views over their broadcast shape."""
    out_shape = reduce(broadcast_shapes, (v.shape for v in operands))
    return BroadcastPlan(
        out_shape,
        tuple(aligned_strides(v.shape, v.strides, out_shape) for v in operands))


def broadcast_view(v: ArrayView, target: Sequence[int]) -> ArrayView:
    """Zero-copy view of v with shape `target`; result is non-writeable."""
    target = tuple(int(e) for e in target)
    strides = aligned_strides(v.shape, v.strides, target)
    return ArrayView(v.buffer, v.base_offset, target, strides, v.dtype,
                     writeable=False)


def newaxis_view(v: ArrayView, axis: int) -> ArrayView:
    """Insert an extent-1, stride-0 axis at `axis` (zero-copy)."""
    if not 0 <= axis <= v.ndim:
        raise BoundsError(f"newaxis position {axis} out of range for rank {v.ndim}")
    return _select(v, (slice(None),) * axis + (None,))
