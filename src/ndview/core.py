"""Buffer-and-header core: byte storage, element addressing, zero-copy views.

Every array is an ArrayView: a small immutable header (base offset, shape,
signed byte strides, dtype, flags) over a shared Buffer. Slicing, transposing,
reshaping contiguous data and dtype reinterpretation all produce new headers
over the same bytes; writes through any view are visible through every other
view of the same buffer.

Threading contract: views may move freely between threads and concurrent
reads of a shared buffer are safe. The library does not synchronize writers;
concurrent mutation of a buffer requires external exclusivity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from struct import error as _struct_error
from typing import Iterator, Sequence

from .counters import record_allocation
from .dtypes import (
    DType,
    decode_element,
    element_code,
    element_struct,
    encode_element,
    int64,
)
from .errors import (
    AllocationError,
    BoundsError,
    NotWriteableError,
    ReinterpretError,
    ShapeError,
)

__all__ = [
    "Buffer",
    "Flags",
    "ArrayView",
    "contiguous_strides",
    "create",
    "arange",
    "array_from",
    "element_offset",
    "get_element",
    "set_element",
    "slice_view",
    "index_axis",
    "transpose",
    "reshape",
    "reinterpret_dtype",
    "fill_flat",
    "materialize",
    "copy_elements",
    "gather",
    "scatter",
]

Extents = tuple[int, ...]


class Buffer:
    """A fixed-length contiguous byte store.

    `raw` is any object supporting the buffer protocol (bytearray, mmap,
    ctypes array); a cached memoryview of it in format "B", the same for
    every kind of memory, serves byte-range reads and writes. `mapped` marks
    a file mapping, the only kind of buffer that can be flushed.
    Heap allocations report to the active counting scopes; mapped and foreign
    buffers wrap existing memory and are never counted as allocations.
    """

    __slots__ = ("raw", "mapped", "read_only", "owner", "_view")

    def __init__(self, raw, mapped: bool = False, read_only: bool = False, owner=None):
        self.raw = raw
        self.mapped = mapped
        self.read_only = read_only
        self.owner = owner  # keepalive for a foreign exporter
        view = memoryview(raw if raw is not None else b"")
        self._view = view if view.format == "B" else view.cast("B")  # ctypes exports "<B"

    @classmethod
    def allocate(cls, nbytes: int) -> "Buffer":
        """Fresh zero-filled heap buffer; counts toward the active tally."""
        if nbytes < 0:
            raise AllocationError(f"cannot allocate {nbytes} bytes")
        try:
            raw = bytearray(nbytes)
        except (MemoryError, OverflowError) as exc:
            raise AllocationError(f"allocation of {nbytes} bytes failed: {exc}") from None
        record_allocation(nbytes)
        return cls(raw)

    @property
    def nbytes(self) -> int:
        return self._view.nbytes


@dataclass(frozen=True)
class Flags:
    writeable: bool
    c_contiguous: bool


def contiguous_strides(shape: Sequence[int], itemsize: int) -> Extents:
    """Row-major packed strides: last axis steps one element."""
    strides = [0] * len(shape)
    acc = itemsize
    for k in range(len(shape) - 1, -1, -1):
        strides[k] = acc
        acc *= shape[k]
    return tuple(strides)


def _extents(shape: Sequence[int]) -> Extents:
    """A shape as a tuple of ints, or ShapeError if any extent is negative."""
    shape = tuple(int(e) for e in shape)
    if any(e < 0 for e in shape):
        raise ShapeError(f"negative extent in shape {shape}")
    return shape


def _c_contiguous(shape: Extents, strides: Extents, itemsize: int) -> bool:
    # Extent-1 axes place no constraint on strides; empty arrays are contiguous.
    if 0 in shape:
        return True
    acc = itemsize
    for ext, st in zip(reversed(shape), reversed(strides)):
        if ext != 1 and st != acc:
            return False
        acc *= ext
    return True


def _byte_span(shape: Extents, strides: Extents, itemsize: int) -> tuple[int, int]:
    """Bytes [lo, hi) that a layout addresses, relative to its base; (0, 0) when empty."""
    if 0 in shape:
        return 0, 0
    lo = hi = 0
    for ext, st in zip(shape, strides):
        span = (ext - 1) * st
        if span < 0:
            lo += span
        else:
            hi += span
    return lo, hi + itemsize


def _is_index(item) -> bool:
    # bool is an int subclass, but x[True] is not a position
    return isinstance(item, int) and not isinstance(item, bool)


def _wrap_index(i: int, ext: int, axis: int) -> int:
    """Position of index i on an axis, counting from the end when i < 0."""
    j = i + ext if i < 0 else i
    if not 0 <= j < ext:
        raise BoundsError(f"index {i} out of bounds for axis {axis} with extent {ext}")
    return j


class ArrayView:
    """Array header: a dtype-aware window onto a Buffer.

    Headers are immutable; mutation happens only through the buffer via
    set_element / scatter / kernels. Construction validates that every
    addressable element lies inside the buffer.
    """

    __slots__ = ("buffer", "base_offset", "shape", "strides", "dtype", "flags")

    def __init__(self, buffer: Buffer, base_offset: int, shape: Sequence[int],
                 strides: Sequence[int], dtype: DType, *, writeable: bool = True):
        shape = _extents(shape)
        strides = tuple(int(s) for s in strides)
        if len(shape) != len(strides):
            raise ShapeError(f"rank mismatch: shape {shape} vs strides {strides}")
        lo, hi = _byte_span(shape, strides, dtype.itemsize)
        if hi and (base_offset + lo < 0 or base_offset + hi > buffer.nbytes):
            raise BoundsError(f"view spans bytes [{base_offset + lo}, {base_offset + hi}) "
                              f"outside buffer of {buffer.nbytes} bytes")
        object.__setattr__(self, "buffer", buffer)
        object.__setattr__(self, "base_offset", base_offset)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "strides", strides)
        object.__setattr__(self, "dtype", dtype)
        flags = Flags(writeable=bool(writeable) and not buffer.read_only,
                      c_contiguous=_c_contiguous(shape, strides, dtype.itemsize))
        object.__setattr__(self, "flags", flags)

    def __setattr__(self, name, value):
        raise AttributeError("ArrayView headers are immutable")

    # -- basic properties ---------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def T(self) -> "ArrayView":
        return transpose(self)

    def tolist(self):
        """Values as nested Python lists (a scalar for rank-0 views), read with one gather."""
        vals = gather(self)
        if not self.shape:
            return vals[0]
        for k in range(self.ndim - 1, 0, -1):  # group the innermost remaining axis
            ext = self.shape[k]
            vals = [vals[i * ext:(i + 1) * ext] for i in range(math.prod(self.shape[:k]))]
        return vals

    def __repr__(self) -> str:
        return (f"ArrayView(shape={self.shape}, strides={self.strides}, "
                f"dtype={self.dtype}, offset={self.base_offset}, "
                f"writeable={self.flags.writeable})")

    # -- indexing sugar -----------------------------------------------------

    def __getitem__(self, key):
        from . import kernels as _k
        if isinstance(key, str):
            return _k.field_view(self, key)
        if isinstance(key, ArrayView):
            return _k.mask_select(self, key)
        items = key if isinstance(key, tuple) else (key,)
        if len(items) == self.ndim and all(map(_is_index, items)):
            return get_element(self, items)
        return _select(self, items)

    def __setitem__(self, key, value):
        if isinstance(key, ArrayView):
            # x[mask] is a fresh copy, so a write through it would never reach x
            raise TypeError("mask assignment is not supported: x[mask] returns a copy")
        items = key if isinstance(key, tuple) else (key,)
        if len(items) == self.ndim and all(map(_is_index, items)):
            set_element(self, items, value)
            return
        target = self[key]
        if isinstance(value, ArrayView):
            if (value.buffer is target.buffer
                    and value.base_offset == target.base_offset
                    and value.shape == target.shape
                    and value.strides == target.strides):
                return  # augmented assignment already mutated in place
            if value.dtype != target.dtype:
                raise TypeError(f"cannot assign {value.dtype} values into {target.dtype}")
            from .broadcast import broadcast_view
            copy_elements(broadcast_view(value, target.shape), target)
        else:
            scatter(target, [value] * target.size)

    # -- arithmetic sugar (thin wrappers over the kernel module) -------------

    def _binary(self, other, op, scalar_side):
        from . import kernels as _k
        if isinstance(other, ArrayView):
            return _k.elementwise_binary(op, self, other) if scalar_side == "right" \
                else _k.elementwise_binary(op, other, self)
        return _k.scalar_binary(op, self, other, scalar_side=scalar_side)

    def __add__(self, other):
        return self._binary(other, "add", "right")

    def __radd__(self, other):
        return self._binary(other, "add", "left")

    def __sub__(self, other):
        return self._binary(other, "sub", "right")

    def __rsub__(self, other):
        return self._binary(other, "sub", "left")

    def __mul__(self, other):
        return self._binary(other, "mul", "right")

    def __rmul__(self, other):
        return self._binary(other, "mul", "left")

    def __truediv__(self, other):
        return self._binary(other, "div", "right")

    def __rtruediv__(self, other):
        return self._binary(other, "div", "left")

    def __neg__(self):
        from . import kernels as _k
        return _k.elementwise_unary("neg", self)

    def _inplace(self, other, op):
        from . import kernels as _k
        _k.elementwise_binary_inplace(op, self, other)
        return self

    def __iadd__(self, other):
        return self._inplace(other, "add")

    def __isub__(self, other):
        return self._inplace(other, "sub")

    def __imul__(self, other):
        return self._inplace(other, "mul")

    def __itruediv__(self, other):
        return self._inplace(other, "div")

    def _compare(self, other, op):
        from . import kernels as _k
        return _k.compare(op, self, other)

    def __ge__(self, other):
        return self._compare(other, "ge")

    def __gt__(self, other):
        return self._compare(other, "gt")

    def __le__(self, other):
        return self._compare(other, "le")

    def __lt__(self, other):
        return self._compare(other, "lt")

    # __eq__ stays identity so views remain usable in sets and dicts;
    # elementwise equality is kernels.compare("eq", ...).


# ---------------------------------------------------------------------------
# Constructors


def create(shape: Sequence[int], dtype: DType) -> ArrayView:
    """Fresh zero-filled C-contiguous heap array."""
    shape = _extents(shape)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = Buffer.allocate(nbytes)
    return ArrayView(buf, 0, shape, contiguous_strides(shape, dtype.itemsize), dtype)


def arange(start, stop=None, step=1, dtype: DType = int64) -> ArrayView:
    """1-D array of values start, start+step, ... below stop (above, for step<0)."""
    if stop is None:
        start, stop = 0, start
    if step == 0:
        raise ShapeError("arange step cannot be zero")
    if all(isinstance(v, int) for v in (start, stop, step)):
        count = max(0, -((start - stop) // step) if step > 0 else -((stop - start) // -step))
    else:
        try:
            length = (stop - start) / step
        except OverflowError:  # an int bound too large for a float
            length = math.inf
        if not math.isfinite(length):
            raise ShapeError(f"arange({start}, {stop}, {step}) has no finite length")
        if length == 0.0 and stop != start:  # the step outruns the range, as an infinite one does
            length = float((stop > start) == (step > 0))
        count = max(0, math.ceil(length))
    out = create((count,), dtype)
    values = [start + i * step for i in range(count)]
    if values:
        values[0] = start  # 0 * an infinite step is NaN
    scatter(out, values)
    return out


def array_from(values, dtype: DType) -> ArrayView:
    """Array from nested Python lists; shape inferred from list nesting.

    Only lists nest; tuples and dicts are taken as element values, so a list
    of tuples builds a 1-D structured array.
    """
    shape = []
    probe = values
    while isinstance(probe, list):
        shape.append(len(probe))
        probe = probe[0] if probe else None
    out = create(tuple(shape), dtype)

    def flatten(v, depth):
        if depth == len(shape):
            yield v
        else:
            if not isinstance(v, list) or len(v) != shape[depth]:
                raise ShapeError("ragged nested list")
            for item in v:
                yield from flatten(item, depth + 1)

    scatter(out, list(flatten(values, 0)))
    return out


# ---------------------------------------------------------------------------
# Addressing and element access


def element_offset(v: ArrayView, idx: Sequence[int]) -> int:
    """Byte offset of the element at an index vector; negative indices count from the end."""
    if len(idx) != v.ndim:
        raise BoundsError(f"index {tuple(idx)} has {len(idx)} axes, view has {v.ndim}")
    off = v.base_offset
    for k, (i, ext, st) in enumerate(zip(idx, v.shape, v.strides)):
        off += _wrap_index(i, ext, k) * st
    return off


def get_element(v: ArrayView, idx: Sequence[int]):
    """Decode the element at idx: a Python scalar, or a field-name dict for records."""
    return decode_element(v.dtype, v.buffer.raw, element_offset(v, idx))


def set_element(v: ArrayView, idx: Sequence[int], value) -> None:
    """Encode a value at idx; requires a writeable view."""
    off = element_offset(v, idx)
    if not v.flags.writeable:
        raise NotWriteableError("view is not writeable")
    encode_element(v.dtype, v.buffer.raw, off, value)


# ---------------------------------------------------------------------------
# View transformations (all zero-copy unless stated)

def _select(v: ArrayView, items: Sequence) -> ArrayView:
    """One header for a key of ints, slices and None over v's leading axes.

    An int moves the base offset and drops its axis; a slice scales the
    stride and moves the offset to its first element; None inserts an
    extent-1, stride-0 axis. Axes past the key pass through whole. Errors
    name the axis of v that an item selects on.
    """
    offset = v.base_offset
    shape, strides = [], []
    k = 0  # the axis of v that the next int or slice selects on
    for it in items:
        if it is None:
            shape.append(1)
            strides.append(0)
            continue
        if k == v.ndim:
            raise BoundsError(f"too many indices for rank-{v.ndim} view")
        ext, st = v.shape[k], v.strides[k]
        if isinstance(it, slice):
            if it.step == 0:
                raise ShapeError(f"slice step is zero on axis {k}")
            start, stop, step = it.indices(ext)
            count = len(range(start, stop, step))
            if count:
                offset += start * st
            shape.append(count)
            strides.append(st * step)
        elif _is_index(it):
            offset += _wrap_index(it, ext, k) * st
        else:
            raise TypeError(f"unsupported index {it!r}")
        k += 1
    return ArrayView(v.buffer, offset, shape + list(v.shape[k:]),
                     strides + list(v.strides[k:]), v.dtype, writeable=v.flags.writeable)


def slice_view(v: ArrayView, spec: Sequence[slice]) -> ArrayView:
    """Per-axis start:stop:step selection, one slice per leading axis; missing
    trailing axes pass through whole.

    Bounds follow the half-open convention: negative indices count from the
    end, out-of-range bounds clamp, and a negative step walks backward with
    the base offset moved to the last selected element.
    """
    if len(spec) > v.ndim:
        raise ShapeError(f"slice spec has {len(spec)} axes, view has {v.ndim}")
    for k, sl in enumerate(spec):
        if not isinstance(sl, slice):
            raise TypeError(f"slice spec entries must be slices, got {sl!r} on axis {k}")
    return _select(v, spec)


def index_axis(v: ArrayView, axis: int, i: int) -> ArrayView:
    """Select position i along an axis, dropping that axis (zero-copy); i < 0 counts from the end."""
    if not 0 <= axis < v.ndim:
        raise BoundsError(f"axis {axis} out of range for rank {v.ndim}")
    return _select(v, (slice(None),) * axis + (i,))


def transpose(v: ArrayView) -> ArrayView:
    """Reverse shape and strides; same buffer."""
    return ArrayView(v.buffer, v.base_offset, v.shape[::-1], v.strides[::-1],
                     v.dtype, writeable=v.flags.writeable)


def reshape(v: ArrayView, new_shape: Sequence[int]) -> ArrayView:
    """Same elements in C-order under a new shape.

    Zero-copy when the view is C-contiguous; otherwise the elements are
    copied into a fresh contiguous buffer (the result then has a new buffer).
    """
    new_shape = _extents(new_shape)
    if math.prod(new_shape) != v.size:
        raise ShapeError(
            f"cannot reshape {v.size} elements into shape {new_shape} "
            f"({math.prod(new_shape)} elements)")
    if v.flags.c_contiguous:
        return ArrayView(v.buffer, v.base_offset, new_shape,
                         contiguous_strides(new_shape, v.itemsize), v.dtype,
                         writeable=v.flags.writeable)
    out = create(new_shape, v.dtype)
    copy_elements(v, out)
    return out


def reinterpret_dtype(v: ArrayView, new_dtype: DType) -> ArrayView:
    """View the same bytes under a different element type (zero-copy).

    The last axis must be element-contiguous and its byte span divisible by
    the new itemsize; only the last extent and stride change.
    """
    if v.ndim == 0:
        raise ReinterpretError("rank-0 view has no last axis to reinterpret")
    old = v.dtype.itemsize
    if v.strides[-1] != old:
        raise ReinterpretError(
            f"last axis not contiguous: stride {v.strides[-1]} != itemsize {old}")
    span = v.shape[-1] * old
    new = new_dtype.itemsize
    if span % new != 0:
        raise ReinterpretError(
            f"last-axis span of {span} bytes is not divisible by new itemsize {new}")
    shape = v.shape[:-1] + (span // new,)
    strides = v.strides[:-1] + (new,)
    return ArrayView(v.buffer, v.base_offset, shape, strides, new_dtype,
                     writeable=v.flags.writeable)


# ---------------------------------------------------------------------------
# Bulk element traffic
#
# Every read and write goes through the view's element bytes packed in C-order.
# One walker, _runs, covers the view with runs of evenly spaced elements, and
# one memoryview slice assignment moves each run between the buffer and the
# packed bytes; the packed bytes then decode or encode in one call.

_LITTLE_ENDIAN = sys.byteorder == "little"


def _runs(shape: Extents, strides: Extents, base: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Runs (start, step, count, out_start, out_step) covering a strided layout.

    The element at start + i*step is element out_start + i*out_step in C-order,
    for i < count, in the units of `base` and `strides`. Extent-1 axes are
    dropped, axis k merges into axis k+1 when stride[k] == shape[k+1] *
    stride[k+1], and the largest remaining extent becomes the run, so Python
    loops only over the other axes. Those are visited in C-order: of positions
    that alias one location through zero strides, the last in C-order comes last.
    """
    if 0 in shape:
        return
    axes = []  # [extent, stride, out_stride], innermost first
    out_stride = 1
    for ext, st in zip(reversed(shape), reversed(strides)):
        if ext > 1:
            if axes and st == axes[-1][0] * axes[-1][1]:
                axes[-1][0] *= ext
            else:
                axes.append([ext, st, out_stride])
        out_stride *= ext
    if not axes:
        yield base, 1, 1, 0, 1
        return
    count, step, out_step = axes.pop(max(range(len(axes)), key=lambda k: axes[k][0]))
    starts, out_starts = [base], [0]
    for ext, st, ost in reversed(axes):
        starts = [a + i * st for a in starts for i in range(ext)]
        out_starts = [c + i * ost for c in out_starts for i in range(ext)]
    for a, c in zip(starts, out_starts):
        yield a, step, count, c, out_step


def _span(start: int, step: int, count: int) -> slice:
    # A stop below 0 would count from the end, so a run reaching index 0 backward stops at None.
    stop = start + step * count
    return slice(start, stop if stop >= 0 else None, step)


_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # unsigned formats by width; lanes move bytes only


def _lanes(v: ArrayView):
    """A flat memoryview of v's buffer and the walker's runs over v's elements.

    When the itemsize has a lane format and v's offset and strides are whole
    multiples of it, each lane is one element and runs count elements;
    otherwise lanes are bytes, and each element's bytes are one more axis.
    """
    mv = v.buffer._view
    isz = v.itemsize
    code = _LANE_CODES.get(isz)
    if code and v.base_offset % isz == 0 and all(s % isz == 0 for s in v.strides):
        mv = mv[:len(mv) - len(mv) % isz].cast(code)
        return mv, _runs(v.shape, tuple(s // isz for s in v.strides), v.base_offset // isz)
    return mv, _runs(v.shape + (isz,), v.strides + (1,), v.base_offset)


def _read_packed(v: ArrayView) -> bytearray:
    """v's element bytes, packed in C-order."""
    out = bytearray(v.size * v.itemsize)
    mv, runs = _lanes(v)
    flat = memoryview(out).cast(mv.format)
    for a, s, n, c, t in runs:
        if s:
            flat[c:c + n * t:t] = mv[_span(a, s, n)]
        else:
            flat[c:c + n * t:t] = memoryview(bytes(mv[a:a + 1]) * n).cast(mv.format)
    return out


def _write_packed(v: ArrayView, data) -> None:
    """Store element bytes packed in C-order into v's elements."""
    mv, runs = _lanes(v)
    flat = memoryview(data).cast("B").cast(mv.format)
    for a, s, n, c, t in runs:
        if s:
            mv[_span(a, s, n)] = flat[c:c + n * t:t]
        else:  # every position of the run aliases one element: the last value wins
            last = c + (n - 1) * t
            mv[a:a + 1] = flat[last:last + 1]


_PACK_CHUNK = 1 << 14  # values per struct call: bounds the argument tuple struct builds


def _pack(dt: DType, values: Sequence) -> bytearray:
    """values encoded with struct and packed in C-order."""
    isz = dt.itemsize
    out = bytearray(len(values) * isz)
    if not dt.is_structured:
        try:
            for i in range(0, len(values), _PACK_CHUNK):
                chunk = values[i:i + _PACK_CHUNK]
                element_struct(dt, len(chunk)).pack_into(out, i * isz, *chunk)
            return out
        except (_struct_error, OverflowError):
            pass  # encode one by one below, so the error names the bad value
    for i, value in enumerate(values):
        encode_element(dt, out, i * isz, value)
    return out


def gather(v: ArrayView) -> list:
    """All element values in C-order as a flat list, decoded in one call.

    Scalars decode through a memoryview cast to their format, which is native,
    so big-endian hosts decode with struct instead.
    """
    dt = v.dtype
    data = _read_packed(v)
    if dt.is_structured:
        return [decode_element(dt, data, off) for off in range(0, len(data), dt.itemsize)]
    if _LITTLE_ENDIAN:
        return memoryview(data).cast(element_code(dt)).tolist()
    return list(element_struct(dt, v.size).unpack_from(data))


def scatter(v: ArrayView, values: Sequence) -> None:
    """Assign a flat C-order value sequence into the view's elements.

    Every value is encoded before the first byte is written, so a value the
    dtype cannot hold raises ValueRangeError and leaves the view unchanged.
    Where a zero stride aliases positions, the value last in C-order wins.
    """
    if not v.flags.writeable:
        raise NotWriteableError("view is not writeable")
    if len(values) != v.size:
        raise ShapeError(f"{len(values)} values for {v.size} elements")
    _write_packed(v, _pack(v.dtype, values))


def fill_flat(v: ArrayView, values) -> None:
    """Assign a 1-D source to the view in C-order, regardless of its strides."""
    if isinstance(values, ArrayView):
        if values.ndim != 1:
            raise ShapeError("fill_flat source must be 1-D")
        values = gather(values)
    else:
        values = list(values)
    scatter(v, values)


def copy_elements(src: ArrayView, dst: ArrayView) -> None:
    """Raw byte copy of src's elements into dst, both in C-order.

    Dtypes must carry the same itemsize; element counts must match. The whole
    source is read before any byte is written, so views that overlap copy as
    if the source had been copied first.
    """
    if src.size != dst.size:
        raise ShapeError(f"element count mismatch: {src.size} vs {dst.size}")
    if src.itemsize != dst.itemsize:
        raise ShapeError(f"itemsize mismatch: {src.itemsize} vs {dst.itemsize}")
    if not dst.flags.writeable:
        raise NotWriteableError("destination view is not writeable")
    _write_packed(dst, _read_packed(src))


def materialize(v: ArrayView) -> ArrayView:
    """Dense C-contiguous heap copy of a view (one fresh allocation)."""
    out = create(v.shape, v.dtype)
    copy_elements(v, out)
    return out
