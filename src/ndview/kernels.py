"""Element-wise computation over views: vectorized kernels with broadcasting,
in-place variants, comparisons, boolean-row selection, and a naive matrix
product.

Every kernel walks the output in C-order; operands expanded by broadcasting
reread the same bytes through zero strides instead of being materialized.
Each invocation adds one scalar-op unit per output element to the active
counting scope (the matrix product adds 2*m*n*k: one multiply and one add per
accumulation step). Kernels are single-threaded; see counters for the scoping
rules.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from itertools import compress, repeat
from typing import Union

from .broadcast import broadcast_shapes, broadcast_view
from .core import (
    ArrayView,
    _read_packed,
    create,
    gather,
    scatter,
)
from .counters import record_scalar_ops
from .dtypes import DType, Kind, bool_, field_lookup, float64
from .errors import (
    BroadcastError,
    IntegerDivisionError,
    NotWriteableError,
    ShapeError,
)

__all__ = [
    "promote_dtypes",
    "elementwise_binary",
    "scalar_binary",
    "elementwise_unary",
    "elementwise_binary_inplace",
    "compare",
    "mask_select",
    "dot",
    "field_view",
]

Scalar = Union[int, float, bool]

_SIGNED_FOR_UNSIGNED = {1: 2, 2: 4, 4: 8}


def promote_dtypes(a: DType, b: DType) -> DType:
    """Result dtype of combining two operand dtypes.

    The ladder: bool below everything; same-kind pairs take the wider width;
    an unsigned int mixed with a signed int promotes to the next wider signed
    type (uint64, having none, promotes to float64); any int mixed with any
    float gives float64. The result depends only on the operand set.
    """
    if a.is_structured or b.is_structured:
        raise TypeError("structured dtypes do not combine arithmetically")
    if a == b:
        return a
    if a.kind is Kind.BOOL:
        return b
    if b.kind is Kind.BOOL:
        return a
    a_float = a.kind is Kind.FLOAT
    b_float = b.kind is Kind.FLOAT
    if a_float and b_float:
        return a if a.itemsize >= b.itemsize else b
    if a_float or b_float:
        return float64
    if a.kind == b.kind:
        return a if a.itemsize >= b.itemsize else b
    signed, unsigned = (a, b) if a.kind is Kind.SIGNED else (b, a)
    if unsigned.itemsize not in _SIGNED_FOR_UNSIGNED:
        return float64  # no wider signed type exists for uint64
    width = _SIGNED_FOR_UNSIGNED[unsigned.itemsize]
    as_signed = DType(Kind.SIGNED, width)
    return signed if signed.itemsize >= width else as_signed


def _require_numeric(dt: DType, what: str = "kernel") -> None:
    if not dt.is_numeric:
        raise TypeError(f"{what} requires a numeric dtype, got {dt}")


def _div_int(a: int, b: int) -> int:
    # Truncates toward zero, unlike Python's floor division.
    if b == 0:
        raise IntegerDivisionError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _div_float(a: float, b: float) -> float:
    if b == 0.0:
        if a != a or a == 0.0:
            return math.nan
        negative = (math.copysign(1.0, a) * math.copysign(1.0, b)) < 0
        return -math.inf if negative else math.inf
    return a / b


_BINARY_FN = {
    ("add", False): operator.add,
    ("sub", False): operator.sub,
    ("mul", False): operator.mul,
    ("div", False): _div_int,
    ("add", True): operator.add,
    ("sub", True): operator.sub,
    ("mul", True): operator.mul,
    ("div", True): operator.truediv,  # _apply falls back to _div_float on a zero divisor
}

_COMPARE_FN = {
    "ge": operator.ge,
    "gt": operator.gt,
    "le": operator.le,
    "lt": operator.lt,
    "eq": operator.eq,
    "ne": operator.ne,
}


def _binary_apply(op: str, out_dtype: DType):
    try:
        return partial(_apply, _BINARY_FN[(op, out_dtype.kind is Kind.FLOAT)])
    except KeyError:
        raise ValueError(f"unknown binary op {op!r}") from None


def _apply(fn, *operands) -> list:
    """fn over the operands through C-level map; a float division pass that
    meets a zero divisor is redone with _div_float, which yields inf or nan."""
    try:
        return list(map(fn, *operands))
    except ZeroDivisionError:
        if fn is not operator.truediv:
            raise
        return list(map(_div_float, *operands))


def _operand(x, shape, to_float: bool):
    if not isinstance(x, ArrayView):
        return repeat(float(x) if to_float else x)
    vals = gather(x if x.shape == shape else broadcast_view(x, shape))
    if to_float and x.dtype.kind is not Kind.FLOAT:
        return [float(v) for v in vals]
    return vals


def _map(apply, operands, shape, out: Union[ArrayView, DType],
         to_float: bool = False) -> ArrayView:
    """The one loop behind the element-wise kernels, like a NumPy ufunc.

    Each array operand is read once, broadcast to `shape`; with `to_float`,
    int operands convert with float(). Scalars repeat. `out` is the in-place
    target, or the dtype of a fresh array. apply(*operands) gives the C-order
    result that is stored into it.
    """
    ins = [_operand(x, shape, to_float) for x in operands]
    if isinstance(out, DType):
        out = create(shape, out)
    vals = apply(*ins)
    del ins  # free the operand values before the result is encoded
    scatter(out, vals)
    record_scalar_ops(out.size)
    return out


def elementwise_binary(op: str, a: ArrayView, b: ArrayView) -> ArrayView:
    """Fresh array of the broadcast shape with op applied element-wise."""
    _require_numeric(a.dtype)
    _require_numeric(b.dtype)
    out_dtype = promote_dtypes(a.dtype, b.dtype)
    out_shape = broadcast_shapes(a.shape, b.shape)
    return _map(_binary_apply(op, out_dtype), (a, b), out_shape, out_dtype,
                to_float=out_dtype.kind is Kind.FLOAT)


def _scalar_operand(a_dtype: DType, s: Scalar) -> tuple[DType, Scalar]:
    # Float scalars behave as float64 operands; int scalars adopt the array's
    # dtype so 3*a on an integer array stays integral.
    if isinstance(s, bool):
        s = int(s)
    if isinstance(s, float):
        return promote_dtypes(a_dtype, float64), s
    if isinstance(s, int):
        return a_dtype, s
    raise TypeError(f"unsupported scalar operand {s!r}")


def scalar_binary(op: str, a: ArrayView, s: Scalar, scalar_side: str = "right") -> ArrayView:
    """Element-wise op between an array and a scalar (the scalar on either side).

    A fractional scalar against an integer array promotes the output to
    float64 rather than silently truncating.
    """
    _require_numeric(a.dtype)
    if scalar_side not in ("left", "right"):
        raise ValueError(f"scalar_side must be 'left' or 'right', got {scalar_side!r}")
    out_dtype, s = _scalar_operand(a.dtype, s)
    operands = (s, a) if scalar_side == "left" else (a, s)
    return _map(_binary_apply(op, out_dtype), operands, a.shape, out_dtype,
                to_float=out_dtype.kind is Kind.FLOAT)


def _sqrt(v) -> float:
    v = float(v)
    if v != v or v < 0.0:
        return math.nan
    return math.sqrt(v)


def _sqrt_all(va: list) -> list:
    # math.sqrt raises on a negative input and passes a NaN input's bits
    # through; either way _sqrt, which returns math.nan, redoes the pass.
    try:
        vals = list(map(math.sqrt, va))
    except ValueError:
        return list(map(_sqrt, va))
    total = sum(vals)
    return vals if total == total else list(map(_sqrt, va))


_UNARY_FN = {
    "square": lambda va: [v * v for v in va],
    "neg": lambda va: [-v for v in va],
    "sqrt": _sqrt_all,
}


def elementwise_unary(op: str, a: ArrayView) -> ArrayView:
    """square, sqrt or neg over every element; sqrt of an int array yields float64."""
    _require_numeric(a.dtype)
    try:
        apply = _UNARY_FN[op]
    except KeyError:
        raise ValueError(f"unknown unary op {op!r}") from None
    out_dtype = float64 if op == "sqrt" and a.dtype.kind is not Kind.FLOAT else a.dtype
    return _map(apply, (a,), a.shape, out_dtype)


def elementwise_binary_inplace(op: str, target: ArrayView,
                               b: Union[ArrayView, Scalar]) -> None:
    """Apply op into target's own storage, as NumPy's out=; allocates no buffers.

    The second operand broadcasts to the target's shape but may never expand
    it. Results are encoded back in the target's dtype; a fractional result
    against an integer target raises rather than truncating.
    """
    if not target.flags.writeable:
        raise NotWriteableError("in-place target is not writeable")
    _require_numeric(target.dtype)
    for ext, st in zip(target.shape, target.strides):
        if ext > 1 and st == 0:
            raise BroadcastError(
                "in-place target has a zero stride on an extent-"
                f"{ext} axis; writes would alias")
    if isinstance(b, ArrayView):
        _require_numeric(b.dtype)
        if broadcast_shapes(target.shape, b.shape) != target.shape:
            raise ShapeError(
                f"in-place operand of shape {b.shape} would expand target "
                f"shape {target.shape}")
        domain = promote_dtypes(target.dtype, b.dtype)
    else:
        domain, b = _scalar_operand(target.dtype, b)
    _map(_binary_apply(op, domain), (target, b), target.shape, target,
         to_float=domain.kind is Kind.FLOAT)


def compare(op: str, a: ArrayView, b: Union[ArrayView, Scalar]) -> ArrayView:
    """Element-wise comparison to a bool array of the broadcast shape."""
    if a.dtype.is_structured:
        raise TypeError("cannot compare structured elements")
    try:
        fn = _COMPARE_FN[op]
    except KeyError:
        raise ValueError(f"unknown comparison {op!r}") from None
    out_shape = a.shape
    if isinstance(b, ArrayView):
        if b.dtype.is_structured:
            raise TypeError("cannot compare structured elements")
        out_shape = broadcast_shapes(a.shape, b.shape)
    return _map(partial(_apply, fn), (a, b), out_shape, bool_)


def mask_select(a: ArrayView, mask: ArrayView) -> ArrayView:
    """Fresh array of a's rows where a 1-D bool mask is true, in order."""
    if mask.dtype.kind is not Kind.BOOL:
        raise TypeError(f"mask must be bool, got {mask.dtype}")
    if mask.ndim != 1:
        raise ShapeError(f"mask must be 1-D, got shape {mask.shape}")
    if a.ndim == 0:
        raise ShapeError("cannot mask a rank-0 view")
    if mask.shape[0] != a.shape[0]:
        raise ShapeError(
            f"mask length {mask.shape[0]} != leading extent {a.shape[0]}")
    keep = gather(mask)
    out = create((sum(keep),) + a.shape[1:], a.dtype)
    if out.size:
        data = memoryview(_read_packed(a))
        row = len(data) // a.shape[0]
        rows = (data[i:i + row] for i in range(0, len(data), row))
        out.buffer.raw[:] = b"".join(compress(rows, keep))
    return out


def dot(a: ArrayView, b: ArrayView) -> ArrayView:
    """Naive triple-loop matrix product; always float64.

    1-D operands follow the standard promotion (a row vector on the left,
    a column vector on the right) and the result drops the inserted axes:
    its shape is a.shape[:-1] + b.shape[1:]. Each operand is read with one
    gather. Counts 2*m*n*k scalar operations.
    """
    _require_numeric(a.dtype)
    _require_numeric(b.dtype)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"dot takes 1-D or 2-D operands, got ranks {a.ndim} and {b.ndim}")
    k = a.shape[-1]
    if b.shape[0] != k:
        raise ShapeError(f"inner extents differ: {a.shape} vs {b.shape}")
    m = a.shape[0] if a.ndim == 2 else 1
    n = b.shape[1] if b.ndim == 2 else 1
    av = _operand(a, a.shape, True)
    bv = _operand(b, b.shape, True)
    b_rows = [bv[t * n:(t + 1) * n] for t in range(k)]
    del bv  # the rows hold every value; free the flat list before the output is created
    out = create(a.shape[:-1] + b.shape[1:], float64)
    vals: list = []
    for i in range(m):
        acc = [0.0] * n
        for at, b_row in zip(av[i * k:(i + 1) * k], b_rows):
            acc = [s + at * v for s, v in zip(acc, b_row)]
        vals.extend(acc)
    scatter(out, vals)
    record_scalar_ops(2 * m * n * k)
    return out


def field_view(a: ArrayView, name: str) -> ArrayView:
    """Zero-copy view of one field of a structured array.

    The strides still step whole records; only the base offset and dtype
    change, so nesting applies repeatedly.
    """
    offset, fdt = field_lookup(a.dtype, name)
    return ArrayView(a.buffer, a.base_offset + offset, a.shape, a.strides, fdt,
                     writeable=a.flags.writeable)
