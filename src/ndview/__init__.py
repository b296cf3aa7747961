"""Strided N-dimensional arrays built on zero-copy views.

The model: a Buffer is a flat byte store; an ArrayView is a header (offset,
shape, signed byte strides, dtype, flags) describing how to read elements out
of it. Slicing, transposing, reshaping contiguous data, dtype
reinterpretation and broadcasting all produce new headers over the same
bytes. Element-wise kernels iterate the headers directly, so expanded
operands are never materialized, and every kernel and heap allocation reports
to scoped counters for accounting experiments.
"""

from .broadcast import (
    BroadcastPlan,
    aligned_strides,
    broadcast_plan,
    broadcast_shapes,
    broadcast_view,
    newaxis_view,
)
from .core import (
    ArrayView,
    Backing,
    Buffer,
    Flags,
    arange,
    array_from,
    contiguous_strides,
    copy_elements,
    create,
    element_offset,
    fill_flat,
    gather,
    get_element,
    index_axis,
    materialize,
    reinterpret_dtype,
    reshape,
    scatter,
    set_element,
    slice_view,
    transpose,
)
from .counters import CounterReport, Tally, counting
from .dtypes import (
    ByteOrder,
    DType,
    Field,
    Kind,
    bool_,
    field_lookup,
    float32,
    float64,
    format_typestr,
    int8,
    int16,
    int32,
    int64,
    make_struct_dtype,
    parse_typestr,
    uint8,
    uint16,
    uint32,
    uint64,
)
from .errors import (
    AllocationError,
    BoundsError,
    BroadcastError,
    ByteOrderError,
    FieldNotFoundError,
    IntegerDivisionError,
    MappingSizeError,
    NdviewError,
    NotWriteableError,
    RecordSizeError,
    ReinterpretError,
    ShapeError,
    StorageError,
    StructFieldError,
    TypestrError,
    ValueRangeError,
)
from .kernels import (
    compare,
    dot,
    elementwise_binary,
    elementwise_binary_inplace,
    elementwise_unary,
    field_view,
    mask_select,
    promote_dtypes,
    scalar_binary,
)
from .storage import (
    MemmapMode,
    flush,
    from_interface,
    fromfile,
    memmap_open,
    tofile,
)

__version__ = "0.1.0"
