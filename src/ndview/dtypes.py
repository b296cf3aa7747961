"""Element-type descriptors: scalar kinds, packed structured records, typestr codec.

A scalar dtype is written as a three-part type string ``<order><kind><size>``
with order in ``< > |``, kind in ``i u f b`` and size a positive decimal byte
count, e.g. ``<f8`` or ``|u1``. The in-memory representation is always packed
little-endian; ``|`` marks types where byte order is irrelevant (single-byte
and bool). Structured dtypes are ordered lists of named fields laid out packed,
with no alignment padding, so a record's bytes are exactly the concatenation of
its field bytes in declaration order.

DType values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence, Union

from .errors import (
    ByteOrderError,
    FieldNotFoundError,
    StructFieldError,
    TypestrError,
    ValueRangeError,
)

__all__ = [
    "DType",
    "Field",
    "Kind",
    "ByteOrder",
    "parse_typestr",
    "format_typestr",
    "make_struct_dtype",
    "field_lookup",
    "int8",
    "int16",
    "int32",
    "int64",
    "uint8",
    "uint16",
    "uint32",
    "uint64",
    "float32",
    "float64",
    "bool_",
]


class Kind(Enum):
    SIGNED = "i"
    UNSIGNED = "u"
    FLOAT = "f"
    BOOL = "b"
    STRUCTURED = "V"


class ByteOrder(Enum):
    LITTLE = "<"
    NOT_APPLICABLE = "|"


# Format character of each supported scalar (kind, itemsize); struct use is
# always '<'-prefixed.
_STRUCT_CODE = {
    (Kind.SIGNED, 1): "b",
    (Kind.SIGNED, 2): "h",
    (Kind.SIGNED, 4): "i",
    (Kind.SIGNED, 8): "q",
    (Kind.UNSIGNED, 1): "B",
    (Kind.UNSIGNED, 2): "H",
    (Kind.UNSIGNED, 4): "I",
    (Kind.UNSIGNED, 8): "Q",
    (Kind.FLOAT, 4): "f",
    (Kind.FLOAT, 8): "d",
    (Kind.BOOL, 1): "?",
}


@dataclass(frozen=True)
class Field:
    """One named member of a structured dtype at a fixed byte offset."""

    name: str
    dtype: "DType"
    offset: int


@dataclass(frozen=True)
class DType:
    """Describes the kind, width, byte order and (if structured) fields of an element."""

    kind: Kind
    itemsize: int
    byteorder: ByteOrder = ByteOrder.NOT_APPLICABLE
    fields: tuple[Field, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.itemsize <= 0:
            raise TypestrError(f"itemsize must be positive, got {self.itemsize}")
        if self.kind is Kind.STRUCTURED:
            if not self.fields:
                raise StructFieldError("structured dtype needs at least one field")
            expected = 0
            for f in self.fields:
                if f.offset != expected:
                    raise StructFieldError(
                        f"field {f.name!r} at offset {f.offset}, expected packed offset {expected}"
                    )
                expected += f.dtype.itemsize
            if expected != self.itemsize:
                raise StructFieldError(
                    f"structured itemsize {self.itemsize} != sum of field sizes {expected}"
                )
        else:
            if self.fields:
                raise StructFieldError("scalar dtype cannot carry fields")
            if (self.kind, self.itemsize) not in _STRUCT_CODE:
                raise TypestrError(
                    f"unsupported size {self.itemsize} for kind {self.kind.value!r}"
                )
            na = self.itemsize == 1 or self.kind is Kind.BOOL
            if na != (self.byteorder is ByteOrder.NOT_APPLICABLE):
                raise TypestrError(
                    f"byte order {self.byteorder.value!r} inconsistent with "
                    f"{self.kind.value}{self.itemsize}"
                )

    @property
    def is_structured(self) -> bool:
        return self.kind is Kind.STRUCTURED

    @property
    def is_numeric(self) -> bool:
        return self.kind in (Kind.SIGNED, Kind.UNSIGNED, Kind.FLOAT)

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def __str__(self) -> str:
        if self.is_structured:
            inner = ", ".join(f"{f.name}: {f.dtype}" for f in self.fields)
            return "{" + inner + "}"
        return format_typestr(self)

    def __repr__(self) -> str:
        return f"DType({self})"


int8 = DType(Kind.SIGNED, 1)
int16 = DType(Kind.SIGNED, 2, ByteOrder.LITTLE)
int32 = DType(Kind.SIGNED, 4, ByteOrder.LITTLE)
int64 = DType(Kind.SIGNED, 8, ByteOrder.LITTLE)
uint8 = DType(Kind.UNSIGNED, 1)
uint16 = DType(Kind.UNSIGNED, 2, ByteOrder.LITTLE)
uint32 = DType(Kind.UNSIGNED, 4, ByteOrder.LITTLE)
uint64 = DType(Kind.UNSIGNED, 8, ByteOrder.LITTLE)
float32 = DType(Kind.FLOAT, 4, ByteOrder.LITTLE)
float64 = DType(Kind.FLOAT, 8, ByteOrder.LITTLE)
bool_ = DType(Kind.BOOL, 1)

_KIND_BY_CHAR = {"i": Kind.SIGNED, "u": Kind.UNSIGNED, "f": Kind.FLOAT, "b": Kind.BOOL}


def parse_typestr(s: str) -> DType:
    """Parse ``<order><kind><size>`` into a scalar DType.

    Big-endian strings for multi-byte types raise ByteOrderError: ndview
    stores only little-endian data.
    """
    if not isinstance(s, str) or not s:
        raise TypestrError(f"empty typestr {s!r}, expected e.g. '<f8'")
    if s[0] not in "<>|":
        raise TypestrError(f"bad byte-order character {s[0]!r} in {s!r}")
    if len(s) < 2 or s[1] not in _KIND_BY_CHAR:
        bad = s[1] if len(s) > 1 else ""
        raise TypestrError(f"bad kind character {bad!r} in {s!r}")
    order_char, kind_char, size_str = s[0], s[1], s[2:]
    if not size_str.isdigit():
        bad = next((c for c in size_str if not c.isdigit()), "")
        raise TypestrError(f"bad size character {bad!r} in {s!r}")
    kind = _KIND_BY_CHAR[kind_char]
    itemsize = int(size_str)
    if (kind, itemsize) not in _STRUCT_CODE:
        raise TypestrError(f"unsupported dtype {s!r}")
    if itemsize == 1 or kind is Kind.BOOL:
        # Byte order is irrelevant for single bytes; '<u1' normalizes to '|u1'.
        return DType(kind, itemsize, ByteOrder.NOT_APPLICABLE)
    if order_char == "|":
        raise TypestrError(f"byte order '|' invalid for multi-byte type {s!r}")
    if order_char == ">":
        raise ByteOrderError(
            f"big-endian data unsupported: {s!r} (native representation is little-endian)"
        )
    return DType(kind, itemsize, ByteOrder.LITTLE)


def format_typestr(dt: DType) -> str:
    """Inverse of parse_typestr for scalar dtypes."""
    if dt.is_structured:
        raise TypestrError("structured dtypes have no typestr form")
    return f"{dt.byteorder.value}{dt.kind.value}{dt.itemsize}"


FieldSpec = Sequence[tuple[str, Union["DType", Sequence]]]


def make_struct_dtype(spec: FieldSpec) -> DType:
    """Build a packed structured dtype from ``[(name, dtype-or-nested-spec), ...]``.

    Fields are laid out back to back in declaration order; nested specs recurse.
    """
    entries = list(spec)
    if not entries:
        raise StructFieldError("empty field list")
    fields: list[Field] = []
    seen: set[str] = set()
    offset = 0
    for name, sub in entries:
        if not isinstance(name, str) or not name:
            raise StructFieldError(f"field name must be a non-empty string, got {name!r}")
        if name in seen:
            raise StructFieldError(f"duplicate field name {name!r}")
        seen.add(name)
        dt = sub if isinstance(sub, DType) else make_struct_dtype(sub)
        fields.append(Field(name, dt, offset))
        offset += dt.itemsize
    return DType(Kind.STRUCTURED, offset, ByteOrder.NOT_APPLICABLE, tuple(fields))


def field_lookup(dt: DType, name: str) -> tuple[int, DType]:
    """Return (byte offset, dtype) of a named field of a structured dtype."""
    if not dt.is_structured:
        raise FieldNotFoundError(f"dtype {dt} has no fields")
    for f in dt.fields:
        if f.name == name:
            return f.offset, f.dtype
    raise FieldNotFoundError(
        f"no field {name!r}; available fields: {', '.join(dt.field_names())}"
    )


# ---------------------------------------------------------------------------
# Element codec. All multi-byte values are stored little-endian.


def element_code(dt: DType) -> str:
    """Format character of a scalar dtype, shared by struct and memoryview."""
    if dt.is_structured:
        raise TypestrError("structured dtypes are not decoded through a single struct")
    return _STRUCT_CODE[(dt.kind, dt.itemsize)]


def element_struct(dt: DType, count: int = 1) -> struct.Struct:
    """Compiled (little-endian) struct for `count` consecutive scalars of `dt`."""
    return _compiled_struct(element_code(dt), count)


@functools.lru_cache(maxsize=256)  # bounded: every distinct count is a new entry
def _compiled_struct(code: str, count: int) -> struct.Struct:
    return struct.Struct(f"<{count}{code}")


def decode_element(dt: DType, buf, offset: int):
    """Read one element at a byte offset: a Python scalar, or a dict for records."""
    if dt.is_structured:
        return {f.name: decode_element(f.dtype, buf, offset + f.offset) for f in dt.fields}
    return element_struct(dt).unpack_from(buf, offset)[0]


def encode_element(dt: DType, buf, offset: int, value) -> None:
    """Write one element at a byte offset.

    Structured values may be mappings keyed by field name or sequences in
    declaration order.
    """
    if dt.is_structured:
        try:
            seq = ([value[f.name] for f in dt.fields] if isinstance(value, Mapping)
                   else tuple(value))
        except KeyError as exc:
            raise StructFieldError(f"record {value!r} has no field {exc}") from None
        except TypeError:
            raise StructFieldError(f"record value {value!r} is not a mapping or sequence") from None
        if len(seq) != len(dt.fields):
            raise StructFieldError(f"record needs {len(dt.fields)} values, got {len(seq)}")
        for f, v in zip(dt.fields, seq):
            encode_element(f.dtype, buf, offset + f.offset, v)
        return
    try:
        element_struct(dt).pack_into(buf, offset, value)
    except (struct.error, OverflowError) as exc:
        raise ValueRangeError(f"cannot store {value!r} in dtype {dt}: {exc}") from None
