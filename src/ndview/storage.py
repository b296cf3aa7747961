"""Array persistence and interop: memory-mapped files, raw record files, and
the foreign-memory array-interface protocol.

File format (bit-exact): packed little-endian element bytes in C-order, no
header, no padding; structured records are concatenated packed fields in
declaration order. Shape and dtype travel out-of-band. Because the in-memory
representation is identical, a mapped or loaded file needs no translation.

A mapped file must not be opened for writing by two views in the same
process; flush is not atomic across writers. Read-only mappings may be shared
freely.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
from typing import Mapping, Sequence

from .core import ArrayView, Buffer, _byte_span, _extents, _read_packed, contiguous_strides
from .counters import record_allocation
from .dtypes import DType, parse_typestr
from .errors import MappingSizeError, RecordSizeError, StorageError

__all__ = [
    "memmap_open",
    "flush",
    "from_interface",
    "fromfile",
    "tofile",
]


def memmap_open(path, mode: str, shape: Sequence[int], dtype: DType) -> ArrayView:
    """C-contiguous array over a file mapping.

    Mode "write" creates (or truncates) the file at exactly the array's byte
    size, zero-filled, and maps it read-write. Modes "r+" (read-write) and
    "r" (read-only) require an existing file at least that large and map its
    leading bytes.
    """
    if mode not in ("write", "r+", "r"):
        raise StorageError(f"unknown memmap mode {mode!r}; expected 'write', 'r+' or 'r'")
    shape = _extents(shape)
    nbytes = math.prod(shape) * dtype.itemsize
    if mode == "write":
        with open(path, "wb") as f:
            f.truncate(nbytes)
    elif not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    elif os.path.getsize(path) < nbytes:
        raise MappingSizeError(
            f"file {path} holds {os.path.getsize(path)} bytes, mapping needs {nbytes}")
    read_only = mode == "r"
    raw = bytearray(0)  # mmap cannot map zero bytes
    if nbytes:
        with open(path, "rb" if read_only else "r+b") as f:
            access = mmap.ACCESS_READ if read_only else mmap.ACCESS_WRITE
            raw = mmap.mmap(f.fileno(), nbytes, access=access)
    buf = Buffer(raw, mapped=True, read_only=read_only)
    return ArrayView(buf, 0, shape, contiguous_strides(shape, dtype.itemsize), dtype)


def flush(v: ArrayView) -> None:
    """Write pending modifications of a mapped array through to its file."""
    if not v.buffer.mapped:
        raise StorageError("flush on a buffer that is not a file mapping")
    if isinstance(v.buffer.raw, mmap.mmap):  # zero-byte mappings hold a bytearray
        v.buffer.raw.flush()


def from_interface(source) -> ArrayView:
    """Zero-copy view over foreign memory described by an array interface.

    Accepts a protocol dict, or any object with an ``__array_interface__``
    attribute, whose dict is read and whose object is retained so the memory
    cannot be collected under the view. The dict's keys are the protocol's:
    "shape", "data" (address, read-only flag), "typestr" and optional
    "strides" (absent or None means C-contiguous). For a plain dict, the
    declared bytes must stay valid at the address for the lifetime of every
    view created from it; that lifetime is the caller's responsibility.
    """
    owner = None
    if isinstance(source, Mapping):
        desc = source
    elif hasattr(source, "__array_interface__"):
        owner = source
        desc = source.__array_interface__
    else:
        raise StorageError(f"{type(source).__name__} does not expose an array interface")
    try:
        shape, data, typestr = desc["shape"], desc["data"], desc["typestr"]
    except KeyError as exc:
        raise StorageError(f"array-interface dict missing key {exc}") from None

    dtype = parse_typestr(typestr)
    address, read_only = int(data[0]), bool(data[1])
    shape = _extents(shape)
    strides = desc.get("strides") or contiguous_strides(shape, dtype.itemsize)
    lo, hi = _byte_span(shape, strides, dtype.itemsize)
    if address == 0 and hi > lo:
        raise StorageError("array interface has a null data location")

    if hi > lo:
        raw = (ctypes.c_ubyte * (hi - lo)).from_address(address + lo)
    else:
        raw = (ctypes.c_ubyte * 0)()
    buf = Buffer(raw, read_only=read_only, owner=owner)
    return ArrayView(buf, -lo, shape, strides, dtype)


def fromfile(path, dtype: DType) -> ArrayView:
    """Eagerly read a raw record file into a fresh 1-D heap array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        count, remainder = divmod(size, dtype.itemsize)
        if remainder:
            raise RecordSizeError(
                f"file {path} holds {size} bytes, {remainder} bytes short of "
                f"a whole {dtype.itemsize}-byte record boundary")
        raw = bytearray(size)
        got = f.readinto(raw)
    if got != size:
        raise StorageError(f"file {path} shrank to {got} bytes while {size} were read")
    record_allocation(size)
    return ArrayView(Buffer(raw), 0, (count,), (dtype.itemsize,), dtype)


def tofile(v: ArrayView, path) -> None:
    """Write a view's elements to a raw file in logical C-order.

    Non-contiguous views write their logical elements, not their raw buffer,
    so fromfile(tofile(v)) always reproduces v's values.
    """
    with open(path, "wb") as f:
        f.write(_read_packed(v))
