"""Exception types raised across the library.

Every error carries a plain-language message naming the offending value;
callers distinguish failure modes by type, not by parsing messages.
"""


class NdviewError(Exception):
    """Base class for all library errors."""


class TypestrError(NdviewError, ValueError):
    """Malformed or unsupported type string, or a dtype with no typestr form."""


class ByteOrderError(TypestrError):
    """Big-endian data is not supported for multi-byte element types."""


class StructFieldError(NdviewError, ValueError):
    """Invalid structured-dtype field list (duplicate, empty, or bad name)."""


class FieldNotFoundError(NdviewError, LookupError):
    """Field name not present in a structured dtype."""


class BoundsError(NdviewError, IndexError):
    """Index outside an axis extent."""


class NotWriteableError(NdviewError, PermissionError):
    """Write attempted through a non-writeable view or read-only buffer."""


class BroadcastError(NdviewError, ValueError):
    """Shapes cannot be broadcast together."""


class ShapeError(NdviewError, ValueError):
    """Shape mismatch: reshape element count, dot inner extents, length pre-checks."""


class ReinterpretError(NdviewError, ValueError):
    """Dtype reinterpretation violates contiguity or divisibility rules."""


class ValueRangeError(NdviewError, ValueError):
    """A value the element type cannot hold: out of range, or not of its kind."""


class IntegerDivisionError(NdviewError, ZeroDivisionError):
    """Integer division by zero (float division yields inf/nan instead)."""


class AllocationError(NdviewError, MemoryError):
    """Buffer allocation failed or would overflow."""


class StorageError(NdviewError, ValueError):
    """File or foreign-memory operation used out of contract."""


class MappingSizeError(StorageError):
    """File too small for the requested mapping."""


class RecordSizeError(StorageError):
    """File size is not a whole number of records."""
