import pytest
from hypothesis import given, strategies as st

import ndview as nv
from ndview.dtypes import DType, Kind, _compiled_struct, element_struct
from ndview.errors import (
    ByteOrderError,
    FieldNotFoundError,
    StructFieldError,
    TypestrError,
)

SCALARS = [nv.int8, nv.int16, nv.int32, nv.int64,
           nv.uint8, nv.uint16, nv.uint32, nv.uint64,
           nv.float32, nv.float64, nv.bool_]

CANONICAL_TYPESTRS = ["|i1", "<i2", "<i4", "<i8",
                      "|u1", "<u2", "<u4", "<u8",
                      "<f4", "<f8", "|b1"]


class TestParseTypestr:
    def test_u1(self):
        dt = nv.parse_typestr("|u1")
        assert dt.kind is Kind.UNSIGNED
        assert dt.itemsize == 1
        assert nv.format_typestr(dt) == "|u1"

    def test_i8(self):
        dt = nv.parse_typestr("<i8")
        assert dt == nv.int64
        assert nv.format_typestr(dt) == "<i8"

    def test_bad_order_char(self):
        with pytest.raises(TypestrError, match="'x'"):
            nv.parse_typestr("x4")

    def test_bad_kind_char(self):
        with pytest.raises(TypestrError, match="'z'"):
            nv.parse_typestr("<z8")

    def test_bad_size_char(self):
        with pytest.raises(TypestrError, match="'q'"):
            nv.parse_typestr("<iq")

    def test_big_endian_rejected_by_default(self):
        with pytest.raises(ByteOrderError):
            nv.parse_typestr(">f8")

    def test_big_endian_single_byte_normalizes(self):
        # one-byte types carry no byte order, whatever the prefix says
        assert nv.parse_typestr(">u1") == nv.uint8
        assert nv.parse_typestr("<u1") == nv.uint8

    def test_pipe_on_multibyte_rejected(self):
        with pytest.raises(TypestrError):
            nv.parse_typestr("|i8")

    @pytest.mark.parametrize("s", ["<f1", "<f2", "<b2", "<i3", "<u16", "<i0"])
    def test_unsupported_sizes(self, s):
        with pytest.raises(TypestrError):
            nv.parse_typestr(s)


class TestFormatTypestr:
    def test_u1(self):
        assert nv.format_typestr(nv.uint8) == "|u1"

    def test_f8(self):
        assert nv.format_typestr(nv.float64) == "<f8"

    def test_structured_not_representable(self):
        dt = nv.make_struct_dtype([("a", nv.uint8)])
        with pytest.raises(TypestrError):
            nv.format_typestr(dt)

    @pytest.mark.parametrize("s", CANONICAL_TYPESTRS)
    def test_round_trip_canonical(self, s):
        assert nv.format_typestr(nv.parse_typestr(s)) == s


class TestStructDtype:
    def test_nested_packed_layout(self):
        dt = nv.make_struct_dtype([
            ("time", nv.uint64),
            ("pos", [("x", nv.float64), ("y", nv.float64)]),
        ])
        assert dt.itemsize == 24
        assert nv.field_lookup(dt, "time") == (0, nv.uint64)
        off, pos = nv.field_lookup(dt, "pos")
        assert off == 8
        assert pos.is_structured
        assert nv.field_lookup(pos, "x") == (0, nv.float64)
        assert nv.field_lookup(pos, "y") == (8, nv.float64)

    def test_single_field(self):
        dt = nv.make_struct_dtype([("a", nv.uint8)])
        assert dt.itemsize == 1
        assert dt.field_names() == ("a",)

    def test_duplicate_name(self):
        with pytest.raises(StructFieldError, match="'a'"):
            nv.make_struct_dtype([("a", nv.uint8), ("a", nv.float64)])

    def test_empty_spec(self):
        with pytest.raises(StructFieldError):
            nv.make_struct_dtype([])

    def test_empty_name(self):
        with pytest.raises(StructFieldError):
            nv.make_struct_dtype([("", nv.uint8)])

    def test_unknown_field_lists_names(self):
        dt = nv.make_struct_dtype([("time", nv.uint64), ("flag", nv.bool_)])
        with pytest.raises(FieldNotFoundError, match="time, flag"):
            nv.field_lookup(dt, "z")

    def test_lookup_on_scalar(self):
        with pytest.raises(FieldNotFoundError):
            nv.field_lookup(nv.int64, "a")


# --- properties -------------------------------------------------------------

_names = st.text("abcdefghij", min_size=1, max_size=5)
_leaves = st.sampled_from(SCALARS)
_nested = st.recursive(
    _leaves,
    lambda kids: st.lists(st.tuples(_names, kids), min_size=1, max_size=4,
                          unique_by=lambda kv: kv[0]),
    max_leaves=10,
)
_specs = st.lists(st.tuples(_names, _nested), min_size=1, max_size=4,
                  unique_by=lambda kv: kv[0])


def _leaf_size_sum(spec) -> int:
    # independent oracle: recursive enumeration of leaf itemsizes
    total = 0
    for _, sub in spec:
        total += sub.itemsize if isinstance(sub, DType) else _leaf_size_sum(sub)
    return total


@given(_specs)
def test_packing_itemsize_is_leaf_sum(spec):
    dt = nv.make_struct_dtype(spec)
    assert dt.itemsize == _leaf_size_sum(spec)


@given(_specs)
def test_field_offsets_strictly_increasing(spec):
    dt = nv.make_struct_dtype(spec)
    offsets = [nv.field_lookup(dt, name)[0] for name in dt.field_names()]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == len(offsets)


@pytest.mark.parametrize("dt", SCALARS, ids=str)
def test_kind_and_itemsize_build_every_scalar(dt):
    assert DType(dt.kind, dt.itemsize) == dt


@given(st.sampled_from(CANONICAL_TYPESTRS))
def test_round_trip_property(s):
    assert nv.format_typestr(nv.parse_typestr(s)) == s


def test_struct_cache_is_bounded():
    for count in range(1, 1001):
        assert element_struct(nv.int64, count).size == 8 * count
    info = _compiled_struct.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
