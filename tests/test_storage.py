import ctypes
import gc
import os
import struct
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import ndview as nv
from ndview import storage
from ndview.counters import counting
from ndview.demos import MutableText, measurement_dtype, sample_measurements
from ndview.errors import (
    ByteOrderError,
    MappingSizeError,
    NotWriteableError,
    RecordSizeError,
    StorageError,
)


class TestMemmap:
    def test_write_mode_creates_zeroed_file(self, tmp_path):
        p = tmp_path / "a.raw"
        a = nv.memmap_open(p, "write", (30, 30), nv.int64)
        assert os.path.getsize(p) == 7200
        assert a.strides == (240, 8)
        assert nv.gather(a[0, :3]) == [0, 0, 0]

    def test_fill_flush_reopen(self, tmp_path):
        p = tmp_path / "a.raw"
        a = nv.memmap_open(p, "write", (30, 30), nv.int64)
        nv.fill_flat(a, range(900))
        nv.flush(a)
        b = nv.memmap_open(p, "r+", (30, 30), nv.int64)
        assert nv.gather(b[0, :4]) == [0, 1, 2, 3]
        assert b[1, 0] == 30

    def test_row_double_durable(self, tmp_path):
        p = tmp_path / "a.raw"
        a = nv.memmap_open(p, "write", (30, 30), nv.int64)
        nv.fill_flat(a, range(900))
        nv.flush(a)
        b = nv.memmap_open(p, "r+", (30, 30), nv.int64)
        nv.elementwise_binary_inplace("mul", b[10, :], 2)
        nv.flush(b)
        c = nv.memmap_open(p, "r", (30, 30), nv.int64)
        assert nv.gather(c[10, :3]) == [600, 602, 604]
        assert nv.gather(c[9, :3]) == [270, 271, 272]
        assert nv.gather(c[11, :3]) == [330, 331, 332]

    def test_read_only_rejects_writes(self, tmp_path):
        p = tmp_path / "a.raw"
        nv.memmap_open(p, "write", (4,), nv.int64)
        c = nv.memmap_open(p, "r", (4,), nv.int64)
        assert not c.flags.writeable
        with pytest.raises(NotWriteableError):
            nv.set_element(c, (0,), 1)

    def test_file_that_shrinks_while_read(self, tmp_path, monkeypatch):
        # the size is taken before the read; a file that loses bytes in between is an error
        p = tmp_path / "shrinking.dat"
        p.write_bytes(b"\0" * 16)
        real_fstat = os.fstat
        monkeypatch.setattr(storage, "os", types.SimpleNamespace(
            fstat=lambda fd: types.SimpleNamespace(st_size=real_fstat(fd).st_size + 8)))
        with pytest.raises(StorageError, match="shrank to 16 bytes while 24 were read"):
            nv.fromfile(p, nv.int64)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            nv.memmap_open(tmp_path / "missing.raw", "r", (4,), nv.int64)

    def test_mapping_is_released_with_its_last_view(self, tmp_path):
        # reference counting alone releases the mapping: no collector pass runs here
        p = tmp_path / "a.raw"
        gc.disable()
        try:
            v = nv.memmap_open(p, "write", (4,), nv.int64)
            mapping = weakref.ref(v.buffer.raw)
            del v
            assert mapping() is None
            v = nv.memmap_open(p, "r+", (4,), nv.int64)
            mapping = weakref.ref(v.buffer.raw)
            row = v[1:3]
            del v
            assert mapping() is not None  # the slice still reads the mapping
            del row
            assert mapping() is None
        finally:
            gc.enable()

    def test_short_file(self, tmp_path):
        p = tmp_path / "short.raw"
        p.write_bytes(b"\0" * 8)
        with pytest.raises(MappingSizeError):
            nv.memmap_open(p, "r+", (4,), nv.int64)

    def test_oversize_file_maps_prefix(self, tmp_path):
        p = tmp_path / "big.raw"
        p.write_bytes(struct.pack("<5q", 1, 2, 3, 4, 5))
        v = nv.memmap_open(p, "r", (3,), nv.int64)
        assert v.tolist() == [1, 2, 3]

    def test_flush_on_heap_array(self):
        with pytest.raises(StorageError):
            nv.flush(nv.create((3,), nv.int64))

    def test_flush_on_foreign_array(self):
        with pytest.raises(StorageError):
            nv.flush(nv.from_interface(MutableText("abc")))

    def test_flush_on_zero_byte_mapping_is_a_no_op(self, tmp_path):
        p = tmp_path / "empty.raw"
        a = nv.memmap_open(p, "write", (0, 3), nv.int64)
        nv.flush(a)
        assert a.buffer.nbytes == 0 and os.path.getsize(p) == 0

    def test_bad_mode(self, tmp_path):
        with pytest.raises(StorageError):
            nv.memmap_open(tmp_path / "a.raw", "a+", (4,), nv.int64)

    def test_file_bytes_are_packed_little_endian(self, tmp_path):
        p = tmp_path / "a.raw"
        a = nv.memmap_open(p, "write", (3,), nv.int64)
        nv.fill_flat(a, [1, 2, 3])
        nv.flush(a)
        assert p.read_bytes() == struct.pack("<3q", 1, 2, 3)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40))
    def test_durability_randomized(self, values):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "r.raw")
            a = nv.memmap_open(p, "write", (len(values),), nv.int64)
            nv.fill_flat(a, values)
            nv.flush(a)
            b = nv.memmap_open(p, "r", (len(values),), nv.int64)
            assert b.tolist() == values


class TestArrayInterface:
    def test_mutable_text_values(self):
        m = MutableText("abcde")
        am = nv.from_interface(m)
        assert am.tolist() == [97, 98, 99, 100, 101]
        assert am.dtype == nv.uint8

    def test_inplace_write_reaches_exporter(self):
        m = MutableText("abcde")
        am = nv.from_interface(m)
        nv.elementwise_binary_inplace("add", am, 2)
        assert am.tolist() == [99, 100, 101, 102, 103]
        assert str(m) == "cdefg"

    def test_read_only_descriptor(self):
        buf = ctypes.create_string_buffer(b"xyz")
        desc = {"shape": (3,), "data": (ctypes.addressof(buf), True), "typestr": "|u1"}
        v = nv.from_interface(desc)
        assert not v.flags.writeable
        with pytest.raises(NotWriteableError):
            nv.set_element(v, (0,), 0)

    def test_dict_form(self):
        buf = ctypes.create_string_buffer(b"hi")
        v = nv.from_interface({
            "shape": (2,),
            "data": (ctypes.addressof(buf), False),
            "typestr": "|u1",
        })
        assert v.tolist() == [104, 105]

    def test_explicit_strides(self):
        buf = (ctypes.c_ubyte * 6)(*range(6))
        desc = {"shape": (3,), "data": (ctypes.addressof(buf), False), "typestr": "|u1",
                "strides": (2,)}
        assert nv.from_interface(desc).tolist() == [0, 2, 4]

    def test_allocates_nothing(self):
        m = MutableText("abcde")
        with counting() as tally:
            nv.from_interface(m)
        assert tally.buffers_allocated == 0

    def test_null_location(self):
        desc = {"shape": (3,), "data": (0, False), "typestr": "|u1"}
        with pytest.raises(StorageError):
            nv.from_interface(desc)

    def test_big_endian_typestr_rejected(self):
        buf = ctypes.create_string_buffer(b"\0" * 16)
        desc = {"shape": (2,), "data": (ctypes.addressof(buf), False), "typestr": ">f8"}
        with pytest.raises(ByteOrderError):
            nv.from_interface(desc)

    def test_missing_key(self):
        with pytest.raises(StorageError):
            nv.from_interface({"shape": (1,)})

    def test_non_exporter(self):
        with pytest.raises(StorageError):
            nv.from_interface(42)


class TestRecordFiles:
    def test_hand_packed_records_decode(self, tmp_path):
        # oracle: bytes packed independently with struct
        p = tmp_path / "foo.dat"
        p.write_bytes(struct.pack("<Qdd", 1, 0.0, 0.5)
                      + struct.pack("<Qdd", 2, 0.0, 10.3)
                      + struct.pack("<Qdd", 3, 5.5, 1.1))
        data = nv.fromfile(p, measurement_dtype())
        assert data.shape == (3,)
        assert nv.get_element(data, (0,)) == {"time": 1, "pos": {"x": 0.0, "y": 0.5}}
        assert data["time"].tolist() == [1, 2, 3]

    def test_tofile_matches_hand_packing(self, tmp_path):
        p = tmp_path / "out.dat"
        nv.tofile(sample_measurements(), p)
        assert p.read_bytes() == (struct.pack("<Qdd", 1, 0.0, 0.5)
                                  + struct.pack("<Qdd", 2, 0.0, 10.3)
                                  + struct.pack("<Qdd", 3, 5.5, 1.1))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.dat"
        p.write_bytes(b"")
        assert nv.fromfile(p, measurement_dtype()).shape == (0,)

    def test_remainder_reported(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_bytes(b"\0" * 25)
        with pytest.raises(RecordSizeError, match="1 byte"):
            nv.fromfile(p, measurement_dtype())

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            nv.fromfile(tmp_path / "nope.dat", nv.int64)

    def test_2d_flattens_on_read(self, tmp_path):
        p = tmp_path / "grid.dat"
        x = nv.reshape(nv.arange(0, 9, 1), (3, 3))
        nv.tofile(x, p)
        assert os.path.getsize(p) == 72
        back = nv.fromfile(p, nv.int64)
        assert back.tolist() == list(range(9))

    def test_noncontiguous_writes_logical_order(self, tmp_path):
        p = tmp_path / "t.dat"
        xt = nv.transpose(nv.reshape(nv.arange(0, 9, 1), (3, 3)))
        nv.tofile(xt, p)
        assert nv.fromfile(p, nv.int64).tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8]


_f64 = st.floats(allow_nan=False, width=64)
_record_values = st.tuples(
    st.integers(0, 2 ** 64 - 1),
    st.tuples(_f64, _f64),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_record_values, max_size=20))
def test_fromfile_tofile_identity_records(values):
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "r.dat")
        dt = measurement_dtype()
        v = nv.array_from(list(values), dt)
        nv.tofile(v, p)
        back = nv.fromfile(p, dt)
        assert nv.gather(back) == nv.gather(v)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["|i1", "<i2", "<i4", "<i8", "|u1", "<u2", "<u4", "<u8",
                        "<f4", "<f8", "|b1"]),
       st.data())
def test_fromfile_tofile_identity_scalars(typestr, data):
    import tempfile
    dt = nv.parse_typestr(typestr)
    if dt.kind is nv.Kind.BOOL:
        elems = st.booleans()
    elif dt.kind is nv.Kind.FLOAT:
        elems = st.floats(allow_nan=False, width=8 * dt.itemsize)
    elif dt.kind is nv.Kind.UNSIGNED:
        elems = st.integers(0, 2 ** (8 * dt.itemsize) - 1)
    else:
        elems = st.integers(-2 ** (8 * dt.itemsize - 1), 2 ** (8 * dt.itemsize - 1) - 1)
    values = data.draw(st.lists(elems, max_size=30))
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "s.dat")
        v = nv.create((len(values),), dt)
        nv.fill_flat(v, values)
        nv.tofile(v, p)
        assert nv.fromfile(p, dt).tolist() == values
