import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import ndview as nv
from ndview.counters import counting
from ndview.errors import (
    BoundsError,
    NotWriteableError,
    ReinterpretError,
    ShapeError,
    StructFieldError,
    ValueRangeError,
)


def make_grid():
    return nv.reshape(nv.arange(0, 9, 1), (3, 3))


class TestContiguousStrides:
    def test_3x3_int64(self):
        assert nv.contiguous_strides((3, 3), 8) == (24, 8)

    def test_10x10_bytes(self):
        assert nv.contiguous_strides((10, 10), 1) == (10, 1)

    def test_1d(self):
        assert nv.contiguous_strides((5,), 8) == (8,)

    def test_empty_shape(self):
        assert nv.contiguous_strides((), 8) == ()


class TestCreate:
    def test_3x3_int64(self):
        v = nv.create((3, 3), nv.int64)
        assert v.strides == (24, 8)
        assert v.buffer.nbytes == 72
        assert v.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert v.flags.writeable and not v.flags.is_view

    def test_empty(self):
        v = nv.create((0,), nv.float64)
        assert v.buffer.nbytes == 0
        assert v.tolist() == []

    def test_structured(self):
        dt = nv.make_struct_dtype([("t", nv.uint64), ("x", nv.float64), ("y", nv.float64)])
        v = nv.create((2, 2), dt)
        assert v.buffer.nbytes == 96

    def test_negative_extent(self):
        with pytest.raises(ShapeError):
            nv.create((-1, 3), nv.int64)

    def test_impossible_allocation(self):
        with pytest.raises(nv.AllocationError):
            nv.Buffer.allocate(-1)


class TestArange:
    def test_stepped(self):
        assert nv.arange(0, 10, 2).tolist() == [0, 2, 4, 6, 8]

    def test_simple(self):
        assert nv.arange(9).tolist() == list(range(9))

    def test_empty(self):
        assert nv.arange(5, 5, 1).tolist() == []

    def test_negative_step(self):
        assert nv.arange(5, 0, -2).tolist() == [5, 3, 1]

    def test_float(self):
        assert nv.arange(0.0, 1.0, 0.25, nv.float64).tolist() == [0.0, 0.25, 0.5, 0.75]

    def test_zero_step(self):
        with pytest.raises(ValueError):
            nv.arange(0, 5, 0)

    def test_zero_step_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="step cannot be zero"):
            nv.arange(0, 5, 0)

    def test_values_the_dtype_cannot_hold(self):
        with pytest.raises(ValueRangeError, match="cannot store 128"):
            nv.arange(0, 300, 1, nv.int8)
        with pytest.raises(ValueRangeError, match="cannot store -1"):
            nv.arange(-1, 2, 1, nv.uint8)
        with pytest.raises(ValueRangeError, match="cannot store 0.0"):
            nv.arange(0.0, 3.0, 1.0, nv.int64)

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 1.0, math.nan), (0.0, math.inf, 1.0), (math.nan, 1.0, 1.0)])
    def test_non_finite_length_is_a_shape_error(self, start, stop, step):
        with pytest.raises(ShapeError, match="no finite length"):
            nv.arange(start, stop, step, nv.float64)


class TestElementOffset:
    def test_interior(self):
        assert nv.element_offset(make_grid(), (1, 2)) == 40

    def test_origin(self):
        assert nv.element_offset(make_grid(), (0, 0)) == 0

    def test_out_of_bounds_reports_axis(self):
        with pytest.raises(BoundsError, match="axis 0 with extent 3"):
            nv.element_offset(make_grid(), (3, 0))

    def test_wrong_rank(self):
        with pytest.raises(BoundsError):
            nv.element_offset(make_grid(), (1,))

    def test_negative_indices_count_from_the_end(self):
        assert nv.element_offset(make_grid(), (-1, -3)) == nv.element_offset(make_grid(), (2, 0))
        with pytest.raises(BoundsError, match="index -4 out of bounds for axis 1 with extent 3"):
            nv.element_offset(make_grid(), (0, -4))


class TestGetSet:
    def test_write_through_slice_visible_in_base(self):
        x = make_grid()
        y = nv.slice_view(x, [slice(None, None, 2), slice(None, None, 2)])
        nv.set_element(y, (0, 0), 100)
        assert nv.get_element(x, (0, 0)) == 100
        assert x.tolist() == [[100, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_structured_record_roundtrip(self):
        dt = nv.make_struct_dtype([("t", nv.uint64),
                                   ("pos", [("x", nv.float64), ("y", nv.float64)])])
        v = nv.create((2,), dt)
        nv.set_element(v, (0,), (1, (0.0, 0.5)))
        nv.set_element(v, (1,), {"t": 2, "pos": {"x": 1.5, "y": -2.0}})
        assert nv.get_element(v, (0,)) == {"t": 1, "pos": {"x": 0.0, "y": 0.5}}
        assert nv.get_element(v, (1,)) == {"t": 2, "pos": {"x": 1.5, "y": -2.0}}

    def test_negative_indices_count_from_the_end(self):
        x = make_grid()
        assert nv.get_element(x, (-1, -2)) == 7
        nv.set_element(x, (-3, -1), 20)
        assert x.tolist()[0] == [0, 1, 20]
        with pytest.raises(BoundsError, match="index -4 out of bounds for axis 0 with extent 3"):
            nv.get_element(x, (-4, 0))
        with pytest.raises(BoundsError, match="index -4 out of bounds for axis 1 with extent 3"):
            nv.set_element(x, (0, -4), 1)

    def test_readonly_buffer_rejects_write(self):
        x = make_grid()
        frozen = nv.ArrayView(x.buffer, 0, x.shape, x.strides, x.dtype, writeable=False)
        with pytest.raises(NotWriteableError):
            nv.set_element(frozen, (0, 0), 1)

    def test_bool_index_rejected(self):
        x = make_grid()
        with pytest.raises(TypeError, match="unsupported index"):
            x[True]
        with pytest.raises(TypeError, match="unsupported index"):
            x[True, 0]
        with pytest.raises(TypeError, match="unsupported index"):
            x[True] = 5
        with pytest.raises(TypeError, match="unsupported index"):
            x[0, False] = 5
        assert x.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_mask_assignment_rejected(self):
        # x[mask] is a copy, so writing through it would silently lose the values
        x = nv.arange(6)
        with pytest.raises(TypeError, match="mask assignment"):
            x[nv.compare("ge", x, 3)] = 0
        assert x.tolist() == [0, 1, 2, 3, 4, 5]
        with pytest.raises(TypeError, match="mask assignment"):
            x[nv.compare("ge", x, 3)] += 10
        assert x.tolist() == [0, 1, 2, 3, 4, 5]


class TestArrayFromMalformedInput:
    def test_ragged_nested_list(self):
        with pytest.raises(ShapeError, match="ragged"):
            nv.array_from([[1, 2], 3], nv.int64)

    def test_record_missing_a_field(self):
        from ndview.demos import measurement_dtype
        with pytest.raises(StructFieldError, match="'pos'"):
            nv.array_from([{"time": 1}], measurement_dtype())

    def test_record_that_is_not_a_mapping_or_sequence(self):
        from ndview.demos import measurement_dtype
        with pytest.raises(StructFieldError, match="5"):
            nv.array_from([5], measurement_dtype())


class TestOverlappingAssignment:
    # Expected values are NumPy 2.4's results for the same statements.
    def test_transpose_into_itself(self):
        y = make_grid()
        y[:, :] = nv.transpose(y)
        assert y.tolist() == [[0, 3, 6], [1, 4, 7], [2, 5, 8]]

    def test_shifted_strided_slice(self):
        w = nv.arange(0, 10, 1)
        w[2::2] = w[0:8:2]
        assert w.tolist() == [0, 1, 0, 3, 2, 5, 4, 7, 6, 9]

    def test_contiguous_shift(self):
        w = nv.arange(0, 10, 1)
        w[1:] = w[:-1]
        assert w.tolist() == [0, 0, 1, 2, 3, 4, 5, 6, 7, 8]


class TestSliceView:
    def test_every_second(self):
        y = nv.slice_view(make_grid(), [slice(None, None, 2), slice(None, None, 2)])
        assert y.shape == (2, 2)
        assert y.strides == (48, 16)
        assert y.tolist() == [[0, 2], [6, 8]]
        assert y.flags.is_view

    def test_tail_slice_moves_offset(self):
        x = nv.arange(0, 5, 1)
        y = nv.slice_view(x, [slice(1, None)])
        assert y.shape == (4,)
        assert y.base_offset == 8
        assert y.tolist() == [1, 2, 3, 4]

    def test_full_slice_is_identity_header(self):
        x = make_grid()
        y = nv.slice_view(x, [slice(None), slice(None)])
        assert (y.base_offset, y.shape, y.strides) == (x.base_offset, x.shape, x.strides)

    def test_negative_step_reverses(self):
        x = nv.arange(0, 5, 1)
        y = nv.slice_view(x, [slice(None, None, -1)])
        assert y.tolist() == [4, 3, 2, 1, 0]
        assert y.strides == (-8,)
        assert y.base_offset == 32

    def test_negative_indices_and_clamping(self):
        x = nv.arange(0, 5, 1)
        assert nv.slice_view(x, [slice(-2, None)]).tolist() == [3, 4]
        assert nv.slice_view(x, [slice(2, 100)]).tolist() == [2, 3, 4]
        assert nv.slice_view(x, [slice(7, 9)]).tolist() == []

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            nv.slice_view(make_grid(), [slice(None, None, 0)])

    def test_zero_step_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="step is zero on axis 0"):
            nv.slice_view(nv.arange(5), [slice(0, 5, 0)])

    def test_spec_entries_must_be_slices(self):
        with pytest.raises(TypeError, match="must be slices"):
            nv.slice_view(make_grid(), [(0, 2)])

    def test_getitem_sugar(self):
        x = make_grid()
        assert x[::2, ::2].tolist() == [[0, 2], [6, 8]]
        assert x[1, 2] == 5
        assert x[1].tolist() == [3, 4, 5]
        assert x[:, 1].tolist() == [1, 4, 7]
        assert x[-1, -1] == 8
        with pytest.raises(BoundsError, match="index -6 out of bounds for axis 0 with extent 5"):
            nv.arange(5)[-6]
        m = nv.reshape(nv.arange(0, 6, 1), (2, 3))
        with pytest.raises(BoundsError, match="index -3 out of bounds for axis 0 with extent 2"):
            m[-3, 0]
        with pytest.raises(BoundsError, match="index -3 out of bounds for axis 0 with extent 2"):
            m[-3]
        with pytest.raises(BoundsError, match="index -4 out of bounds for axis 1 with extent 3"):
            m[0, -4] = 1

    def test_mixed_key_errors_name_the_source_axis(self):
        m = nv.reshape(nv.arange(0, 6, 1), (2, 3))
        with pytest.raises(BoundsError, match="index 3 out of bounds for axis 0 with extent 2"):
            m[None, 3]
        with pytest.raises(BoundsError, match="index 4 out of bounds for axis 1 with extent 3"):
            m[0, 4, None]
        with pytest.raises(BoundsError, match="index -4 out of bounds for axis 1 with extent 3"):
            m[None, :, -4]

    def test_one_header_per_key(self, monkeypatch):
        x = nv.reshape(nv.arange(0, 600, 1), (200, 3))
        built = []
        init = nv.ArrayView.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nv.ArrayView, "__init__", counted_init)
        for key, shape in [((100, slice(None)), (3,)),
                           ((slice(None), slice(None, None, 2)), (200, 2)),
                           ((None, 1), (1, 3))]:
            built.clear()
            assert x[key].shape == shape
            assert len(built) == 1, key

    def test_setitem_scalar_fill(self):
        x = make_grid()
        x[1, :] = 9
        assert x.tolist() == [[0, 1, 2], [9, 9, 9], [6, 7, 8]]


class TestIndexAxis:
    def test_negative_index_counts_from_the_end(self):
        assert nv.index_axis(make_grid(), 1, -1).tolist() == [2, 5, 8]
        assert nv.index_axis(make_grid(), 0, -3).tolist() == [0, 1, 2]

    def test_out_of_bounds_names_the_index_as_written(self):
        with pytest.raises(BoundsError, match="index -4 out of bounds for axis 1 with extent 3"):
            nv.index_axis(make_grid(), 1, -4)
        with pytest.raises(BoundsError, match="index 3 out of bounds for axis 0 with extent 3"):
            nv.index_axis(make_grid(), 0, 3)
        with pytest.raises(BoundsError, match="axis 2 out of range for rank 2"):
            nv.index_axis(make_grid(), 2, 0)


class TestTranspose:
    def test_strides_swap(self):
        xt = nv.transpose(make_grid())
        assert xt.strides == (8, 24)
        assert nv.get_element(xt, (0, 1)) == 3

    def test_1d_unchanged(self):
        x = nv.arange(0, 4, 1)
        assert nv.transpose(x).tolist() == x.tolist()

    def test_involution_on_headers(self):
        x = make_grid()
        y = nv.transpose(nv.transpose(x))
        assert (y.base_offset, y.shape, y.strides, y.dtype) == \
            (x.base_offset, x.shape, x.strides, x.dtype)


class TestReshape:
    def test_flatten_to_row(self):
        z = nv.reshape(make_grid(), (1, 9))
        assert z.strides == (72, 8)
        assert z.flags.is_view

    def test_pack_to_square(self):
        x = nv.reshape(nv.arange(9), (3, 3))
        assert x.strides == (24, 8)
        assert x.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            nv.reshape(make_grid(), (2, 4))

    def test_noncontiguous_copies(self):
        xt = nv.transpose(make_grid())  # F-contiguous, not C
        flat = nv.reshape(xt, (9,))
        assert not flat.flags.is_view
        assert flat.buffer is not xt.buffer
        assert flat.tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8]

    def test_zero_copy_shares_buffer(self):
        x = make_grid()
        z = nv.reshape(x, (9,))
        assert z.buffer is x.buffer


class TestReinterpret:
    def test_int64_to_bytes(self):
        x = make_grid()
        y = nv.slice_view(x, [slice(None, None, 2), slice(None, None, 2)])
        nv.set_element(y, (0, 0), 100)
        z = nv.reshape(x, (1, 9))
        zb = nv.reinterpret_dtype(z, nv.uint8)
        assert zb.shape == (1, 72)
        assert zb.strides == (72, 1)
        assert nv.get_element(zb, (0, 0)) == 100
        assert nv.get_element(zb, (0, 1)) == 0

    def test_identity(self):
        v = nv.create((4,), nv.uint8)
        w = nv.reinterpret_dtype(v, nv.uint8)
        assert (w.shape, w.strides) == (v.shape, v.strides)

    def test_divisibility(self):
        v = nv.create((3,), nv.int64)
        with pytest.raises(ReinterpretError):
            nv.reinterpret_dtype(v, nv.make_struct_dtype(
                [("a", nv.uint32), ("b", nv.uint8)]))  # itemsize 5

    def test_noncontiguous_last_axis(self):
        x = make_grid()
        col = nv.slice_view(nv.transpose(x), [slice(None), slice(None)])
        with pytest.raises(ReinterpretError):
            nv.reinterpret_dtype(col, nv.uint8)

    def test_preserves_total_bytes(self):
        v = nv.create((4, 6), nv.int32)
        w = nv.reinterpret_dtype(v, nv.uint16)
        assert w.size * w.itemsize == v.size * v.itemsize


class TestFillFlat:
    def test_c_order(self):
        v = nv.create((2, 2), nv.int64)
        nv.fill_flat(v, [1, 2, 3, 4])
        assert v.tolist() == [[1, 2], [3, 4]]

    def test_c_order_ignores_strides(self):
        v = nv.transpose(nv.create((2, 3), nv.int64))  # (3, 2), strides (8, 24)
        nv.fill_flat(v, [1, 2, 3, 4, 5, 6])
        assert v.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nv.fill_flat(nv.create((2, 2), nv.int64), [1, 2, 3])

    def test_range_source(self):
        v = nv.create((30, 30), nv.int64)
        nv.fill_flat(v, range(900))
        assert v[0, :4].tolist() == [0, 1, 2, 3]
        assert v[1, 0] == 30


class TestFlags:
    def test_c_contiguous_grid(self):
        f = make_grid().flags
        assert f.c_contiguous and not f.f_contiguous

    def test_transpose_is_fortran(self):
        f = nv.transpose(make_grid()).flags
        assert not f.c_contiguous and f.f_contiguous

    def test_degenerate_both(self):
        v = nv.ArrayView(nv.create((1, 1), nv.int64).buffer, 0, (1, 1), (999, 123), nv.int64)
        f = v.flags
        assert f.c_contiguous and f.f_contiguous


# --- randomized view-chain machinery -----------------------------------------


def _draw_chain(data, base):
    """Apply a random chain of zero-copy view ops, all safely in bounds."""
    v = base
    for _ in range(data.draw(st.integers(0, 4), label="chain length")):
        op = data.draw(st.sampled_from(["slice", "transpose", "newaxis", "reshape"]),
                       label="op")
        if op == "slice" and v.ndim:
            spec = []
            for ext in v.shape:
                start = data.draw(st.one_of(st.none(), st.integers(-ext - 1, ext + 1)))
                stop = data.draw(st.one_of(st.none(), st.integers(-ext - 1, ext + 1)))
                step = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
                spec.append(slice(start, stop, step))
            v = nv.slice_view(v, spec)
        elif op == "transpose":
            v = nv.transpose(v)
        elif op == "newaxis":
            v = nv.newaxis_view(v, data.draw(st.integers(0, v.ndim)))
        elif op == "reshape" and v.flags.c_contiguous:
            n = v.size
            if n > 0 and n % 2 == 0:
                v = nv.reshape(v, (2, n // 2))
            else:
                v = nv.reshape(v, (n,))
    return v


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_aliasing_chain(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    base = nv.reshape(nv.arange(0, math.prod(shape), 1), shape)
    w = _draw_chain(data, base)
    if w.size == 0:
        return
    idx = tuple(data.draw(st.integers(0, e - 1)) for e in w.shape)
    nv.set_element(w, idx, -999999)
    # the buffer is the base's contiguous allocation, so the written offset
    # maps straight back to a base index
    off = nv.element_offset(w, idx)
    linear = off // base.itemsize
    base_idx = (linear // shape[-1], linear % shape[-1]) if len(shape) == 2 else None
    flat = nv.reshape(base, (base.size,))
    assert nv.get_element(flat, (linear,)) == -999999
    if base_idx is not None:
        assert nv.get_element(base, base_idx) == -999999


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bounds_chain(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    base = nv.reshape(nv.arange(0, math.prod(shape), 1), shape)
    w = _draw_chain(data, base)
    limit = w.buffer.nbytes - w.itemsize
    for idx in itertools.product(*map(range, w.shape)):
        assert 0 <= nv.element_offset(w, idx) <= limit
    if w.ndim and w.size:
        bad = (w.shape[0],) + tuple(0 for _ in w.shape[1:])
        with pytest.raises(BoundsError):
            nv.element_offset(w, bad)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_view_chain_allocates_nothing(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    base = nv.reshape(nv.arange(0, math.prod(shape), 1), shape)
    with counting() as tally:
        v = _draw_chain(data, base)
        if v.flags.c_contiguous:
            nv.reshape(v, (v.size,))
        nv.transpose(v)
        if v.itemsize == 8:
            nv.reinterpret_dtype(nv.reshape(base, (base.size,)), nv.uint8)
    assert tally.buffers_allocated == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=0, max_size=3))
def test_contiguous_addressing(shape):
    shape = tuple(shape)
    v = nv.create(shape, nv.int16)
    if v.size == 0:
        return
    import itertools
    for linear, idx in enumerate(itertools.product(*map(range, shape))):
        assert nv.element_offset(v, idx) == linear * v.itemsize
