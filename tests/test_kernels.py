import itertools
import math
import operator as pyop
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import ndview as nv
from ndview import kernels
from ndview.core import _read_packed
from ndview.counters import counting
from ndview.dtypes import element_struct
from ndview.errors import (
    BroadcastError,
    IntegerDivisionError,
    NdviewError,
    NotWriteableError,
    ShapeError,
    ValueRangeError,
)
from ndview.kernels import promote_dtypes

ALL_SCALARS = [nv.bool_, nv.int8, nv.int16, nv.int32, nv.int64,
               nv.uint8, nv.uint16, nv.uint32, nv.uint64,
               nv.float32, nv.float64]


def arr(values, dtype=nv.int64):
    return nv.array_from(values, dtype)


class TestElementwiseBinary:
    def test_sub(self):
        assert nv.elementwise_binary("sub", arr([3, 9, 15]), arr([1, 3, 5])).tolist() \
            == [2, 6, 10]

    def test_broadcast_add(self):
        b = arr([3, 9, 15])
        m = nv.reshape(nv.arange(0, 6, 1), (2, 3))
        assert nv.elementwise_binary("add", b, m).tolist() == [[3, 10, 17], [6, 13, 20]]

    def test_additive_identity(self):
        x = arr([5, -3, 7])
        zeros = nv.create((3,), nv.int64)
        assert nv.elementwise_binary("add", x, zeros).tolist() == x.tolist()

    def test_broadcast_failure(self):
        with pytest.raises(BroadcastError):
            nv.elementwise_binary("add", arr([1, 2, 3]), arr([1, 2]))

    def test_int_division_truncates_toward_zero(self):
        q = nv.elementwise_binary("div", arr([7, -7, 7, -7]), arr([2, 2, -2, -2]))
        assert q.tolist() == [3, -3, -3, 3]

    def test_int_zero_divisor(self):
        with pytest.raises(IntegerDivisionError):
            nv.elementwise_binary("div", arr([1]), arr([0]))

    def test_float_division_by_zero_is_inf(self):
        q = nv.elementwise_binary("div", arr([1.0, -1.0, 0.0], nv.float64),
                                  arr([0.0, 0.0, 0.0], nv.float64))
        vals = q.tolist()
        assert vals[0] == math.inf
        assert vals[1] == -math.inf
        assert math.isnan(vals[2])

    def test_structured_rejected(self):
        dt = nv.make_struct_dtype([("a", nv.int64)])
        v = nv.create((2,), dt)
        with pytest.raises(TypeError):
            nv.elementwise_binary("add", v, v)


class TestScalarBinary:
    def test_triple(self):
        assert nv.scalar_binary("mul", arr([1, 3, 5]), 3, scalar_side="left").tolist() \
            == [3, 9, 15]

    def test_identity(self):
        x = arr([4, 5, 6])
        assert nv.scalar_binary("add", x, 0).tolist() == x.tolist()

    def test_fractional_scalar_promotes_to_float(self):
        out = nv.scalar_binary("mul", arr([1, 2]), 0.5)
        assert out.dtype == nv.float64
        assert out.tolist() == [0.5, 1.0]

    def test_scalar_side_matters_for_sub(self):
        assert nv.scalar_binary("sub", arr([1, 2]), 10, scalar_side="left").tolist() \
            == [9, 8]
        assert nv.scalar_binary("sub", arr([1, 2]), 10, scalar_side="right").tolist() \
            == [-9, -8]


class TestElementwiseUnary:
    def test_square(self):
        assert nv.elementwise_unary("square", arr([0, 2, 4, 6, 8])).tolist() \
            == [0, 4, 16, 36, 64]

    def test_sqrt_promotes_ints(self):
        out = nv.elementwise_unary("sqrt", arr([0, 1, 4]))
        assert out.dtype == nv.float64
        assert out.tolist() == [0.0, 1.0, 2.0]

    def test_sqrt_negative_is_nan(self):
        out = nv.elementwise_unary("sqrt", arr([-1.0], nv.float64))
        assert math.isnan(out.tolist()[0])

    def test_sqrt_negative_int_is_nan_float(self):
        out = nv.elementwise_unary("sqrt", arr([-4]))
        assert out.dtype == nv.float64
        assert math.isnan(out.tolist()[0])

    def test_neg_involution(self):
        x = arr([1, -2, 3])
        assert nv.elementwise_unary("neg", nv.elementwise_unary("neg", x)).tolist() \
            == x.tolist()


class TestInplace:
    def test_polynomial_sequence(self):
        x = arr([0, 1, 2])
        fx = nv.elementwise_unary("square", x)
        b = nv.scalar_binary("mul", x, 3, scalar_side="left")
        nv.elementwise_binary_inplace("sub", fx, b)
        nv.elementwise_binary_inplace("add", fx, 4)
        assert fx.tolist() == [4, 2, 2]

    def test_row_slice_doubling(self):
        x = nv.reshape(nv.arange(0, 9, 1), (3, 3))
        nv.elementwise_binary_inplace("mul", x[1, :], 2)
        assert x.tolist() == [[0, 1, 2], [6, 8, 10], [6, 7, 8]]

    def test_allocates_nothing(self):
        x = arr([1.0, 2.0, 3.0], nv.float64)
        with counting() as tally:
            nv.elementwise_binary_inplace("add", x, 1)
        assert tally.buffers_allocated == 0

    def test_broadcast_target_rejected(self):
        w = nv.broadcast_view(nv.arange(0, 3, 1), (2, 3))
        with pytest.raises(NotWriteableError):
            nv.elementwise_binary_inplace("add", w, 1)

    def test_expansion_rejected(self):
        x = arr([1, 2, 3])
        m = nv.reshape(nv.arange(0, 6, 1), (2, 3))
        with pytest.raises(ShapeError):
            nv.elementwise_binary_inplace("add", x, m)

    def test_zero_stride_writable_target_rejected(self):
        base = nv.arange(0, 1, 1)
        aliased = nv.ArrayView(base.buffer, 0, (3,), (0,), nv.int64)
        with pytest.raises(BroadcastError):
            nv.elementwise_binary_inplace("add", aliased, 1)

    def test_fractional_result_into_int_target_rejected(self):
        x = arr([1, 2, 3])
        with pytest.raises(ValueError, match="cannot store"):
            nv.elementwise_binary_inplace("add", x, 0.5)

    def test_out_of_range_result_leaves_target_unchanged(self):
        x = arr([[1, 2, 3], [120, 5, 6]], nv.int8)
        with pytest.raises(ValueRangeError, match="cannot store 130"):
            x += 10
        assert x.tolist() == [[1, 2, 3], [120, 5, 6]]

    def test_float32_overflow_is_a_library_error(self):
        x = arr([1.0, -2.0], nv.float32)
        with pytest.raises(ValueRangeError, match="cannot store"):
            nv.scalar_binary("mul", x, 10 ** 300)
        with pytest.raises(ValueRangeError):
            nv.elementwise_binary_inplace("mul", x, 10 ** 300)
        assert x.tolist() == [1.0, -2.0]
        assert issubclass(ValueRangeError, NdviewError)

    def test_inplace_matches_out_of_place_with_fewer_buffers(self):
        x = nv.arange(0.0, 200.0, 1.0, nv.float64)
        with counting() as t_vec:
            a = nv.elementwise_unary("square", x)
            b = nv.scalar_binary("mul", x, 3, scalar_side="left")
            c = nv.elementwise_binary("sub", a, b)
            vec = nv.scalar_binary("add", c, 4)
        with counting() as t_inp:
            fx = nv.elementwise_unary("square", x)
            b2 = nv.scalar_binary("mul", x, 3, scalar_side="left")
            nv.elementwise_binary_inplace("sub", fx, b2)
            nv.elementwise_binary_inplace("add", fx, 4)
        assert vec.tolist() == fx.tolist()
        assert t_vec.buffers_allocated >= 4
        assert t_inp.buffers_allocated == 2


class TestCompare:
    def test_ge_scalar(self):
        out = nv.compare("ge", arr([1, 2, 3]), 2)
        assert out.dtype == nv.bool_
        assert out.tolist() == [False, True, True]

    def test_eq_self(self):
        x = arr([1, 2, 3])
        assert nv.compare("eq", x, x).tolist() == [True, True, True]

    def test_shape_mismatch(self):
        with pytest.raises(BroadcastError):
            nv.compare("ge", arr([1, 2, 3]), arr([1, 2, 3, 4]))

    def test_ge_sugar(self):
        assert (arr([1, 2, 3]) >= 2).tolist() == [False, True, True]


class TestMaskSelect:
    def test_structured_rows(self):
        from ndview.demos import sample_measurements
        x = sample_measurements()
        mask = nv.compare("ge", nv.field_view(x, "time"), 2)
        picked = nv.mask_select(x, mask)
        assert nv.field_view(nv.field_view(picked, "pos"), "x").tolist() == [0.0, 5.5]

    def test_all_false(self):
        x = arr([1, 2, 3])
        mask = nv.compare("gt", x, 99)
        assert nv.mask_select(x, mask).tolist() == []

    def test_length_mismatch(self):
        x = arr([1, 2, 3])
        mask = nv.compare("gt", arr([1, 2]), 0)
        with pytest.raises(ShapeError):
            nv.mask_select(x, mask)

    def test_matches_filter_oracle(self):
        rows = [[1, 10], [2, 20], [3, 30], [4, 40]]
        a = arr(rows)
        key = arr([5, 1, 7, 2])
        mask = nv.compare("ge", key, 3)
        expected = [row for row, k in zip(rows, [5, 1, 7, 2]) if k >= 3]
        assert nv.mask_select(a, mask).tolist() == expected

    def test_getitem_mask_sugar(self):
        x = arr([10, 20, 30])
        assert x[nv.compare("ge", x, 20)].tolist() == [20, 30]


def dot_oracle(a_rows, b_rows):
    m, k = len(a_rows), len(a_rows[0]) if a_rows else 0
    n = len(b_rows[0]) if b_rows else 0
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a_rows[i][t] * b_rows[t][j]
            out[i][j] = s
    return out


def operand_with_layout(shape, dtype, layout, values):
    """A view of `shape` holding `values` in C-order: packed, transposed (reversed
    for 1-D) or every second element of a larger array."""
    if layout == "contig":
        v = nv.create(shape, dtype)
    elif layout == "transposed" and len(shape) == 2:
        v = nv.transpose(nv.create(shape[::-1], dtype))
    elif layout == "transposed":
        v = nv.slice_view(nv.create(shape, dtype), [slice(None, None, -1)])
    else:
        big = nv.create(tuple(2 * e + 1 for e in shape), dtype)
        nv.fill_flat(big, [99] * big.size)
        v = nv.slice_view(big, [slice(1, None, 2)] * len(shape))
    assert v.shape == shape
    nv.scatter(v, values)
    return v


class TestDot:
    def test_identity(self):
        eye = arr([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], nv.float64)
        v = arr([2.0, -3.0, 4.0], nv.float64)
        assert nv.dot(eye, v).tolist() == [2.0, -3.0, 4.0]

    def test_camera_point(self):
        camera = arr([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]],
                     nv.float64)
        point = arr([0.0, 0.0, 1.0], nv.float64)
        assert nv.dot(camera, point).tolist() == [320.0, 240.0, 1.0]

    def test_matches_triple_loop(self):
        import random
        rng = random.Random(7)
        a_rows = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(5)]
        b_rows = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(4)]
        out = nv.dot(arr(a_rows, nv.float64), arr(b_rows, nv.float64))
        assert out.tolist() == dot_oracle(a_rows, b_rows)

    @pytest.mark.parametrize("k", [4, 0, 1, 2, 3, 5, 9])
    @pytest.mark.parametrize("layout", ["contig", "transposed", "strided"])
    @pytest.mark.parametrize("dtypes", [(nv.float64, nv.float64), (nv.int64, nv.int64),
                                        (nv.int32, nv.float32)], ids=str)
    @pytest.mark.parametrize("ranks", [(2, 2), (2, 1), (1, 2), (1, 1)], ids=str)
    def test_matches_triple_loop_over_operand_layouts(self, ranks, dtypes, layout, k):
        import random
        import struct
        rng = random.Random(f"{ranks}{dtypes}{layout}{k}")
        m = 3 if ranks[0] == 2 else 1
        n = 5 if ranks[1] == 2 else 1

        def value(dt):  # float32 values get 16 significant bits, which it holds exactly
            if dt == nv.float64:
                return rng.uniform(-1, 1)
            x = rng.randint(-2 ** 15, 2 ** 15)
            return x if dt.kind is nv.Kind.SIGNED else x / 2 ** 10

        a_rows = [[value(dtypes[0]) for _ in range(k)] for _ in range(m)]
        b_rows = [[value(dtypes[1]) for _ in range(n)] for _ in range(k)]
        a_shape = (m, k) if ranks[0] == 2 else (k,)
        b_shape = (k, n) if ranks[1] == 2 else (k,)
        a = operand_with_layout(a_shape, dtypes[0], layout, [x for r in a_rows for x in r])
        b = operand_with_layout(b_shape, dtypes[1], layout, [x for r in b_rows for x in r])
        with counting() as tally:
            out = nv.dot(a, b)
        want = dot_oracle([[float(x) for x in r] for r in a_rows],
                          [[float(x) for x in r] for r in b_rows]) if k else [[0.0] * n] * m
        assert out.shape == {(2, 2): (m, n), (2, 1): (m,), (1, 2): (n,), (1, 1): ()}[ranks]
        assert out.dtype == nv.float64
        got = nv.gather(out)
        assert [struct.pack("<d", x) for x in got] \
            == [struct.pack("<d", x) for row in want for x in row]
        assert tally.scalar_ops == 2 * m * n * k
        assert tally.buffers_allocated == 1

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            nv.dot(nv.create((2, 3), nv.float64), nv.create((4, 2), nv.float64))

    def test_1d_1d_scalar(self):
        out = nv.dot(arr([1.0, 2.0], nv.float64), arr([3.0, 4.0], nv.float64))
        assert out.shape == ()
        assert out.tolist() == 11.0

    def test_counts_2mnk(self):
        with counting() as tally:
            nv.dot(nv.create((2, 3), nv.float64), nv.create((3, 4), nv.float64))
        assert tally.scalar_ops == 2 * 2 * 4 * 3

    # dot reads b in blocks of kernels._BLOCK // k columns; these widths sit on
    # either side of a block edge or leave a short last block.
    @pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (1, 1), (2, 3)], ids=str)
    @pytest.mark.parametrize("layout", ["contig", "transposed", "strided"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_triple_loop_across_column_blocks(self, k, layout, blocks):
        import struct
        rng = random.Random(f"{k}{layout}{blocks}")
        m, n = 2, blocks[0] * (kernels._BLOCK // k) + blocks[1]
        a_rows = [[rng.uniform(-1, 1) for _ in range(k)] for _ in range(m)]
        b_rows = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(k)]
        a = arr(a_rows, nv.float64)
        b = operand_with_layout((k, n), nv.float64, layout, [x for r in b_rows for x in r])
        with counting() as tally:
            out = nv.dot(a, b)
        assert out.shape == (m, n)
        assert [struct.pack("<d", x) for x in nv.gather(out)] \
            == [struct.pack("<d", x) for row in dot_oracle(a_rows, b_rows) for x in row]
        assert tally.scalar_ops == 2 * m * n * k
        assert tally.buffers_allocated == 1

    def test_empty_inner_extent_over_several_blocks(self):
        n = kernels._BLOCK + 5  # k = 0 reads blocks of _BLOCK columns
        a, b = nv.create((2, 0), nv.float64), nv.create((0, n), nv.float64)
        with counting() as tally:
            out = nv.dot(a, b)
        assert out.shape == (2, n)
        assert nv.gather(out) == [0.0] * (2 * n)
        assert tally.scalar_ops == 0
        assert tally.buffers_allocated == 1

    def test_holds_one_block_of_columns(self):
        # camera's product: b whole as Python floats would take ~9 MiB, the
        # result as Python floats as much again; the output buffer is 2.4 MB
        cam = arr([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]], nv.float64)
        pts = nv.reshape(nv.arange(0.0, 300_000.0, 1.0, nv.float64), (100_000, 3))
        tracemalloc.start()
        try:
            nv.dot(cam, nv.transpose(pts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20


class TestFieldView:
    def test_time_field(self):
        from ndview.demos import sample_measurements
        x = sample_measurements()
        t = nv.field_view(x, "time")
        assert t.dtype == nv.uint64
        assert t.strides == (24,)
        assert t.tolist() == [1, 2, 3]

    def test_nested_field(self):
        from ndview.demos import sample_measurements
        x = sample_measurements()
        xs = nv.field_view(nv.field_view(x, "pos"), "x")
        assert xs.base_offset == 8
        assert xs.tolist() == [0.0, 0.0, 5.5]

    def test_unknown_field(self):
        from ndview.demos import sample_measurements
        with pytest.raises(nv.FieldNotFoundError):
            nv.field_view(sample_measurements(), "z")

    def test_getitem_sugar(self):
        from ndview.demos import sample_measurements
        x = sample_measurements()
        assert x["time"].tolist() == [1, 2, 3]
        assert x["pos"]["y"].tolist() == [0.5, 10.3, 1.1]


class TestOpCounting:
    def test_binary_counts_output_elements(self):
        b = arr([3, 9, 15])
        m = nv.reshape(nv.arange(0, 6, 1), (2, 3))
        with counting() as tally:
            nv.elementwise_binary("add", b, m)
        assert tally.scalar_ops == 6

    def test_unary_counts_one_per_element(self):
        with counting() as tally:
            nv.elementwise_unary("square", arr([1, 2, 3, 4]))
        assert tally.scalar_ops == 4

    def test_nested_scopes_roll_up(self):
        with counting() as outer:
            nv.elementwise_unary("neg", arr([1]))
            with counting() as inner:
                nv.elementwise_unary("neg", arr([1, 2]))
            assert inner.scalar_ops == 2
        assert outer.scalar_ops == 3


# --- blocked evaluation -----------------------------------------------------
#
# The map driver walks the output in blocks of leading-axis rows of about
# kernels._BLOCK elements; these shapes sit on either side of a block edge, have
# a row longer than a block or one that does not divide it, or are empty.

BLOCK = 1 << 14
BLOCK_SHAPES = [(BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3 * BLOCK + 7,),
                (2, 20000), (7, 5000), (0, 3), (3, 0), ()]


def test_block_size_is_the_one_these_tests_straddle():
    assert kernels._BLOCK == BLOCK


def _ref_div(a, b):
    if isinstance(a, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if b == 0.0:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, math.copysign(1.0, a) * math.copysign(1.0, b))
    return a / b


def _ref_sqrt(v):
    v = float(v)
    return math.nan if v != v or v < 0.0 else math.sqrt(v)


_REF_BINARY = {"add": pyop.add, "sub": pyop.sub, "mul": pyop.mul, "div": _ref_div}


def _block_values(dt, count, rng, nonzero=False):
    """Values of dt small enough that no kernel below overflows; floats hold
    signed zeros and negatives, ints hold zeros unless `nonzero`."""
    if dt.kind is nv.Kind.FLOAT:
        return [rng.choice((0.0, -0.0)) if rng.random() < 0.01 else rng.uniform(-4, 4)
                for _ in range(count)]
    lo = 1 if nonzero else 0
    return [rng.choice((-1, 1)) * rng.randint(lo, 50) for _ in range(count)]


def _full(shape, dt, values):
    v = nv.create(shape, dt)
    nv.scatter(v, values)
    return v


def _block_operand(shape, dt, rng, layout, nonzero=False):
    """An operand of `shape` and its C-order values: packed, every second
    element of a larger array, or a row broadcast over the leading axis
    (zero stride there)."""
    if layout == "row" and shape:
        row = _block_values(dt, math.prod(shape[1:]), rng, nonzero)
        lead = nv.broadcast_view(_full(shape[1:], dt, row), shape)
        assert lead.strides[0] == 0
        return lead, row * shape[0]
    values = _block_values(dt, math.prod(shape), rng, nonzero)
    if layout == "strided" and shape:
        big = nv.create(shape[:-1] + (2 * shape[-1],), dt)
        v = nv.slice_view(big, [slice(None)] * (len(shape) - 1) + [slice(1, None, 2)])
        nv.scatter(v, values)
        return v, values
    return _full(shape, dt, values), values


def _packed(dt, values) -> bytes:
    return element_struct(dt, len(values)).pack(*values)


def _bytes_of(v) -> bytes:
    return bytes(_read_packed(v))


_F8, _I8 = nv.float64, nv.int64
_BINARY_CASES = [(op, dt) for dt in (_F8, _I8) for op in ("add", "sub", "mul", "div")]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
class TestBlocksMatchPerElementReference:
    """Every map kernel, compared by bits with a per-element reference."""

    @pytest.mark.parametrize("op,dt", _BINARY_CASES, ids=str)
    @pytest.mark.parametrize("layout", ["contig", "row"])
    def test_binary(self, shape, op, dt, layout):
        rng = random.Random(f"{shape}{op}{dt}{layout}")
        a, va = _block_operand(shape, dt, rng, "strided")
        b, vb = _block_operand(shape, dt, rng, layout, nonzero=op == "div")
        out = nv.elementwise_binary(op, a, b)
        assert out.shape == shape and out.dtype == dt
        assert _bytes_of(out) == _packed(dt, list(map(_REF_BINARY[op], va, vb)))

    def test_int_operand_of_a_float_domain_converts(self, shape):
        rng = random.Random(f"{shape}mixed")
        a, va = _block_operand(shape, _I8, rng, "contig")
        b, vb = _block_operand(shape, _F8, rng, "row")
        out = nv.elementwise_binary("sub", a, b)
        assert _bytes_of(out) == _packed(_F8, [float(x) - y for x, y in zip(va, vb)])

    @pytest.mark.parametrize("op,dt,s,side", [("mul", _F8, 2.5, "right"), ("sub", _I8, 3, "left"),
                                              ("div", _I8, 2.5, "right")], ids=str)
    def test_scalar(self, shape, op, dt, s, side):
        rng = random.Random(f"{shape}{op}{side}")
        a, va = _block_operand(shape, dt, rng, "strided")
        out = nv.scalar_binary(op, a, s, scalar_side=side)
        fn = _REF_BINARY[op]
        conv = float if isinstance(s, float) else int
        want = [fn(s, conv(x)) if side == "left" else fn(conv(x), s) for x in va]
        assert _bytes_of(out) == _packed(out.dtype, want)

    @pytest.mark.parametrize("op,dt", [("square", _F8), ("neg", _I8), ("sqrt", _F8),
                                       ("sqrt", _I8)], ids=str)
    def test_unary(self, shape, op, dt):
        rng = random.Random(f"{shape}{op}{dt}")
        a, va = _block_operand(shape, dt, rng, "strided")
        out = nv.elementwise_unary(op, a)
        ref = {"square": lambda v: v * v, "neg": pyop.neg, "sqrt": _ref_sqrt}[op]
        assert _bytes_of(out) == _packed(out.dtype, [ref(v) for v in va])

    @pytest.mark.parametrize("op,dt", [("add", _F8), ("mul", _I8), ("div", _F8)], ids=str)
    @pytest.mark.parametrize("layout", ["contig", "row"])
    def test_inplace(self, shape, op, dt, layout):
        rng = random.Random(f"{shape}{op}{dt}{layout}inplace")
        target, vt = _block_operand(shape, dt, rng, "strided")
        b, vb = _block_operand(shape, dt, rng, layout)
        nv.elementwise_binary_inplace(op, target, b)
        assert _bytes_of(target) == _packed(dt, list(map(_REF_BINARY[op], vt, vb)))

    @pytest.mark.parametrize("op", ["ge", "eq"])
    def test_compare(self, shape, op):
        rng = random.Random(f"{shape}{op}")
        a, va = _block_operand(shape, _I8, rng, "contig")
        b, vb = _block_operand(shape, _I8, rng, "row")
        fn = getattr(pyop, op)
        out = nv.compare(op, a, b)
        assert out.dtype == nv.bool_
        assert _bytes_of(out) == _packed(nv.bool_, list(map(fn, va, vb)))
        assert _bytes_of(nv.compare(op, a, 7)) == _packed(nv.bool_, [fn(x, 7) for x in va])


class TestBlockEdges:
    N = 40_000  # three blocks, the last one partial

    def test_overlapping_inplace_add_reads_before_it_writes(self):
        # NumPy's x[1:] += x[:-1] adds the old left neighbour to every element
        values = [(i * 7919) % 1000 - 500 for i in range(self.N)]
        x = nv.array_from(values, nv.int64)
        x[1:] += x[:-1]
        assert nv.gather(x) == values[:1] + [p + q for p, q in zip(values[1:], values)]

    def test_overflow_in_the_last_block_leaves_the_target_unchanged(self):
        values = [0] * (self.N - 1) + [120]
        x = nv.array_from(values, nv.int8)
        with pytest.raises(ValueRangeError, match="cannot store 130"):
            x += 10
        assert nv.gather(x) == values

    def test_zero_divisor_only_in_the_last_block(self):
        a = [1.0 + i for i in range(self.N)]
        b = [2.0] * (self.N - 1) + [0.0]
        q = nv.elementwise_binary("div", nv.array_from(a, _F8), nv.array_from(b, _F8))
        assert _bytes_of(q) == _packed(_F8, [x / 2.0 for x in a[:-1]] + [math.inf])

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_sqrt_nan_only_in_the_last_block(self, bad):
        values = [float(i) for i in range(self.N - 1)] + [bad]
        r = nv.elementwise_unary("sqrt", nv.array_from(values, _F8))
        assert _bytes_of(r) == _packed(_F8, [math.sqrt(v) for v in values[:-1]] + [math.nan])


_PEAK_CALLS = {
    "add": lambda a, b: nv.elementwise_binary("add", a, b),
    "sqrt": lambda a, b: nv.elementwise_unary("sqrt", a),
    "scalar_mul": lambda a, b: nv.scalar_binary("mul", a, 3.0),
    "compare": lambda a, b: nv.compare("ge", a, b),
    "inplace_add": lambda a, b: nv.elementwise_binary_inplace("add", a, b),
}


@pytest.mark.parametrize("name", list(_PEAK_CALLS))
def test_kernel_holds_one_block_of_values(name):
    # 200k float64 values as Python floats would take ~6 MiB in a list alone;
    # the output or in-place staging copy is 1.6 MB and a block of floats ~0.5 MB
    a = nv.arange(0.0, 200_000.0, 1.0, _F8)
    b = nv.arange(200_000.0, 0.0, -1.0, _F8)
    tracemalloc.start()
    try:
        _PEAK_CALLS[name](a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


# --- properties -------------------------------------------------------------


def test_promotion_exhaustive_consistency():
    # join of any dtype set is order-independent: commutative and associative
    for a, b in itertools.product(ALL_SCALARS, repeat=2):
        assert promote_dtypes(a, b) == promote_dtypes(b, a)
    for a, b, c in itertools.product(ALL_SCALARS, repeat=3):
        assert promote_dtypes(promote_dtypes(a, b), c) == \
            promote_dtypes(a, promote_dtypes(b, c))


def test_promotion_examples():
    assert promote_dtypes(nv.uint8, nv.int8) == nv.int16
    assert promote_dtypes(nv.uint32, nv.int64) == nv.int64
    assert promote_dtypes(nv.uint64, nv.int8) == nv.float64
    assert promote_dtypes(nv.int32, nv.float32) == nv.float64
    assert promote_dtypes(nv.float32, nv.float64) == nv.float64
    assert promote_dtypes(nv.bool_, nv.uint16) == nv.uint16


@st.composite
def _compatible_pair(draw):
    out = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))

    def operand():
        rank = draw(st.integers(0, len(out)))
        return tuple(draw(st.sampled_from([ext, 1])) for ext in out[len(out) - rank:])

    return operand(), operand()


@settings(max_examples=300, deadline=None)
@given(_compatible_pair(), st.sampled_from(["add", "sub", "mul"]))
def test_binary_matches_materialized_oracle(pair, op):
    sa, sb = pair
    a = nv.reshape(nv.arange(0, math.prod(sa), 1), sa)
    b = nv.reshape(nv.arange(0, math.prod(sb), 1), sb)
    out = nv.elementwise_binary(op, a, b)
    target = nv.broadcast_shapes(sa, sb)
    # oracle: explicit tiling by index arithmetic, then scalar python ops
    fn = {"add": pyop.add, "sub": pyop.sub, "mul": pyop.mul}[op]
    expected = []
    lead_a, lead_b = len(target) - a.ndim, len(target) - b.ndim
    for idx in itertools.product(*map(range, target)):
        ia = tuple(idx[lead_a + k] if a.shape[k] != 1 else 0 for k in range(a.ndim))
        ib = tuple(idx[lead_b + k] if b.shape[k] != 1 else 0 for k in range(b.ndim))
        expected.append(fn(nv.get_element(a, ia), nv.get_element(b, ib)))
    assert nv.gather(out) == expected
    assert out.shape == target
