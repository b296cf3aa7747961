"""Differential tests of the bulk element codec.

gather, scatter and copy_elements cover a view with runs and move each run
through one memoryview slice. Every test here checks them against the
per-element codec: decode_element / encode_element at the element_offset of
each index in C-order, over random view chains, every scalar dtype, and heap,
file-mapped and foreign (ctypes) buffers. Neither the codec nor these
offsets go through the run walker under test. Every read also checks
ArrayView.tolist, which nests one gather by shape, against the same
per-element values nested index by index.
"""

import ctypes
import itertools
import random
import struct

import pytest

import ndview as nv
from ndview.dtypes import Kind, decode_element, encode_element

SCALARS = [nv.bool_, nv.int8, nv.int16, nv.int32, nv.int64,
           nv.uint8, nv.uint16, nv.uint32, nv.uint64, nv.float32, nv.float64]
BASE_ELEMS = 24
BASE_SHAPES = [(24,), (4, 6), (6, 4), (2, 3, 4), (3, 1, 8), (1, 24, 1)]
CHAINS = 40


def raw_bytes(buf) -> bytes:
    return bytes(buf._view)


def restore(buf, data: bytes) -> None:
    buf._view[:] = data


def make_base(kind, dt, rng, tmp_path, keep):
    """A writeable 1-D view of BASE_ELEMS elements filled with random bytes."""
    nbytes = BASE_ELEMS * dt.itemsize
    if kind == "heap":
        v = nv.create((BASE_ELEMS,), dt)
    elif kind == "mmap":
        v = nv.memmap_open(tmp_path / f"{dt.kind.value}{dt.itemsize}.raw", "write",
                           (BASE_ELEMS,), dt)
    else:
        block = (ctypes.c_ubyte * nbytes)()
        keep.append(block)
        v = nv.from_interface({"shape": (BASE_ELEMS,), "typestr": nv.format_typestr(dt),
                               "data": (ctypes.addressof(block), False)})
    # bool bytes stay random too: files and foreign exporters may hold 2..255
    restore(v.buffer, bytes(rng.getrandbits(8) for _ in range(nbytes)))
    return v


def random_value(rng, dt):
    bits = 8 * dt.itemsize
    if dt.kind is Kind.BOOL:
        return rng.random() < 0.5
    if dt.kind is Kind.FLOAT:
        return rng.uniform(-1e6, 1e6)
    if dt.kind is Kind.SIGNED:
        return rng.randint(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return rng.randint(0, (1 << bits) - 1)


def random_chain(rng, v, writeable_only=False):
    """Random slice / transpose / newaxis / zero-stride / broadcast chain over v."""
    for _ in range(rng.randint(0, 4)):
        op = rng.choice(["slice", "transpose", "newaxis", "alias", "broadcast"])
        if op == "slice" and v.ndim:
            spec = []
            for ext in v.shape:
                start = rng.choice([None, rng.randint(-ext - 1, ext + 1)])
                stop = rng.choice([None, rng.randint(-ext - 1, ext + 1)])
                spec.append(slice(start, stop, rng.choice([-3, -2, -1, 1, 2, 3])))
            v = nv.slice_view(v, spec)
        elif op == "transpose":
            v = nv.transpose(v)
        elif op == "newaxis":
            v = nv.newaxis_view(v, rng.randint(0, v.ndim))
        elif op == "alias" and v.ndim:
            # a writeable header whose zero stride aliases one axis onto one element
            strides = list(v.strides)
            strides[rng.randrange(v.ndim)] = 0
            v = nv.ArrayView(v.buffer, v.base_offset, v.shape, strides, v.dtype,
                             writeable=v.flags.writeable)
        elif op == "broadcast" and not writeable_only:
            shape = tuple(rng.randint(1, 3) if e == 1 else e for e in v.shape)
            v = nv.broadcast_view(v, (rng.randint(1, 3),) + shape)
    return v


def offsets(v) -> list:
    """Byte offset of every element in C-order, one element_offset call each."""
    return [nv.element_offset(v, idx) for idx in itertools.product(*map(range, v.shape))]


def reference_gather(v) -> list:
    return [decode_element(v.dtype, v.buffer.raw, off) for off in offsets(v)]


def reference_tolist(v, idx=()):
    if len(idx) == v.ndim:
        return decode_element(v.dtype, v.buffer.raw, nv.element_offset(v, idx))
    return [reference_tolist(v, idx + (i,)) for i in range(v.shape[len(idx)])]


def exact(x):
    """x with every float replaced by its bits and every scalar tagged with its type."""
    if isinstance(x, list):
        return [exact(e) for e in x]
    if isinstance(x, dict):
        return {k: exact(e) for k, e in x.items()}
    return type(x), struct.pack("<d", x) if isinstance(x, float) else x


def same_values(got, want) -> bool:
    """Equal values of equal types; floats compare by their bits, so NaNs match."""
    if [type(x) for x in got] != [type(x) for x in want]:
        return False
    return ([struct.pack("<d", x) if isinstance(x, float) else x for x in got]
            == [struct.pack("<d", x) if isinstance(x, float) else x for x in want])


def check_gather(v) -> None:
    got = nv.gather(v)
    assert same_values(got, reference_gather(v)), v
    assert exact(v.tolist()) == exact(reference_tolist(v)), v


def check_scatter(v, rng) -> None:
    values = [random_value(rng, v.dtype) for _ in range(v.size)]
    before = raw_bytes(v.buffer)
    for off, value in zip(offsets(v), values):
        encode_element(v.dtype, v.buffer.raw, off, value)
    want = raw_bytes(v.buffer)
    restore(v.buffer, before)
    nv.scatter(v, values)
    assert raw_bytes(v.buffer) == want, v
    check_gather(v)


@pytest.mark.parametrize("kind", ["heap", "mmap", "foreign"])
@pytest.mark.parametrize("dt", SCALARS, ids=str)
def test_random_chains_match_per_element_codec(kind, dt, tmp_path):
    rng = random.Random(f"{kind}/{dt}")
    keep = []
    base = make_base(kind, dt, rng, tmp_path, keep)
    for _ in range(CHAINS):
        v = random_chain(rng, nv.reshape(base, rng.choice(BASE_SHAPES)))
        check_gather(v)
        w = random_chain(rng, nv.reshape(base, rng.choice(BASE_SHAPES)), writeable_only=True)
        check_scatter(w, rng)


def test_structured_records_match_per_element_codec():
    rng = random.Random(7)
    dt = nv.make_struct_dtype([("t", nv.uint32), ("p", [("x", nv.float64), ("ok", nv.bool_)])])
    base = nv.create((BASE_ELEMS,), dt)
    nv.scatter(base, [(i, (i / 2, i % 3 == 0)) for i in range(BASE_ELEMS)])
    for _ in range(CHAINS):
        check_gather(random_chain(rng, nv.reshape(base, rng.choice(BASE_SHAPES))))
        w = random_chain(rng, nv.reshape(base, rng.choice(BASE_SHAPES)), writeable_only=True)
        values = [(rng.randrange(1 << 32), (rng.random(), rng.random() < 0.5))
                  for _ in range(w.size)]
        nv.scatter(w, values)
        check_gather(w)


@pytest.mark.parametrize("dt", SCALARS, ids=str)
def test_degenerate_views(dt):
    rng = random.Random(str(dt))
    base = make_base("heap", dt, rng, None, [])
    grid = nv.reshape(base, (2, 3, 4))
    views = [
        nv.index_axis(nv.index_axis(nv.index_axis(grid, 0, 1), 0, 2), 0, 3),  # rank 0
        nv.slice_view(grid, [slice(1, 1)]),                                   # size 0
        nv.slice_view(grid, [slice(None, None, -1), slice(3, 0)]),            # size 0, reversed
        nv.slice_view(grid, [slice(1, 2), slice(2, 3), slice(3, 4)]),         # all extent 1
        nv.newaxis_view(nv.slice_view(grid, [slice(0, 1), slice(1, 2), slice(0, 1)]), 1),
    ]
    for v in views:
        check_gather(v)
        check_scatter(v, rng)


@pytest.mark.parametrize("dt", [d for d in SCALARS if d.itemsize > 1], ids=str)
def test_unaligned_views_from_reinterpreted_bytes(dt):
    rng = random.Random(f"unaligned/{dt}")
    isz = dt.itemsize
    raw = nv.create((3, 5 * isz + 1), nv.uint8)
    restore(raw.buffer, bytes(rng.getrandbits(8) for _ in range(raw.buffer.nbytes)))
    for shift in range(1, isz):
        # rows 5*isz + 1 bytes apart, elements starting `shift` bytes in
        row = nv.slice_view(raw, [slice(None), slice(shift, shift + 4 * isz)])
        v = nv.reinterpret_dtype(row, dt)
        assert v.base_offset % isz and v.strides[0] % isz
        flipped = nv.slice_view(v, [slice(None, None, -1), slice(None, None, -2)])
        for w in (v, nv.transpose(v), flipped):
            check_gather(w)
            check_scatter(w, rng)


def test_reversed_runs_reach_the_first_element():
    # Runs that walk backward to buffer index 0 would end at slice stop -1,
    # which means "the last element"; the walker must stop at None instead.
    base = nv.arange(0, 12, 1)
    assert nv.gather(nv.slice_view(base, [slice(None, None, -1)])) == list(range(11, -1, -1))
    assert nv.gather(nv.slice_view(base, [slice(None, None, -3)])) == [11, 8, 5, 2]
    assert nv.gather(nv.slice_view(base, [slice(9, None, -3)])) == [9, 6, 3, 0]
    grid = nv.reshape(base, (3, 4))
    flipped = nv.slice_view(grid, [slice(None, None, -1), slice(None, None, -1)])
    assert nv.gather(flipped) == list(range(11, -1, -1))
    assert nv.gather(nv.transpose(flipped)) == [11, 7, 3, 10, 6, 2, 9, 5, 1, 8, 4, 0]
    nv.scatter(nv.slice_view(base, [slice(9, None, -3)]), [-1, -2, -3, -4])
    assert nv.gather(base) == [-4, 1, 2, -3, 4, 5, -2, 7, 8, -1, 10, 11]


def test_writeable_zero_stride_header_last_value_wins():
    buf = nv.create((4,), nv.float64).buffer
    one = nv.ArrayView(buf, 8, (5,), (0,), nv.float64)
    nv.scatter(one, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert nv.gather(one) == [5.0] * 5
    rows = nv.ArrayView(buf, 0, (3, 4), (0, 8), nv.float64)
    nv.scatter(rows, [float(i) for i in range(12)])
    assert nv.gather(nv.ArrayView(buf, 0, (4,), (8,), nv.float64)) == [8.0, 9.0, 10.0, 11.0]
    cols = nv.ArrayView(buf, 0, (4, 3), (8, 0), nv.float64)
    nv.scatter(cols, [float(i) for i in range(12)])
    assert nv.gather(nv.ArrayView(buf, 0, (4,), (8,), nv.float64)) == [2.0, 5.0, 8.0, 11.0]


def test_copy_between_overlapping_views_reads_the_source_first():
    rng = random.Random(3)
    checked = 0
    for _ in range(400):
        base = nv.arange(0, BASE_ELEMS, 1)
        src = random_chain(rng, nv.reshape(base, rng.choice(BASE_SHAPES)))
        dst = random_chain(rng, nv.reshape(base, rng.choice(BASE_SHAPES)), writeable_only=True)
        if src.size != dst.size or not src.size:
            continue
        before = raw_bytes(base.buffer)
        want = bytearray(before)
        chunks = [before[off:off + 8] for off in offsets(src)]
        for off, chunk in zip(offsets(dst), chunks):
            want[off:off + 8] = chunk
        nv.copy_elements(src, dst)
        assert raw_bytes(base.buffer) == bytes(want), (src, dst)
        checked += 1
    assert checked > 50


def test_copies_between_foreign_and_heap_buffers():
    # ctypes exports its bytes as format "<B", heap and mapped memory as "B";
    # whole-run copies between the two must not depend on that difference.
    block = (ctypes.c_double * 12)(*[i / 4 for i in range(12)])
    foreign = nv.from_interface({"shape": (4, 3), "typestr": "<f8",
                                 "data": (ctypes.addressof(block), False)})
    values = [i / 4 for i in range(12)]
    assert nv.gather(nv.materialize(foreign)) == values
    heap = nv.create((4, 3), nv.float64)
    heap[:] = foreign
    assert nv.gather(heap) == values
    nv.copy_elements(nv.transpose(foreign), nv.transpose(heap))
    assert nv.gather(heap) == values
    mask = nv.array_from([True, False, True, True], nv.bool_)
    assert nv.gather(nv.mask_select(foreign, mask)) == values[:3] + values[6:]
    nv.fill_flat(heap, [-v for v in values])
    foreign[1:3] = heap[2:]
    assert list(block) == values[:3] + [-v for v in values[6:]] + values[9:]
    nv.copy_elements(heap, foreign)
    assert list(block) == [-v for v in values]
    nv.copy_elements(nv.slice_view(heap, [slice(None, None, -1)]), foreign)
    assert nv.gather(foreign) == [-v for v in values[9:] + values[6:9] + values[3:6] + values[:3]]
