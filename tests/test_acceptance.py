"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a ``criterion N (...): PASS`` line (visible with ``pytest -s``);
``pytest -v`` shows one pass/fail line per criterion either way. Randomized
suites run seeded loops with explicit case counts so the coverage is exact
and reproducible.
"""

import itertools
import math
import random
import struct
import time

import ndview as nv
from ndview.counters import counting
from ndview.demos import (
    EvalStrategy,
    GridMethod,
    MutableText,
    central_diff,
    distance_grid,
    evaluate_f,
    forward_diff,
    measurement_dtype,
    project_points,
)
from ndview.errors import BoundsError
from ndview.kernels import promote_dtypes

CANONICAL_TYPESTRS = ["|i1", "<i2", "<i4", "<i8",
                      "|u1", "<u2", "<u4", "<u8",
                      "<f4", "<f8", "|b1"]

ALL_SCALARS = [nv.bool_, nv.int8, nv.int16, nv.int32, nv.int64,
               nv.uint8, nv.uint16, nv.uint32, nv.uint64,
               nv.float32, nv.float64]


def test_criterion_01_stride_transcript():
    t0 = time.perf_counter()
    x = nv.reshape(nv.arange(0, 9, 1), (3, 3))
    assert x.strides == (24, 8)
    y = nv.slice_view(x, [slice(None, None, 2), slice(None, None, 2)])
    assert y.strides == (48, 16)
    assert y.tolist() == [[0, 2], [6, 8]]
    nv.set_element(y, (0, 0), 100)
    assert x.tolist() == [[100, 1, 2], [3, 4, 5], [6, 7, 8]]
    xt = nv.transpose(x)
    assert xt.strides == (8, 24)
    assert xt.tolist() == [[100, 3, 6], [1, 4, 7], [2, 5, 8]]
    z = nv.reshape(x, (1, 9))
    assert z.strides == (72, 8)
    assert z.tolist() == [[100, 1, 2, 3, 4, 5, 6, 7, 8]]
    zb = nv.reinterpret_dtype(z, nv.uint8)
    assert zb.shape == (1, 72)
    assert zb.strides == (72, 1)
    assert nv.get_element(zb, (0, 0)) == 100
    assert nv.gather(zb[0, :8]) == [100, 0, 0, 0, 0, 0, 0, 0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1 (stride transcript): PASS ({elapsed:.3f}s)")


def test_criterion_02_broadcasting_suite():
    t0 = time.perf_counter()
    assert nv.broadcast_shapes((2, 4, 3), (4, 1)) == (2, 4, 3)
    a = nv.array_from([1, 3, 5], nv.int64)
    b = nv.scalar_binary("mul", a, 3, scalar_side="left")
    assert b.tolist() == [3, 9, 15]
    assert nv.elementwise_binary("sub", b, a).tolist() == [2, 6, 10]
    m = nv.reshape(nv.arange(0, 6, 1), (2, 3))
    assert nv.elementwise_binary("add", b, m).tolist() == [[3, 10, 17], [6, 13, 20]]

    rng = random.Random(20260808)
    cases = 0
    while cases < 1000:
        target = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        rank = rng.randint(0, len(target))
        src = tuple(rng.choice((ext, 1)) for ext in target[len(target) - rank:])
        v = nv.reshape(nv.arange(0, math.prod(src), 1), src)
        w = nv.broadcast_view(v, target)
        lead = len(target) - v.ndim
        expected = [
            nv.get_element(v, tuple(idx[lead + k] if src[k] != 1 else 0
                                    for k in range(len(src))))
            for idx in itertools.product(*map(range, target))
        ]
        assert nv.gather(w) == expected
        cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 2 (broadcasting suite, {cases} random pairs): PASS ({elapsed:.3f}s)")


def test_criterion_03_finite_differencing():
    x = nv.arange(0, 12, 2)
    y = nv.elementwise_unary("square", x)
    assert forward_diff(x, y).tolist() == [2, 6, 10, 14, 18]
    assert central_diff(x, y).tolist() == [4, 8, 12, 16]
    print("criterion 3 (finite differencing): PASS")


def test_criterion_04_grid_accounting():
    t0 = time.perf_counter()
    _, dense = distance_grid(50, GridMethod.DENSE)
    _, bcast = distance_grid(50, GridMethod.BROADCAST)
    assert dense.scalar_ops == 750000
    assert bcast.scalar_ops == 252650
    assert abs(dense.checksum - bcast.checksum) <= 1e-9 * abs(dense.checksum)
    assert dense.bytes_allocated >= 4 * bcast.bytes_allocated
    for n in range(1, 17):
        rd, _ = distance_grid(n, GridMethod.DENSE)
        rb, _ = distance_grid(n, GridMethod.BROADCAST)
        dv, bv = nv.gather(rd), nv.gather(rb)
        lo = -(n // 2)
        k = 0
        for i in range(lo, n + lo):
            for j in range(lo, n + lo):
                for m in range(lo, n + lo):
                    expected = math.sqrt(i * i + j * j + m * m)
                    assert abs(dv[k] - expected) <= 1e-12
                    assert abs(bv[k] - expected) <= 1e-12
                    k += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 4 (grid accounting at n=50): PASS ({elapsed:.3f}s)")


def test_criterion_05_inplace_evaluation():
    x = nv.array_from([0, 1, 2], nv.int64)
    for strategy in EvalStrategy:
        assert evaluate_f(x, strategy).tolist() == [4, 2, 2]
    xf = nv.arange(0.0, 1000.0, 1.0, nv.float64)
    with counting() as t_vec:
        evaluate_f(xf, EvalStrategy.VECTORIZED)
    with counting() as t_inp:
        evaluate_f(xf, EvalStrategy.INPLACE)
    assert t_vec.buffers_allocated >= 4
    assert t_inp.buffers_allocated == 2
    print("criterion 5 (in-place evaluation): PASS "
          f"(vectorized={t_vec.buffers_allocated} buffers, "
          f"inplace={t_inp.buffers_allocated})")


def test_criterion_06_camera_projection():
    camera_rows = [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]]
    camera = nv.array_from(camera_rows, nv.float64)
    rng = random.Random(6)
    pts = [[rng.uniform(0.1, 1.0) for _ in range(3)] for _ in range(100000)]
    points = nv.array_from(pts, nv.float64)
    t0 = time.perf_counter()
    projected = project_points(points, camera)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    flat = nv.gather(projected)
    thirds = nv.gather(projected[:, 2])
    assert all(z == 1.0 for z in thirds)
    for i, p in enumerate(pts):
        vec = [camera_rows[r][0] * p[0] + camera_rows[r][1] * p[1]
               + camera_rows[r][2] * p[2] for r in range(3)]
        for c in range(3):
            assert abs(flat[3 * i + c] - vec[c] / vec[2]) <= 1e-12
    print(f"criterion 6 (camera projection, 100000 points): PASS ({elapsed:.3f}s)")


def test_criterion_07_memmap_durability(tmp_path):
    t0 = time.perf_counter()
    p = tmp_path / "myarray.raw"
    a = nv.memmap_open(p, "write", (300, 300), nv.int64)
    nv.fill_flat(a, range(300 * 300))
    nv.flush(a)
    b = nv.memmap_open(p, "r+", (300, 300), nv.int64)
    nv.elementwise_binary_inplace("mul", b[100, :], 2)
    nv.flush(b)
    c = nv.memmap_open(p, "r", (300, 300), nv.int64)
    assert nv.gather(c[0, :4]) == [0, 1, 2, 3]
    assert c[1, 0] == 300
    assert nv.gather(c[100, :3]) == [60000, 60002, 60004]
    expected = [2 * v if 30000 <= v < 30300 else v for v in range(90000)]
    assert p.read_bytes() == struct.pack("<90000q", *expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 7 (memmap durability): PASS ({elapsed:.3f}s)")


def test_criterion_08_array_interface():
    m = MutableText("abcde")
    with counting() as tally:
        am = nv.from_interface(m)
    assert tally.buffers_allocated == 0
    assert am.tolist() == [97, 98, 99, 100, 101]
    nv.elementwise_binary_inplace("add", am, 2)
    assert am.tolist() == [99, 100, 101, 102, 103]
    assert str(m) == "cdefg"
    print("criterion 8 (array interface): PASS")


def test_criterion_09_structured_records(tmp_path):
    dt = measurement_dtype()
    x = nv.array_from([(1, (0, 0.5)), (2, (0, 10.3)), (3, (5.5, 1.1))], dt)
    times = nv.field_view(x, "time")
    assert times.tolist() == [1, 2, 3]
    mask = nv.compare("ge", times, 2)
    assert mask.tolist() == [False, True, True]
    picked = nv.field_view(nv.field_view(nv.mask_select(x, mask), "pos"), "x")
    assert picked.tolist() == [0.0, 5.5]

    rng = random.Random(9)
    path = tmp_path / "records.dat"
    cases = 0
    while cases < 1000:
        n = rng.randint(0, 8)
        records = [(rng.randint(0, 2 ** 64 - 1),
                    (rng.uniform(-1e9, 1e9), rng.uniform(-1e9, 1e9)))
                   for _ in range(n)]
        v = nv.array_from(list(records), dt)
        nv.tofile(v, path)
        back = nv.fromfile(path, dt)
        assert nv.gather(back) == nv.gather(v)
        cases += n if n else 1
    print(f"criterion 9 (structured records, {cases} round-trip records): PASS")


def _random_chain(rng, base):
    v = base
    for _ in range(rng.randint(0, 4)):
        op = rng.choice(("slice", "transpose", "newaxis", "reshape"))
        if op == "slice" and v.ndim:
            spec = []
            for ext in v.shape:
                start = rng.choice((None, rng.randint(-ext - 1, ext + 1)))
                stop = rng.choice((None, rng.randint(-ext - 1, ext + 1)))
                step = rng.choice((-3, -2, -1, 1, 2, 3))
                spec.append(slice(start, stop, step))
            v = nv.slice_view(v, spec)
        elif op == "transpose":
            v = nv.transpose(v)
        elif op == "newaxis":
            v = nv.newaxis_view(v, rng.randint(0, v.ndim))
        elif op == "reshape" and v.flags.c_contiguous and v.size % 2 == 0 and v.size:
            v = nv.reshape(v, (2, v.size // 2))
    return v


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(10)

    # aliasing fuzz: a write through any view chain lands at the base offset
    for _ in range(1000):
        shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        base = nv.reshape(nv.arange(0, math.prod(shape), 1), shape)
        w = _random_chain(rng, base)
        if w.size == 0:
            continue
        idx = tuple(rng.randint(0, e - 1) for e in w.shape)
        nv.set_element(w, idx, -999999)
        linear = nv.element_offset(w, idx) // base.itemsize
        assert nv.get_element(nv.reshape(base, (base.size,)), (linear,)) == -999999

    # bounds fuzz: every reachable offset stays inside the buffer
    for _ in range(1000):
        shape = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        base = nv.reshape(nv.arange(0, math.prod(shape), 1), shape)
        w = _random_chain(rng, base)
        limit = w.buffer.nbytes - w.itemsize
        for idx in itertools.product(*map(range, w.shape)):
            assert 0 <= nv.element_offset(w, idx) <= limit
        if w.ndim and w.size:
            try:
                nv.element_offset(w, (w.shape[0],) + (0,) * (w.ndim - 1))
                assert False, "out-of-bounds index accepted"
            except BoundsError:
                pass

    # typestr round trip
    for _ in range(1000):
        s = rng.choice(CANONICAL_TYPESTRS)
        assert nv.format_typestr(nv.parse_typestr(s)) == s

    # dot vs the independent triple loop, exact
    for _ in range(1000):
        m, k, n = (rng.randint(1, 16) for _ in range(3))
        a_rows = [[rng.uniform(-1, 1) for _ in range(k)] for _ in range(m)]
        b_rows = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(k)]
        got = nv.gather(nv.dot(nv.array_from(a_rows, nv.float64),
                               nv.array_from(b_rows, nv.float64)))
        pos = 0
        for i in range(m):
            for j in range(n):
                s = 0.0
                for t in range(k):
                    s += a_rows[i][t] * b_rows[t][j]
                assert got[pos] == s
                pos += 1

    # promotion consistency: exhaustive (11^3 = 1331 triples)
    for a, b, c in itertools.product(ALL_SCALARS, repeat=3):
        assert promote_dtypes(a, b) == promote_dtypes(b, a)
        assert promote_dtypes(promote_dtypes(a, b), c) == \
            promote_dtypes(a, promote_dtypes(b, c))

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 10 (property suites, >=1000 cases each): PASS ({elapsed:.1f}s)")
