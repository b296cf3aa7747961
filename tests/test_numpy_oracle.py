"""Differential checks against NumPy where ndview's semantics match NumPy's.

The view algebra (slice, transpose, newaxis, zero-copy reshape, and keys of
ints, slices and None), broadcasting, the typestr codec, the array-interface
import and tolist are compared with NumPy's own results on random inputs. The
module is skipped when NumPy is not installed.

Intended divergences, which these tests do not compare:
- integer division truncates toward zero, where NumPy's floor division floors;
- a result the element type cannot hold raises ValueRangeError, where NumPy
  wraps integers or overflows float32 to inf;
- ArrayView.__eq__ is identity, so views stay hashable; elementwise equality
  is compare("eq", a, b);
- assignment through a bool mask (x[mask] = v, x[mask] += v) raises
  TypeError, because x[mask] is a copy, where NumPy writes into x;
- structured records read as dicts keyed by field name, where NumPy's tolist
  gives tuples.
"""

import ctypes
import random
import struct

import pytest

import ndview as nv

np = pytest.importorskip("numpy")

BASE_SHAPES = [(24,), (4, 6), (6, 4), (2, 3, 4), (3, 1, 8), (1, 24, 1)]
TYPESTRS = ["|b1", "|i1", "<i2", "<i4", "<i8", "|u1", "<u2", "<u4", "<u8", "<f4", "<f8"]
CHAINS = 200


def exact(x):
    """x with every float replaced by its bits (NaNs included) and every
    scalar tagged with its type."""
    if isinstance(x, list):
        return [exact(e) for e in x]
    return type(x), struct.pack("<d", x) if isinstance(x, float) else x


def offset(a, base) -> int:
    return a.__array_interface__["data"][0] - base.__array_interface__["data"][0]


def factorizations(n, rank):
    """Every shape of `rank` extents whose product is n."""
    if rank == 1:
        return [(n,)]
    return [(d,) + rest for d in range(1, n + 1) if n % d == 0
            for rest in factorizations(n // d, rank - 1)]


def random_slice(rng, ext):
    """start:stop:step with bounds that may be negative or past either end."""
    return slice(rng.choice([None, rng.randint(-ext - 1, ext + 1)]),
                 rng.choice([None, rng.randint(-ext - 1, ext + 1)]),
                 rng.choice([-3, -2, -1, 1, 2, 3]))


def random_key(rng, shape):
    """Ints (negative or out of range at either end), slices and None over
    leading axes of `shape`."""
    key = [rng.randint(-ext - 1, ext) if rng.random() < 0.4 else random_slice(rng, ext)
           for ext in shape[:rng.randint(0, len(shape))]]
    for _ in range(rng.randint(0, 2)):
        key.insert(rng.randint(0, len(key)), None)
    return tuple(key)


def random_chain(rng, v, a):
    """The same random slice / transpose / newaxis / reshape / key chain on an
    ArrayView and an ndarray of the same shape.

    A key is applied only when NumPy gives a view; where NumPy raises
    IndexError, ndview must raise BoundsError.
    """
    for _ in range(rng.randint(0, 5)):
        op = rng.choice(["slice", "transpose", "newaxis", "reshape", "getitem"])
        if op == "slice" and v.ndim:
            spec = [random_slice(rng, ext) for ext in v.shape][:rng.randint(1, v.ndim)]
            v, a = nv.slice_view(v, spec), a[tuple(spec)]
        elif op == "transpose":
            v, a = nv.transpose(v), a.T
        elif op == "newaxis":
            axis = rng.randint(0, v.ndim)
            v, a = nv.newaxis_view(v, axis), a[(slice(None),) * axis + (None,)]
        elif op == "reshape" and v.flags.c_contiguous and v.size:
            # only the zero-copy case: NumPy also reshapes some non-contiguous
            # views without copying, which ndview does not attempt
            shape = rng.choice(factorizations(v.size, rng.randint(1, 3)))
            v, a = nv.reshape(v, shape), a.reshape(shape)
        elif op == "getitem":
            key = random_key(rng, v.shape)
            try:
                want = a[key]
            except IndexError:
                with pytest.raises(nv.BoundsError):
                    v[key]
                continue
            if isinstance(want, np.ndarray):  # not a scalar: an int on every axis reads one
                v, a = v[key], want
    return v, a


def test_view_chains_match_numpy_headers():
    rng = random.Random(11)
    base = nv.arange(0, 24, 1)
    npbase = np.arange(24, dtype="<i8")
    for _ in range(CHAINS):
        shape = rng.choice(BASE_SHAPES)
        v, a = random_chain(rng, nv.reshape(base, shape), npbase.reshape(shape))
        assert v.shape == a.shape, (v, a.shape)
        if v.size:  # NumPy gives an empty slice step 1 and start 0
            assert v.strides == a.strides, (v, a.strides)
            assert v.base_offset == offset(a, npbase), (v, offset(a, npbase))
        assert v.flags.c_contiguous == a.flags.c_contiguous, (v, a.flags)
        assert nv.gather(v) == a.ravel().tolist()


def test_scalar_keys_match_numpy():
    rng = random.Random(13)
    base = nv.arange(0, 24, 1)
    npbase = np.arange(24, dtype="<i8")
    read = 0
    for _ in range(CHAINS):
        shape = rng.choice(BASE_SHAPES)
        v, a = random_chain(rng, nv.reshape(base, shape), npbase.reshape(shape))
        key = tuple(rng.randint(-ext - 1, ext) for ext in v.shape)
        try:
            want = a[key]
        except IndexError:
            with pytest.raises(nv.BoundsError):
                v[key]
        else:
            assert v[key] == want.item(), (v, key)
            read += 1
    assert read


def test_broadcast_view_strides_match_broadcast_to():
    rng = random.Random(12)
    base = nv.arange(0, 24, 1)
    npbase = np.arange(24, dtype="<i8")
    checked = 0
    for _ in range(CHAINS):
        shape = rng.choice(BASE_SHAPES)
        v, a = random_chain(rng, nv.reshape(base, shape), npbase.reshape(shape))
        target = tuple(rng.randint(1, 3) if e == 1 else e for e in v.shape)
        target = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2))) + target
        b = nv.broadcast_view(v, target)
        want = np.broadcast_to(a, target)
        assert b.shape == want.shape
        # NumPy zeroes the stride of every extent-1 axis, and rewrites the
        # strides of an empty result; neither stride addresses anything
        if b.size:
            assert [st for e, st in zip(b.shape, b.strides) if e > 1] \
                == [st for e, st in zip(want.shape, want.strides) if e > 1], (v, target)
        assert not b.flags.writeable and not want.flags.writeable
        assert nv.gather(b) == want.ravel().tolist()
        checked += 1
    assert checked == CHAINS


@pytest.mark.parametrize("start, stop, step", [
    (0.0, 1.0, np.inf), (1.0, 0.0, -np.inf), (0.0, -1.0, np.inf), (-0.0, 2.0, 1.0)])
def test_float_arange_matches_numpy(start, stop, step):
    assert exact(nv.arange(start, stop, step, nv.float64).tolist()) == \
        exact(np.arange(start, stop, step).tolist())


@pytest.mark.parametrize("typestr", TYPESTRS + ["<b1", "<i1", ">u1", "<u1"])
def test_typestr_round_trip(typestr):
    dt = nv.parse_typestr(typestr)
    assert nv.format_typestr(dt) == np.dtype(typestr).str
    assert dt.itemsize == np.dtype(typestr).itemsize


@pytest.mark.parametrize("typestr", TYPESTRS)
def test_from_interface_over_numpy_arrays(typestr):
    rng = random.Random(typestr)
    dt = np.dtype(typestr)
    data = np.frombuffer(bytes(rng.getrandbits(8) for _ in range(24 * dt.itemsize)), dtype=dt)
    if dt.kind == "b":
        data = data.view("|u1") % 2 == 1
    elif dt.kind == "f":
        data = np.arange(24, dtype=dt) / 7 - 1
    for _ in range(CHAINS // 10):
        shape = rng.choice(BASE_SHAPES)
        _, a = random_chain(rng, nv.reshape(nv.arange(0, 24, 1), shape),
                            data.copy().reshape(shape))
        v = nv.from_interface(a)
        assert v.shape == a.shape
        if a.__array_interface__["strides"]:  # None means C-contiguous, extent-1 strides unsaid
            assert v.strides == a.strides
        assert v.dtype == nv.parse_typestr(typestr)
        assert v.tolist() == a.tolist()
        if a.size:
            first = (0,) * a.ndim
            nv.set_element(v, first, a[first].item())  # writes land in NumPy's memory
            assert a.tolist() == v.tolist()
        frozen = a.view()
        frozen.flags.writeable = False
        assert not nv.from_interface(frozen).flags.writeable


def test_from_interface_keeps_the_exporter_alive():
    v = nv.from_interface(np.arange(6, dtype="<f8").reshape(2, 3)[:, ::-1])
    assert v.buffer.owner is not None
    assert v.tolist() == [[2.0, 1.0, 0.0], [5.0, 4.0, 3.0]]


@pytest.mark.parametrize("typestr", TYPESTRS)
def test_tolist_matches_ndarray_tolist(typestr):
    rng = random.Random(f"tolist/{typestr}")
    dt = nv.parse_typestr(typestr)
    block = (ctypes.c_ubyte * (24 * dt.itemsize))(
        *(rng.getrandbits(8) for _ in range(24 * dt.itemsize)))
    if dt.kind is nv.Kind.BOOL:
        block[:] = [b % 2 for b in block]
    npbase = np.frombuffer(block, dtype=typestr)
    base = nv.from_interface(npbase)
    for _ in range(CHAINS // 4):
        shape = rng.choice(BASE_SHAPES)
        v, a = random_chain(rng, nv.reshape(base, shape), npbase.reshape(shape))
        assert exact(v.tolist()) == exact(a.tolist()), v
