"""Command-line front end: transcript demos, accounting comparisons, benchmarks.

Output is deterministic for a given set of options and seed; wall-clock
lines carry the prefix ``time:`` so golden-file comparisons can filter them.
Exit codes: 0 success, 1 runtime error (one-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import time

from . import __version__
from .broadcast import broadcast_shapes, broadcast_view
from .core import (
    arange,
    array_from,
    fill_flat,
    gather,
    get_element,
    reinterpret_dtype,
    reshape,
    set_element,
    slice_view,
    transpose,
)
from .counters import counting
from .demos import (
    EvalStrategy,
    GridMethod,
    MutableText,
    central_diff,
    distance_grid,
    evaluate_f,
    forward_diff,
    measurement_dtype,
    project_points,
    sample_measurements,
)
from .dtypes import float64, int64, uint8
from .errors import NdviewError
from .kernels import (
    compare,
    elementwise_binary,
    elementwise_binary_inplace,
    elementwise_unary,
    field_view,
    mask_select,
    scalar_binary,
)
from .storage import MemmapMode, flush, from_interface, fromfile, memmap_open, tofile

GRID_REFUSAL_BYTES = 2 << 30  # refuse grid runs estimated over 2 GiB


def _dense_grid_bytes(n: int) -> int:
    return 72 * n ** 3 + 24 * n


def _broadcast_grid_bytes(n: int) -> int:
    return 16 * n ** 3 + 8 * n ** 2 + 48 * n


def _default_path(name: str) -> str:
    return os.path.join(tempfile.gettempdir(), name)


def cmd_strides_demo(args) -> int:
    x = reshape(arange(0, 9, 1, int64), (3, 3))
    print("x = arange(9) reshaped to (3, 3)")
    print(f"x values {x.tolist()}")
    print(f"x shape={x.shape} strides={x.strides} itemsize={x.itemsize}")
    y = slice_view(x, [slice(None, None, 2), slice(None, None, 2)])
    print("y = x[::2, ::2]")
    print(f"y values {y.tolist()}")
    print(f"y shape={y.shape} strides={y.strides}")
    set_element(y, (0, 0), 100)
    print("after y[0, 0] = 100:")
    print(f"x values {x.tolist()}")
    xt = transpose(x)
    print("xT = transpose(x)")
    print(f"xT values {xt.tolist()}")
    print(f"xT shape={xt.shape} strides={xt.strides}")
    z = reshape(x, (1, 9))
    print("z = reshape(x, (1, 9))")
    print(f"z values {z.tolist()}")
    print(f"z shape={z.shape} strides={z.strides}")
    zb = reinterpret_dtype(z, uint8)
    print("zb = reinterpret(z, |u1)")
    print(f"zb shape={zb.shape} strides={zb.strides}")
    head = [get_element(zb, (0, i)) for i in range(16)]
    print(f"zb first 16 bytes {head}")
    return 0


def cmd_broadcast_demo(args) -> int:
    a = array_from([1, 3, 5], int64)
    print(f"a {a.tolist()}")
    b = scalar_binary("mul", a, 3, scalar_side="left")
    print(f"b = 3 * a -> {b.tolist()}")
    print(f"b - a -> {elementwise_binary('sub', b, a).tolist()}")
    m = reshape(arange(0, 6, 1, int64), (2, 3))
    print(f"m {m.tolist()}")
    print(f"b + m -> {elementwise_binary('add', b, m).tolist()}")
    print(f"broadcast_shapes((2, 4, 3), (4, 1)) -> {broadcast_shapes((2, 4, 3), (4, 1))}")
    y = reshape(arange(0, 4, 1, int64), (4, 1))
    with counting() as tally:
        expanded = broadcast_view(y, (2, 4, 3))
    print(f"expand (4, 1) to (2, 4, 3): strides={expanded.strides} "
          f"buffers_allocated={tally.buffers_allocated}")
    return 0


def cmd_finite_diff(args) -> int:
    x = arange(0, 12, 2, int64)
    y = elementwise_unary("square", x)
    print(f"x {x.tolist()}")
    print(f"y = x**2 {y.tolist()}")
    print(f"forward {forward_diff(x, y).tolist()}")
    print(f"central {central_diff(x, y).tolist()}")
    return 0


def cmd_grid(args) -> int:
    n = args.n
    methods = [GridMethod.DENSE, GridMethod.BROADCAST] if args.method == "both" \
        else [GridMethod(args.method)]
    estimate = sum(_dense_grid_bytes(n) if m is GridMethod.DENSE
                   else _broadcast_grid_bytes(n) for m in methods)
    if estimate > GRID_REFUSAL_BYTES:
        print(f"error: refusing grid run, estimated allocation {estimate} bytes "
              f"exceeds {GRID_REFUSAL_BYTES}", file=sys.stderr)
        return 1
    checksums = []
    for method in methods:
        t0 = time.perf_counter()
        _, report = distance_grid(n, method)
        elapsed = time.perf_counter() - t0
        print(report.to_text())
        print(f"time: {method.value} {elapsed:.6f}s")
        print()
        checksums.append(report.checksum)
    if len(checksums) == 2:
        print(f"checksums_equal={checksums[0] == checksums[1]}")
    return 0


def cmd_camera(args) -> int:
    camera = array_from([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]],
                        float64)
    print(f"camera {camera.tolist()}")
    one = array_from([[0.0, 0.0, 1.0]], float64)
    print(f"project (0.0, 0.0, 1.0) -> {project_points(one, camera).tolist()[0]}")
    rng = random.Random(args.seed)
    pts = [[rng.uniform(0.1, 1.0) for _ in range(3)] for _ in range(args.size)]
    points = array_from(pts, float64)
    t0 = time.perf_counter()
    projected = project_points(points, camera)
    elapsed = time.perf_counter() - t0
    thirds = gather(projected[:, 2])
    print(f"points={args.size} seed={args.seed}")
    print(f"third_column_all_one={all(z == 1.0 for z in thirds)}")
    cam_rows = camera.tolist()
    worst = 0.0
    flat = gather(projected)
    for i, p in enumerate(pts):
        vec = [sum(cam_rows[r][t] * p[t] for t in range(3)) for r in range(3)]
        for c in range(3):
            worst = max(worst, abs(flat[3 * i + c] - vec[c] / vec[2]))
    print(f"max_oracle_diff={worst!r}")
    print(f"time: project {elapsed:.6f}s")
    return 0


def cmd_memmap_demo(args) -> int:
    path = args.path or _default_path("ndview-demo.memmap")
    a = memmap_open(path, MemmapMode.WRITE, (300, 300), int64)
    print(f"created {path} shape={a.shape} dtype={a.dtype} ({a.buffer.nbytes} bytes)")
    fill_flat(a, range(300 * 300))
    flush(a)
    print(f"row 0 starts {gather(a[0, :4])} ends {gather(a[0, -2:])}")
    print(f"row 1 starts {gather(a[1, :2])}")
    b = memmap_open(path, MemmapMode.READ_WRITE, (300, 300), int64)
    elementwise_binary_inplace("mul", b[100, :], 2)
    flush(b)
    print("reopened r+, doubled row 100, flushed")
    c = memmap_open(path, MemmapMode.READ_ONLY, (300, 300), int64)
    print(f"row 100 starts {gather(c[100, :3])}")
    print(f"row 99 starts {gather(c[99, :3])}")
    ok = gather(c[100, :3]) == [60000, 60002, 60004] and gather(c[99, :3]) == [29700, 29701, 29702]
    print(f"verify_ok={ok}")
    return 0


def cmd_interface_demo(args) -> int:
    m = MutableText("abcde")
    print(f"exporter text '{m}'")
    with counting() as tally:
        am = from_interface(m)
    print(f"as array {am.tolist()}")
    print(f"buffers_allocated_by_view={tally.buffers_allocated}")
    elementwise_binary_inplace("add", am, 2)
    print(f"after += 2 {am.tolist()}")
    print(f"exporter text '{m}'")
    return 0


def cmd_records_demo(args) -> int:
    if args.write:
        path, write, read = args.write, True, args.read
    elif args.path:
        path, write, read = args.path, False, True
    else:
        path, write, read = _default_path("ndview-demo-records.dat"), True, True
    if write:
        data = sample_measurements()
        tofile(data, path)
        print(f"wrote {data.shape[0]} records to {path} ({os.path.getsize(path)} bytes)")
    if read:
        x = fromfile(path, measurement_dtype())
        times = field_view(x, "time")
        print(f"times {times.tolist()}")
        mask = compare("ge", times, 2)
        print(f"mask {mask.tolist()}")
        picked = field_view(field_view(mask_select(x, mask), "pos"), "x")
        print(f"masked pos.x {picked.tolist()}")
    return 0


def cmd_bench(args) -> int:
    size = args.size
    x = arange(0, float(size), 1.0, float64)
    print(f"eval size={size} dtype={x.dtype}")
    for strategy in EvalStrategy:
        with counting() as tally:
            t0 = time.perf_counter()
            evaluate_f(x, strategy)
            elapsed = time.perf_counter() - t0
        print(f"strategy={strategy.value} buffers_allocated={tally.buffers_allocated} "
              f"bytes_allocated={tally.bytes_allocated}")
        print(f"time: {strategy.value} {elapsed:.6f}s")
    n = args.n
    estimate = _dense_grid_bytes(n) + _broadcast_grid_bytes(n)
    if estimate > GRID_REFUSAL_BYTES:
        print(f"error: refusing grid bench, estimated allocation {estimate} bytes "
              f"exceeds {GRID_REFUSAL_BYTES}", file=sys.stderr)
        return 1
    print(f"grid n={n}")
    for method in GridMethod:
        t0 = time.perf_counter()
        _, report = distance_grid(n, method)
        elapsed = time.perf_counter() - t0
        print(f"method={method.value} scalar_ops={report.scalar_ops} "
              f"bytes_allocated={report.bytes_allocated}")
        print(f"time: grid_{method.value} {elapsed:.6f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndview",
        description="Strided-array demos, accounting comparisons and benchmarks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("strides-demo", help="shape/strides walkthrough of the view chain")
    sub.add_parser("broadcast-demo", help="scalar, array and shape broadcasting")
    sub.add_parser("finite-diff", help="forward and central divided differences")

    p = sub.add_parser("grid", help="distance-grid accounting, dense vs broadcast")
    p.add_argument("--n", type=int, default=50, help="per-axis extent (default 50)")
    p.add_argument("--method", choices=["dense", "broadcast", "both"], default="both")

    p = sub.add_parser("camera", help="project random points through a camera matrix")
    p.add_argument("--size", type=int, default=100000, help="number of points")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("memmap-demo", help="file-mapped array round trip")
    p.add_argument("--path", default=None, help="mapping file (default under tmp)")

    sub.add_parser("interface-demo", help="foreign-memory array interface round trip")

    p = sub.add_parser("records-demo", help="structured record file round trip")
    p.add_argument("--write", metavar="PATH", default=None,
                   help="write the sample records to PATH")
    p.add_argument("--read", action="store_true", help="read records back and query them")
    p.add_argument("--path", default=None, help="record file when only reading")

    p = sub.add_parser("bench", help="time evaluation strategies and grid methods")
    p.add_argument("--size", type=int, default=100000, help="bench element count")
    p.add_argument("--n", type=int, default=50, help="grid extent for timing")

    return parser


_HANDLERS = {
    "strides-demo": cmd_strides_demo,
    "broadcast-demo": cmd_broadcast_demo,
    "finite-diff": cmd_finite_diff,
    "grid": cmd_grid,
    "camera": cmd_camera,
    "memmap-demo": cmd_memmap_demo,
    "interface-demo": cmd_interface_demo,
    "records-demo": cmd_records_demo,
    "bench": cmd_bench,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (NdviewError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
