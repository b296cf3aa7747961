"""Layer probes: single ndview entry points timed from outside at fixed sizes.

Each probe repeats its operation a fixed number of times and reports the
median, so probes take the same work on every run and seed.
"""

from __future__ import annotations

import os
import statistics
import time

PROBE_ELEMS = 1 << 15      # elements per gather/scatter probe
HEADER_BATCH = 2000        # view headers built per timed batch
MB = 1 << 20
REPEATS = 7

PROBE_KEYS = (
    [f"probe.{op}.{cls}.ns_per_elem" for op in ("gather", "scatter")
     for cls in ("contig", "strided", "reversed", "zero_stride", "unaligned")]
    + [f"probe.header.{fn}.us" for fn in ("slice_view", "transpose", "broadcast_view")]
    + ["probe.create.ms_per_mb", "probe.tofile.ms_per_mb", "probe.fromfile.ms_per_mb"]
)


def _median_s(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def stride_class_views(nv, n: int) -> dict:
    """One writeable f8 view of n elements per stride class, over fresh buffers."""
    f8 = nv.float64
    contig = nv.create((n,), f8)
    strided = nv.slice_view(nv.create((2 * n,), f8), [slice(None, None, 2)])
    reversed_ = nv.slice_view(nv.create((n,), f8), [slice(None, None, -1)])
    # A writeable zero-stride header: every position aliases one element.
    zero = nv.ArrayView(nv.create((1,), f8).buffer, 0, (n,), (0,), f8)
    unaligned = nv.ArrayView(nv.create((8 * n + 1,), nv.uint8).buffer, 1, (n,), (8,), f8)
    return {"contig": contig, "strided": strided, "reversed": reversed_,
            "zero_stride": zero, "unaligned": unaligned}


def run_probes(nv, workdir: str) -> dict[str, float]:
    out: dict[str, float] = {}
    n = PROBE_ELEMS
    values = [float(i) for i in range(n)]
    for cls, v in stride_class_views(nv, n).items():
        out[f"probe.scatter.{cls}.ns_per_elem"] = _median_s(lambda: nv.scatter(v, values)) / n * 1e9
        out[f"probe.gather.{cls}.ns_per_elem"] = _median_s(lambda: nv.gather(v)) / n * 1e9

    m = nv.reshape(nv.arange(0, 64 * 64, 1, nv.float64), (64, 64))
    col = nv.reshape(nv.arange(0, 64, 1, nv.float64), (64, 1))
    spec = [slice(None, None, 2), slice(1, None)]
    header_ops = {
        "slice_view": lambda: nv.slice_view(m, spec),
        "transpose": lambda: nv.transpose(m),
        "broadcast_view": lambda: nv.broadcast_view(col, (64, 64)),
    }
    for name, op in header_ops.items():
        def batch(op=op):
            for _ in range(HEADER_BATCH):
                op()
        out[f"probe.header.{name}.us"] = _median_s(batch) / HEADER_BATCH * 1e6

    elems = MB // 8
    out["probe.create.ms_per_mb"] = _median_s(lambda: nv.create((elems,), nv.float64)) * 1e3
    block = nv.arange(0, elems, 1, nv.float64)
    path = os.path.join(workdir, "probe.f8")
    out["probe.tofile.ms_per_mb"] = _median_s(lambda: nv.tofile(block, path)) * 1e3
    out["probe.fromfile.ms_per_mb"] = _median_s(lambda: nv.fromfile(path, nv.float64)) * 1e3
    os.remove(path)
    return out
