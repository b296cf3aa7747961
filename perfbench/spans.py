"""Span recording around ndview's public entry points, and per-layer totals.

`Tracer.install()` replaces every traced function in every loaded ``ndview``
module namespace that holds it, so a call reaches the wrapper whether the
caller looked the name up as ``ndview.gather``, ``kernels.gather`` or
``demos.gather``. `uninstall()` puts the original functions back. Spans are
kept in memory and written out by `write_spans` when the run ends; nothing
under ``src/`` records anything.

Generator functions (``iter_offsets``) and small helpers (``element_offset``,
``promote_dtypes``, ``contiguous_strides``) are not wrapped: their time is
part of the caller's self time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# Traced entry point -> layer bucket, per defining module.
ENTRY_POINTS = {
    "ndview.core": {
        "gather": "core.gather",
        "scatter": "core.scatter",
        "create": "core.create",
        "copy_elements": "core.copy",
        "materialize": "core.copy",
        "slice_view": "core.header",
        "transpose": "core.header",
        "reshape": "core.header",
        "index_axis": "core.header",
        "reinterpret_dtype": "core.header",
        "arange": "core.other",
        "array_from": "core.other",
        "fill_flat": "core.other",
        "get_element": "core.other",
        "set_element": "core.other",
    },
    "ndview.broadcast": {
        "broadcast_shapes": "broadcast",
        "aligned_strides": "broadcast",
        "broadcast_plan": "broadcast",
        "broadcast_view": "broadcast",
        "newaxis_view": "core.header",
    },
    "ndview.kernels": {
        "elementwise_unary": "kernels.unary",
        "elementwise_binary": "kernels.binary",
        "scalar_binary": "kernels.scalar",
        "elementwise_binary_inplace": "kernels.inplace",
        "compare": "kernels.compare",
        "mask_select": "kernels.mask_select",
        "dot": "kernels.dot",
        "field_view": "core.header",
    },
    "ndview.storage": {
        "memmap_open": "storage.memmap_open",
        "flush": "storage.flush",
        "tofile": "storage.tofile",
        "fromfile": "storage.fromfile",
    },
    "ndview.demos": {
        "mgrid": "demos",
        "ogrid": "demos",
        "distance_grid": "demos",
        "evaluate_f": "demos",
        "forward_diff": "demos",
        "central_diff": "demos",
        "project_points": "demos",
    },
}

GATHER_CLASSES = ("contig", "strided", "reversed", "zero_stride", "unaligned", "structured")
SCATTER_CLASSES = ("contig", "strided")
KERNELS = ("unary", "binary", "scalar", "inplace", "compare", "mask_select", "dot")
STORAGE_OPS = ("memmap_open", "flush", "tofile", "fromfile")

ROOT = "call"


def stride_class(v) -> str:
    """Gather stride class of a view, read from its header.

    Uses only the dtype, the base offset and the last-axis stride: a view
    whose last stride is one itemsize counts as ``contig`` even when its
    leading strides are zero.
    """
    if v.dtype.is_structured:
        return "structured"
    if not v.shape:
        return "contig"
    isz = v.dtype.itemsize
    s = v.strides[-1]
    if v.base_offset % isz or s % isz:
        return "unaligned"
    if s == 0:
        return "zero_stride"
    if s < 0:
        return "reversed"
    return "contig" if s == isz else "strided"


def scatter_class(v) -> str:
    return "contig" if not v.shape or v.strides[-1] == v.dtype.itemsize else "strided"


def _nbytes(v) -> int:
    return v.size * v.dtype.itemsize


def _is_view(x) -> bool:
    return hasattr(x, "strides") and hasattr(x, "dtype")


def _kernel_attrs(kind: str, args, result) -> dict:
    """Elements, ops and bytes moved of one kernel call, computed from sizes."""
    if kind == "inplace":
        target, operand = args[1], args[2]
        n = target.size
        moved = 2 * _nbytes(target)
        if _is_view(operand):
            moved += n * operand.dtype.itemsize
        return {"elems": n, "ops": n, "bytes": moved}
    if kind == "mask_select":
        mask = args[1]
        return {"elems": result.size, "ops": 0,
                "bytes": _nbytes(mask) + 2 * _nbytes(result)}
    if kind == "dot":
        a, b = args
        k = a.shape[-1]
        m = a.size // k
        n = b.size // k
        return {"elems": result.size, "ops": 2 * m * n * k,
                "bytes": _nbytes(a) + _nbytes(b) + _nbytes(result)}
    n = result.size
    moved = _nbytes(result) + sum(n * x.dtype.itemsize for x in args if _is_view(x))
    return {"elems": n, "ops": n, "bytes": moved}


def span_attrs(bucket: str, args, result) -> dict | None:
    """Counts a span carries beside its times, computed from its operands."""
    if bucket == "core.gather":
        return {"cls": stride_class(args[0]), "elems": args[0].size}
    if bucket == "core.scatter":
        return {"cls": scatter_class(args[0]), "elems": args[0].size}
    if bucket == "core.create":
        return {"bytes": _nbytes(result)}
    if bucket == "core.copy":
        return {"bytes": _nbytes(args[0])}
    if bucket.startswith("kernels."):
        return _kernel_attrs(bucket[len("kernels."):], args, result)
    if bucket == "storage.tofile":
        return {"written": _nbytes(args[0])}
    if bucket == "storage.flush":
        return {"written": args[0].buffer.nbytes}
    if bucket == "storage.fromfile":
        return {"read": _nbytes(result)}
    return None


class Tracer:
    """Records one span per traced call: name, start, end, parent, call id."""

    def __init__(self):
        # Each span is [name, bucket, start_ns, end_ns, parent, call_id, attrs];
        # parent is an index into `spans`, -1 for a root.
        self.spans: list[list] = []
        self.call_ranges: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name, bucket) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, bucket, time.perf_counter_ns(), 0, parent,
                           len(self.call_ranges), None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, fn, *args):
        """Run one benchmark call under a root span with a fresh call id."""
        first = len(self.spans)
        idx = self._open(ROOT, ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.call_ranges.append((first, len(self.spans)))

    def _wrap(self, name, bucket, fn):
        def traced(*args, **kwargs):
            idx = self._open(name, bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            # Counted after the span ends; the cost is tracing overhead in the parent.
            self.spans[idx][6] = span_attrs(bucket, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced entry point in every ndview namespace that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "ndview" or key.startswith("ndview.")]
        for module_name, names in ENTRY_POINTS.items():
            home = sys.modules[module_name]
            for name, bucket in names.items():
                original = getattr(home, name)
                wrapper = self._wrap(f"{module_name[len('ndview.'):]}.{name}",
                                     bucket, original)
                for ns in namespaces:
                    if ns.__dict__.get(name) is original:
                        self._saved.append((ns, name, original))
                        setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._saved):
            setattr(ns, name, original)
        self._saved.clear()

    def last_call_totals(self, keep_spans: bool = True) -> dict[str, float]:
        """Per-layer totals of the latest call; optionally drop its spans after."""
        lo, hi = self.call_ranges[-1]
        totals = layer_totals(self.spans[lo:hi], lo)
        if not keep_spans:
            del self.spans[lo:hi]
            self.call_ranges[-1] = (lo, lo)
        return totals


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span: its duration minus the time its children cover.

    `spans` holds the spans of one call, each with the index of its parent
    within the same list (or -1). Child intervals are clipped to the parent
    and merged, so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[4] >= 0:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[2], span[3]
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


TIME_KEYS = (
    [f"core.gather.{c}.s" for c in GATHER_CLASSES]
    + [f"core.scatter.{c}.s" for c in SCATTER_CLASSES]
    + ["core.create.s", "core.copy.s", "core.header.s", "core.other.s", "broadcast.s"]
    + [f"kernels.{k}.self_s" for k in KERNELS]
    + [f"storage.{op}.s" for op in STORAGE_OPS]
    + ["demos.self_s"]
)
COUNT_KEYS = (
    [f"core.gather.{c}.elems" for c in GATHER_CLASSES]
    + [f"core.scatter.{c}.elems" for c in SCATTER_CLASSES]
    + ["core.create.calls", "core.create.bytes", "core.copy.bytes", "core.header.calls",
       "broadcast.calls"]
    + [f"kernels.{k}.elems" for k in KERNELS]
    + ["kernels.ops", "kernels.bytes_moved", "storage.bytes_written", "storage.bytes_read"]
)


def layer_totals(spans: list[list], first_index: int) -> dict[str, float]:
    """Per-layer self seconds and counts of one call.

    `spans` are that call's spans in recording order; `first_index` is the
    position of the first of them in the tracer's list, so parent indexes
    can be made local.
    """
    local = [[s[0], s[1], s[2], s[3], s[4] - first_index if s[4] >= 0 else -1]
             for s in spans]
    selfs = self_times(local)
    t = dict.fromkeys(TIME_KEYS, 0.0)
    c = dict.fromkeys(COUNT_KEYS, 0)
    for span, self_ns in zip(spans, selfs):
        bucket, attrs, sec = span[1], span[6] or {}, self_ns / 1e9
        if bucket == ROOT:
            continue
        if bucket == "core.gather" or bucket == "core.scatter":
            if not attrs:
                continue  # raised before its operand could be classified
            t[f"{bucket}.{attrs['cls']}.s"] += sec
            c[f"{bucket}.{attrs['cls']}.elems"] += attrs["elems"]
        elif bucket == "core.create":
            t["core.create.s"] += sec
            c["core.create.calls"] += 1
            c["core.create.bytes"] += attrs.get("bytes", 0)
        elif bucket == "core.copy":
            t["core.copy.s"] += sec
            c["core.copy.bytes"] += attrs.get("bytes", 0)
        elif bucket in ("core.header", "broadcast"):
            t[f"{bucket}.s"] += sec
            c[f"{bucket}.calls"] += 1
        elif bucket == "core.other":
            t["core.other.s"] += sec
        elif bucket.startswith("kernels."):
            t[f"{bucket}.self_s"] += sec
            c[f"{bucket}.elems"] += attrs.get("elems", 0)
            c["kernels.ops"] += attrs.get("ops", 0)
            c["kernels.bytes_moved"] += attrs.get("bytes", 0)
        elif bucket.startswith("storage."):
            t[f"{bucket}.s"] += sec
            c["storage.bytes_written"] += attrs.get("written", 0)
            c["storage.bytes_read"] += attrs.get("read", 0)
        elif bucket == "demos":
            t["demos.self_s"] += sec
    return {**t, **c}


def summarize(per_call: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median over calls of each time in TIME_KEYS, and each other value as a count.

    Also returns whether every count was the same on every call.
    """
    out: dict[str, float] = {}
    steady = True
    for key in per_call[0]:
        if key in TIME_KEYS:
            out[key] = statistics.median(d[key] for d in per_call)
        else:
            values = {d[key] for d in per_call}
            steady &= len(values) == 1
            out[key] = max(values)
    return out, steady


def write_spans(path, spans: list[list], meta: dict) -> None:
    """One JSON object of run facts, then one span per line."""
    with open(path, "w") as f:
        f.write(json.dumps(meta) + "\n")
        for i, (name, _bucket, start, end, parent, call_id, attrs) in enumerate(spans):
            f.write(json.dumps([call_id, i, parent, name, start, end, attrs]) + "\n")

