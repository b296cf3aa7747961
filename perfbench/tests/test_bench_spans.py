"""Tests of the benchmark's span arithmetic, stride classes and tracer coverage."""

import collections
import sys

import pytest

import ndview as nv
import ndview.demos  # noqa: F401  (the tracer wraps demos entry points too)
from spans import (
    ENTRY_POINTS,
    Tracer,
    layer_totals,
    scatter_class,
    self_times,
    stride_class,
)
from workloads import WORKLOADS, Camera, EvalContig, GridBcast, MmapRecords


def span(start, end, parent, bucket="x", attrs=None):
    return ["name", bucket, start, end, parent, 0, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, 100, -1),   # root
        span(10, 40, 0),    # child with a grandchild
        span(15, 25, 1),    # grandchild
        span(50, 70, 0),    # second child
    ]
    assert self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [span(0, 100, -1), span(10, 40, 0), span(30, 60, 0), span(90, 120, 0)]
    # children cover [10, 60) and [90, 100) of the parent
    assert self_times(spans)[0] == 100 - 50 - 10


def test_layer_totals_use_parent_indexes_relative_to_the_call():
    # The call's spans sit at positions 5.. of the tracer's list.
    spans = [
        ["call", "call", 0, 1_000_000_000, -1, 3, None],
        ["kernels.elementwise_unary", "kernels.unary", 100, 900_000_100, 5, 3,
         {"elems": 10, "ops": 10, "bytes": 160}],
        ["core.gather", "core.gather", 200, 300_000_200, 6, 3,
         {"cls": "zero_stride", "elems": 10}],
        ["core.create", "core.create", 300_000_200, 300_000_300, 6, 3, {"bytes": 80}],
    ]
    t = layer_totals(spans, 5)
    assert t["core.gather.zero_stride.s"] == pytest.approx(0.3)
    assert t["core.gather.zero_stride.elems"] == 10
    assert t["kernels.unary.self_s"] == pytest.approx(0.9 - 0.3 - 1e-7)
    assert t["core.create.calls"] == 1 and t["core.create.bytes"] == 80
    assert t["kernels.ops"] == 10 and t["kernels.bytes_moved"] == 160


def test_stride_classes_from_hand_built_views():
    x = nv.arange(0, 16, 1, nv.float64)
    raw = nv.create((8 * 4 + 1,), nv.uint8).buffer
    rec = nv.create((3,), ndview.demos.measurement_dtype())
    views = {
        "contig": x,
        "strided": nv.slice_view(x, [slice(None, None, 3)]),
        "reversed": nv.slice_view(x, [slice(None, None, -1)]),
        "zero_stride": nv.broadcast_view(nv.reshape(x, (16, 1)), (16, 5)),
        "unaligned": nv.ArrayView(raw, 1, (4,), (8,), nv.float64),
        "structured": rec,
    }
    assert {cls: stride_class(v) for cls, v in views.items()} == {c: c for c in views}
    # Only the last stride counts: leading zero strides leave a view contig.
    assert stride_class(nv.broadcast_view(x, (4, 16))) == "contig"
    # A field of a record array steps whole records.
    assert stride_class(nv.field_view(rec, "time")) == "strided"
    assert scatter_class(x) == "contig"
    assert scatter_class(views["reversed"]) == "strided"


def test_install_wraps_every_namespace_and_uninstall_restores():
    original = nv.core.gather
    tracer = Tracer()
    tracer.install()
    try:
        for ns in (nv, nv.core, nv.kernels, ndview.demos):
            assert ns.gather is not original
            assert ns.gather.__wrapped__ is original
    finally:
        tracer.uninstall()
    for ns in (nv, nv.core, nv.kernels, ndview.demos):
        assert ns.gather is original


SMALL = [GridBcast(n=6), EvalContig(size=50), Camera(points=20),
         MmapRecords(side=8, records=20)]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_call_spans_every_entry_point_it_reaches(workload, tmp_path):
    st = workload.inputs(nv, 3, str(tmp_path))
    codes = {getattr(sys.modules[mod], name).__code__: f"{mod[len('ndview.'):]}.{name}"
             for mod, names in ENTRY_POINTS.items() for name in names}
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            entered[codes[frame.f_code]] += 1

    tracer = Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        with nv.counting() as tally:
            out = tracer.call(workload.call, nv, st)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    spans = collections.Counter(s[0] for s in tracer.spans if s[0] != "call")
    assert entered and spans == entered
    assert workload.check(st, workload.oracle(st), out, tally) is None


def test_check_rejects_a_wrong_output(tmp_path):
    w = GridBcast(n=4)
    st = w.inputs(nv, 1, str(tmp_path))
    expected = w.oracle(st)
    with nv.counting() as tally:
        out = w.call(nv, st)
    assert w.check(st, expected, out, tally) is None
    expected["checksum"] += 1e-9
    assert "checksum" in w.check(st, expected, out, tally)


def test_every_workload_is_covered_by_a_small_case():
    assert {w.name for w in SMALL} == set(WORKLOADS)


def test_camera_check_holds_each_point_to_the_tolerance(tmp_path):
    w = Camera(points=5)
    st = w.inputs(nv, 2, str(tmp_path))
    expected = w.oracle(st)
    out = w.call(nv, st)
    assert w.check(st, expected, out, None) is None
    expected[7] += 1e-9
    assert w.check(st, expected, out, None).startswith("point 2 column 1")
