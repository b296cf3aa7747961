#!/usr/bin/env python3
"""ndview benchmark: run one workload and print its metrics as JSON.

Run from the repository root, which must hold ``src/ndview`` and
``BENCHMARK.json``:

    python3 perfbench/run.py --workload grid_bcast --seed 1 --seconds 24 --trace 0

The benchmark is a closed loop with one caller in one thread: each call
starts when the previous one has returned and been checked. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, with call times in units
of a reference loop timed right before each call (``*_ref``) and set-up time
in seconds at the reference loop's nominal speed (the plain
milliseconds and seconds are in the ``info`` line); ``--trace 1`` reports the
per-layer ones, from calls traced at the entry points of ndview's layers,
alternated with untraced calls to measure the tracing overhead, plus the
layer probes. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``info``, holds the machine facts and the details behind the
metrics. Temporary files, and the spans of the first traced calls
(``trace-<workload>.jsonl``), go under ``.perfbench-out/`` in the repository
root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import sys
import tempfile
import time
import traceback

from probes import run_probes
from spans import Tracer, summarize, write_spans
from workloads import WORKLOADS

SETUP_REPEATS = 5
REFERENCE_ELEMS = 200_000
# Nominal seconds of one reference loop, about its median on a 2-vCPU
# "Intel(R) Xeon(R) Processor" VM under Python 3.11. setup_s is set-up time
# in reference loops times this, so it reads in seconds at that speed.
REFERENCE_NOMINAL_S = 0.030
SPAN_CALLS = 5  # traced calls whose spans are kept and written out; all are summed
TAIL_BEYOND = 10
OUT_DIR = ".perfbench-out"
COUNTER_KEYS = ("scalar_ops", "buffers_allocated", "bytes_allocated")


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile that has at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond it). The value is the
    (TAIL_BEYOND + 1)-th largest sample and the percentile is the share of
    samples at or below it. With TAIL_BEYOND samples or fewer no percentile
    qualifies, and the maximum is returned with 0 samples beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def import_ndview(root: str):
    """Import ndview afresh from the checkout's src/, dropping any loaded copy."""
    src = os.path.join(root, "src")
    for key in [k for k in sys.modules if k == "ndview" or k.startswith("ndview.")]:
        del sys.modules[key]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    nv = importlib.import_module("ndview")
    importlib.import_module("ndview.demos")
    if not os.path.abspath(nv.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported ndview from {nv.__file__}, not from {src}")
    return nv


def on_tmpfs(path: str):
    """Whether path lies on a tmpfs mount (None when mounts are not readable)."""
    path = os.path.realpath(path)
    best, fstype = "", None
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                mount = parts[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        return None
    return fstype == "tmpfs"


def machine_facts(workdir: str) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "tmpfs": on_tmpfs(workdir)}


def setup(workload, root, seed, workdir):
    """Import ndview, build the inputs and make one warm-up call; returns the time."""
    gc.collect()
    t0 = time.perf_counter()
    nv = import_ndview(root)
    st = workload.inputs(nv, seed, workdir)
    workload.call(nv, st)
    return nv, st, time.perf_counter() - t0


def repeated_setups(workload, root, seed, workdir):
    """SETUP_REPEATS set-ups, each right after a reference loop.

    The inputs and ndview of one set-up are dropped before the next, so each
    starts from the same heap. Returns the last set-up's ndview and inputs,
    the set-up seconds and the seconds of the reference loop before each.
    """
    nv = st = None
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        del nv, st
        refs.append(reference_loop())
        nv, st, dt = setup(workload, root, seed, workdir)
        times.append(dt)
    return nv, st, times, refs


def reference_loop() -> float:
    """Seconds taken by fixed pure-Python work that does not touch ndview.

    It builds, packs and unpacks a list of floats, like ndview's inner loops.
    Timed right before each call and set-up, it tracks the host's CPU
    speed, which swings by up to a factor of two over seconds to minutes on
    shared machines; times divided by it move only when ndview does.
    """
    t0 = time.perf_counter()
    xs = [math.sqrt(float(i)) for i in range(REFERENCE_ELEMS)]
    fmt = f"<{REFERENCE_ELEMS}d"
    struct.unpack(fmt, struct.pack(fmt, *xs))
    return time.perf_counter() - t0


def _status_kib(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> int:
    """Reset the process's peak resident set to its current size; returns it in KiB."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _status_kib("VmRSS")


def timed_call(nv, workload, st, expected, run):
    """One checked call: (seconds, MiB of resident memory it added at its peak,
    counter report, failure reason or None)."""
    gc.collect()  # every call starts from a collected heap, outside the timed region
    rss0 = reset_peak_rss()
    with nv.counting() as tally:
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            out, reason = None, traceback.format_exc(limit=3)
        else:
            reason = None
        elapsed = time.perf_counter() - t0
    peak_mb = (_status_kib("VmHWM") - rss0) / 1024
    if reason is None:
        try:
            reason = workload.check(st, expected, out, tally)
        except Exception:
            reason = traceback.format_exc(limit=3)
    return elapsed, peak_mb, tally.report(), reason


def end_to_end(workload, root, seed, seconds, workdir, info):
    nv, st, setups, setup_refs = repeated_setups(workload, root, seed, workdir)
    expected = workload.oracle(st)
    times, refs, peaks, heap, failures = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        refs.append(reference_loop())
        dt, peak_mb, report, reason = timed_call(nv, workload, st, expected,
                                                 lambda: workload.call(nv, st))
        times.append(dt)
        peaks.append(peak_mb)
        heap.append(report.bytes_allocated)
        if reason:
            failures.append(reason)
    # Each call in units of the reference loop just before it. Throughput
    # divides the run's summed reference time by its summed call time, which
    # weighs the host's fast and slow phases by how long they lasted.
    ratios = [t / r for t, r in zip(times, refs)]
    tail_ratio, tail_pct, beyond = tail(ratios)
    info.update(setup_samples_s=setups, calls=len(times), tail_percentile=tail_pct,
                call_samples_ms=[t * 1e3 for t in times],
                reference_samples_ms=[r * 1e3 for r in refs],
                peak_samples_mb=peaks,
                tail_samples_beyond=beyond,
                reference_p50_ms=statistics.median(refs) * 1e3,
                call_p50_ms=statistics.median(times) * 1e3,
                call_tail_ms=tail(times)[0] * 1e3,
                elems_per_s=workload.elems_per_call * len(times) / sum(times))
    metrics = {
        "setup_s": statistics.median(t / r for t, r in zip(setups, setup_refs))
                   * REFERENCE_NOMINAL_S,
        "elems_per_ref": workload.elems_per_call * sum(refs) / sum(times),
        "call_p50_ref": statistics.median(ratios),
        "call_tail_ref": tail_ratio,
        "call_peak_rss_mb": max(peaks),
        "heap_bytes_per_call": statistics.median_low(heap),
        "ok_share": (len(times) - len(failures)) / len(times),
    }
    return metrics, len(times), failures


def per_layer(workload, root, seed, seconds, workdir, info):
    nv, st, _ = setup(workload, root, seed, workdir)
    expected = workload.oracle(st)
    tracer = Tracer()
    plain, traced, per_call, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        dt, _, _, reason = timed_call(nv, workload, st, expected,
                                      lambda: workload.call(nv, st))
        plain.append(dt)
        if reason:
            failures.append(reason)
        tracer.install()
        try:
            dt, _, report, reason = timed_call(nv, workload, st, expected,
                                               lambda: tracer.call(workload.call, nv, st))
        finally:
            tracer.uninstall()
        traced.append(dt)
        if reason:
            failures.append(reason)
        per_call.append({f"counters.{k}": getattr(report, k) for k in COUNTER_KEYS})
        per_call[-1].update(tracer.last_call_totals(keep_spans=len(traced) <= SPAN_CALLS))
    metrics, info["counts_repeat"] = summarize(per_call)
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics.update(run_probes(nv, workdir))
    info.update(calls=len(plain) + len(traced), traced_calls=len(traced),
                spans_written=len(tracer.spans))
    out_path = os.path.join(root, OUT_DIR, f"trace-{workload.name}.jsonl")
    write_spans(out_path, tracer.spans, info)
    info["spans_file"] = os.path.relpath(out_path, root)
    return metrics, len(plain) + len(traced), failures


def declared_metrics(root: str, trace: bool) -> dict[str, str]:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ndview", "__init__.py")):
        print(f"error: no src/ndview package under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    units = declared_metrics(root, bool(args.trace))
    workload = WORKLOADS[args.workload]()
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(root, OUT_DIR))
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "elems_per_call": workload.elems_per_call,
            "loop": "closed, one caller, one thread",
            "machine": machine_facts(workdir)}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures = measure(workload, root, args.seed, args.seconds,
                                               workdir, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    for reason in failures[:3]:
        print(f"failed call: {reason}", file=sys.stderr)
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not failures and info.get("counts_repeat", True),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
