"""The benchmark workloads, each driven through the public ndview API.

BENCHMARK.json says why each workload is there, and perfbench/layer_map.json
what it counts as one element.

A workload builds its inputs from a seed (`inputs`, part of set-up), makes
one call (`call`, the timed part), computes its oracle without ndview
(`oracle`, outside set-up and timing) and checks one call's output against
the oracle and the contract counters (`check`, outside timing). Sizes are
parameters so the benchmark's own tests can run each workload small.
"""

from __future__ import annotations

import math
import os
import random
import struct

class GridBcast:
    name = "grid_bcast"

    def __init__(self, n: int = 100):
        self.n = n
        self.elems_per_call = n ** 3

    def inputs(self, nv, seed: int, workdir: str) -> dict:
        # distance_grid builds its own axis vectors; the seed changes nothing here.
        return {}

    def call(self, nv, st):
        return nv.demos.distance_grid(self.n, "broadcast")

    def oracle(self, st) -> dict:
        n = self.n
        lo = -(n // 2)
        squares = [v * v for v in range(lo, n + lo)]
        checksum = 0.0
        for a in squares:
            for b in squares:
                ab = a + b
                for c in squares:
                    checksum += math.sqrt(ab + c)
        return {"checksum": checksum, "scalar_ops": 3 * n + n * n + 2 * n ** 3}

    def check(self, st, expected, out, tally) -> str | None:
        r, report = out
        if r.shape != (self.n,) * 3:
            return f"shape {r.shape}"
        if report.checksum != expected["checksum"]:
            return f"checksum {report.checksum!r} != {expected['checksum']!r}"
        if report.scalar_ops != expected["scalar_ops"] or tally.scalar_ops != expected["scalar_ops"]:
            return f"scalar_ops {report.scalar_ops}/{tally.scalar_ops} != {expected['scalar_ops']}"
        return None


class EvalContig:
    name = "eval_contig"

    def __init__(self, size: int = 500_000):
        self.size = size
        self.elems_per_call = size

    def inputs(self, nv, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        values = [rng.uniform(-100.0, 100.0) for _ in range(self.size)]
        return {"values": values, "x": nv.array_from(values, nv.float64)}

    def call(self, nv, st):
        outs = []
        for strategy in ("vectorized", "inplace"):
            with nv.counting() as tally:
                y = nv.demos.evaluate_f(st["x"], strategy)
            outs.append((y, tally.buffers_allocated))
        return outs

    def oracle(self, st) -> bytes:
        vals = [x * x - 3.0 * x + 4.0 for x in st["values"]]
        return struct.pack(f"<{len(vals)}d", *vals)

    def check(self, st, expected, out, tally) -> str | None:
        for (y, buffers), strategy, want in zip(out, ("vectorized", "inplace"), (4, 2)):
            if buffers != want:
                return f"{strategy} allocated {buffers} buffers, expected {want}"
            if y.shape != (self.size,) or not y.flags.c_contiguous or y.base_offset:
                return f"{strategy} output header {y!r}"
            if bytes(y.buffer.raw) != expected:
                return f"{strategy} values differ from f(x)"
        return None


class Camera:
    name = "camera"
    CAMERA = [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]]
    TOLERANCE = 1e-12

    def __init__(self, points: int = 100_000):
        self.points = points
        self.elems_per_call = points

    def inputs(self, nv, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        pts = [[rng.uniform(0.1, 1.0) for _ in range(3)] for _ in range(self.points)]
        return {"pts": pts, "points": nv.array_from(pts, nv.float64),
                "camera": nv.array_from(self.CAMERA, nv.float64)}

    def call(self, nv, st):
        return nv.demos.project_points(st["points"], st["camera"])

    def oracle(self, st) -> list[float]:
        rows = self.CAMERA
        want = []
        for p in st["pts"]:
            vec = [rows[r][0] * p[0] + rows[r][1] * p[1] + rows[r][2] * p[2] for r in range(3)]
            want.extend(v / vec[2] for v in vec)
        return want

    def check(self, st, expected, out, tally) -> str | None:
        if out.shape != (self.points, 3) or not out.flags.c_contiguous or out.base_offset:
            return f"output header {out!r}"
        got = struct.unpack(f"<{3 * self.points}d", bytes(out.buffer.raw))
        for i, (g, w) in enumerate(zip(got, expected)):
            if not abs(g - w) <= self.TOLERANCE:
                return f"point {i // 3} column {i % 3}: {g!r} != {w!r}"
        return None


class MmapRecords:
    name = "mmap_records"

    def __init__(self, side: int = 500, records: int = 20_000):
        self.side = side
        self.records = records
        self.elems_per_call = side * side + records

    def inputs(self, nv, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        n = self.side * self.side
        values = [rng.randint(-(1 << 40), 1 << 40) for _ in range(n)]
        # Exactly half the records fall at or above the threshold, so every
        # seed selects the same number of rows.
        half = self.records // 2
        threshold = 1 << 32
        times = (rng.sample(range(1, threshold), self.records - half)
                 + rng.sample(range(threshold, 2 * threshold), half))
        rng.shuffle(times)
        recs = [(t, (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))) for t in times]
        dtype = nv.demos.measurement_dtype()
        return {
            "values": values,
            "threshold": threshold,
            "recs": recs,
            "records": nv.array_from(recs, dtype),
            "dtype": dtype,
            "grid_path": os.path.join(workdir, "grid.i8"),
            "transposed_path": os.path.join(workdir, "transposed.i8"),
            "records_path": os.path.join(workdir, "records.bin"),
        }

    def call(self, nv, st):
        shape = (self.side, self.side)
        a = nv.memmap_open(st["grid_path"], "write", shape, nv.int64)
        nv.fill_flat(a, st["values"])
        nv.flush(a)
        b = nv.memmap_open(st["grid_path"], "r+", shape, nv.int64)
        b[:, ::2] *= 2
        nv.flush(b)
        c = nv.memmap_open(st["grid_path"], "r", shape, nv.int64)
        nv.tofile(nv.transpose(c), st["transposed_path"])
        back = nv.fromfile(st["transposed_path"], nv.int64)
        nv.tofile(st["records"], st["records_path"])
        recs = nv.fromfile(st["records_path"], st["dtype"])
        mask = nv.compare("ge", nv.field_view(recs, "time"), st["threshold"])
        return back, nv.mask_select(recs, mask)

    def oracle(self, st) -> dict:
        side = self.side
        grid = [v * 2 if i % side % 2 == 0 else v for i, v in enumerate(st["values"])]
        transposed = [grid[r * side + c] for c in range(side) for r in range(side)]
        rec = struct.Struct("<Qdd")
        return {
            "grid": struct.pack(f"<{side * side}q", *grid),
            "transposed": struct.pack(f"<{side * side}q", *transposed),
            "records": b"".join(rec.pack(t, x, y) for t, (x, y) in st["recs"]),
            "selected": b"".join(rec.pack(t, x, y) for t, (x, y) in st["recs"]
                                 if t >= st["threshold"]),
        }

    def check(self, st, expected, out, tally) -> str | None:
        back, selected = out
        for key, path in (("grid", st["grid_path"]),
                          ("transposed", st["transposed_path"]),
                          ("records", st["records_path"])):
            with open(path, "rb") as f:
                if f.read() != expected[key]:
                    return f"{key} file contents differ"
        if bytes(back.buffer.raw) != expected["transposed"]:
            return "fromfile of the transposed file differs"
        if selected.shape != (self.records // 2,) or bytes(selected.buffer.raw) != expected["selected"]:
            return f"mask_select result {selected!r} differs"
        return None


WORKLOADS = {w.name: w for w in (GridBcast, EvalContig, Camera, MmapRecords)}
