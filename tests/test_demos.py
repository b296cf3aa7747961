import math
import random

import pytest

import ndview as nv
from ndview.counters import counting
from ndview.demos import (
    EvalStrategy,
    GridMethod,
    central_diff,
    distance_grid,
    evaluate_f,
    forward_diff,
    mgrid,
    ogrid,
    project_points,
)
from ndview.errors import ShapeError


class TestMgrid:
    def test_two_axes(self):
        i, j = mgrid([(0, 2), (0, 2)])
        assert i.tolist() == [[0, 0], [1, 1]]
        assert j.tolist() == [[0, 1], [0, 1]]

    def test_one_axis(self):
        (i,) = mgrid([(0, 3)])
        assert i.tolist() == [0, 1, 2]

    def test_shapes_scaled_down(self):
        i, j, k = mgrid([(-5, 5)] * 3)
        assert i.shape == j.shape == k.shape == (10, 10, 10)
        assert nv.get_element(i, (0, 3, 7)) == -5
        assert nv.get_element(k, (0, 3, 7)) == 2

    def test_empty_ranges(self):
        with pytest.raises(ShapeError):
            mgrid([])
        with pytest.raises(ShapeError):
            mgrid([(3, 3)])


class TestOgrid:
    def test_orientations(self):
        i, j, k = ogrid([(-5, 5)] * 3)
        assert i.shape == (10, 1, 1)
        assert j.shape == (1, 10, 1)
        assert k.shape == (1, 1, 10)

    def test_broadcast_to_common_shape(self):
        i, j, k = ogrid([(-5, 5)] * 3)
        s = nv.broadcast_shapes(nv.broadcast_shapes(i.shape, j.shape), k.shape)
        assert s == (10, 10, 10)

    def test_one_axis_plain_vector(self):
        (v,) = ogrid([(0, 4)])
        assert v.shape == (4,)

    def test_allocation_is_sum_of_axis_lengths(self):
        with counting() as tally:
            ogrid([(0, 10), (0, 20), (0, 30)])
        assert tally.buffers_allocated == 3
        assert tally.bytes_allocated == (10 + 20 + 30) * 8


def grid_oracle(n):
    lo = -(n // 2)
    out = []
    for i in range(lo, n + lo):
        for j in range(lo, n + lo):
            for k in range(lo, n + lo):
                out.append(math.sqrt(i * i + j * j + k * k))
    return out


class TestDistanceGrid:
    def test_methods_agree_and_match_oracle(self):
        oracle = grid_oracle(4)
        dense, _ = distance_grid(4, GridMethod.DENSE)
        bcast, _ = distance_grid(4, GridMethod.BROADCAST)
        dvals, bvals = nv.gather(dense), nv.gather(bcast)
        assert dvals == bvals
        assert all(abs(a - b) <= 1e-12 for a, b in zip(dvals, oracle))

    def test_op_count_formulas(self):
        for n in (1, 2, 4, 7):
            _, dr = distance_grid(n, "dense")
            _, br = distance_grid(n, "broadcast")
            assert dr.scalar_ops == 6 * n ** 3
            assert br.scalar_ops == 3 * n + n ** 2 + 2 * n ** 3

    def test_n50_counts(self):
        _, dr = distance_grid(50, "dense")
        _, br = distance_grid(50, "broadcast")
        assert dr.scalar_ops == 750000
        assert br.scalar_ops == 252650
        assert dr.checksum == br.checksum
        assert dr.bytes_allocated >= 4 * br.bytes_allocated

    def test_n1_origin(self):
        r, _ = distance_grid(1, "broadcast")
        assert r.tolist() == [[[0.0]]]

    def test_report_serialization(self):
        _, report = distance_grid(2, "dense")
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0] == "method=dense"
        assert lines[1] == "n=2"
        assert lines[2] == f"scalar_ops={report.scalar_ops}"
        assert "checksum=" in lines[-1]


class TestEvaluateF:
    def test_known_values_all_strategies(self):
        x = nv.array_from([0, 1, 2], nv.int64)
        for strategy in EvalStrategy:
            assert evaluate_f(x, strategy).tolist() == [4, 2, 2]

    def test_large_float_tail(self):
        x = nv.arange(0.0, 1e5, 1.0, nv.float64)
        y = evaluate_f(x, "vectorized")
        last = nv.get_element(y, (99999,))
        assert last == 99999.0 ** 2 - 3 * 99999.0 + 4
        assert abs(last - 9.9995e9) < 1e6

    def test_strategies_agree_exactly_on_floats(self):
        x = nv.arange(0.0, 500.0, 1.0, nv.float64)
        vec = evaluate_f(x, "vectorized").tolist()
        assert evaluate_f(x, "inplace").tolist() == vec
        assert evaluate_f(x, "per_element").tolist() == vec

    def test_allocation_counts(self):
        x = nv.arange(0.0, 100.0, 1.0, nv.float64)
        counts = {}
        for strategy in EvalStrategy:
            with counting() as tally:
                evaluate_f(x, strategy)
            counts[strategy] = tally.buffers_allocated
        assert counts[EvalStrategy.PER_ELEMENT] == 1
        assert counts[EvalStrategy.VECTORIZED] == 4
        assert counts[EvalStrategy.INPLACE] == 2

    def test_empty(self):
        x = nv.create((0,), nv.float64)
        assert evaluate_f(x, "vectorized").tolist() == []


class TestDividedDifferences:
    def test_forward(self):
        x = nv.arange(0, 12, 2)
        y = nv.elementwise_unary("square", x)
        assert forward_diff(x, y).tolist() == [2, 6, 10, 14, 18]

    def test_central(self):
        x = nv.arange(0, 12, 2)
        y = nv.elementwise_unary("square", x)
        assert central_diff(x, y).tolist() == [4, 8, 12, 16]

    def test_constant_is_zero(self):
        x = nv.arange(0, 5, 1)
        y = nv.array_from([7, 7, 7, 7, 7], nv.int64)
        assert forward_diff(x, y).tolist() == [0, 0, 0, 0]

    def test_linear_is_exact(self):
        x = nv.arange(0, 6, 1)
        y = nv.scalar_binary("mul", x, 2)
        assert central_diff(x, y).tolist() == [2, 2, 2, 2]

    def test_too_short(self):
        one = nv.arange(0, 1, 1)
        two = nv.arange(0, 2, 1)
        with pytest.raises(ShapeError):
            forward_diff(one, one)
        with pytest.raises(ShapeError):
            central_diff(two, two)


class TestProjectPoints:
    CAMERA = [[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]]
    EYE = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_principal_point(self):
        cam = nv.array_from(self.CAMERA, nv.float64)
        pts = nv.array_from([[0.0, 0.0, 1.0]], nv.float64)
        assert project_points(pts, cam).tolist() == [[320.0, 240.0, 1.0]]

    def test_identity_camera_normalizes_z(self):
        eye = nv.array_from([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                            nv.float64)
        pts = nv.array_from([[2.0, 4.0, 2.0], [3.0, 9.0, 3.0]], nv.float64)
        out = project_points(pts, eye)
        assert out.tolist() == [[1.0, 2.0, 1.0], [1.0, 3.0, 1.0]]

    def test_matches_per_point_oracle(self):
        rng = random.Random(3)
        pts = [[rng.uniform(0.1, 1.0) for _ in range(3)] for _ in range(1000)]
        cam = nv.array_from(self.CAMERA, nv.float64)
        out = nv.gather(project_points(nv.array_from(pts, nv.float64), cam))
        for i, p in enumerate(pts):
            vec = [sum(self.CAMERA[r][t] * p[t] for t in range(3)) for r in range(3)]
            for c in range(3):
                assert abs(out[3 * i + c] - vec[c] / vec[2]) <= 1e-12

    def test_matches_per_point_oracle_across_column_blocks(self):
        # 12,000 points span three of dot's column blocks (5,461 columns for k = 3)
        import struct
        rng = random.Random(12)
        pts = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(12_000)]
        cam = nv.array_from(self.CAMERA, nv.float64)
        out = nv.gather(project_points(nv.array_from(pts, nv.float64), cam))
        want = []
        for p in pts:
            vec = []
            for r in range(3):
                s = 0.0
                for t in range(3):
                    s += self.CAMERA[r][t] * p[t]
                vec.append(s)
            want.extend(v / vec[2] for v in vec)
        assert [struct.pack("<d", x) for x in out] == [struct.pack("<d", x) for x in want]

    def test_zero_third_coordinate_reports_row(self):
        pts = nv.array_from([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], nv.float64)
        with pytest.raises(ZeroDivisionError, match=r"\bpoint 1\b"):
            project_points(pts, nv.array_from(self.EYE, nv.float64))

    # dot's sums start from +0.0, so a -0.0 third coordinate reaches the check
    # as +0.0; either sign raises, and the first zero row is the one named
    @pytest.mark.parametrize("thirds, row", [
        ([1.0, -0.0], 1),
        ([1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0], 3),
    ], ids=["negative_zero", "several_zeros"])
    def test_first_zero_row_is_reported(self, thirds, row):
        pts = nv.array_from([[1.0, 2.0, z] for z in thirds], nv.float64)
        with pytest.raises(ZeroDivisionError, match=rf"\bpoint {row}\b"):
            project_points(pts, nv.array_from(self.EYE, nv.float64))

    def test_nan_third_coordinate_does_not_raise(self):
        pts = nv.array_from([[2.0, 4.0, 2.0], [1.0, 1.0, math.nan]], nv.float64)
        out = project_points(pts, nv.array_from(self.EYE, nv.float64)).tolist()
        assert out[0] == [1.0, 2.0, 1.0]
        assert all(v != v for v in out[1])

    def test_third_column_exactly_one(self):
        rng = random.Random(11)
        pts = [[rng.uniform(0.1, 1.0) for _ in range(3)] for _ in range(500)]
        cam = nv.array_from(self.CAMERA, nv.float64)
        out = project_points(nv.array_from(pts, nv.float64), cam)
        assert all(z == 1.0 for z in nv.gather(out[:, 2]))
