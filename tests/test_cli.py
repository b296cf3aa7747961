import pytest

from ndview import array_from, cli, int8
from ndview.cli import run


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def _stable(out: str) -> str:
    """Output with wall-clock lines removed."""
    return "\n".join(ln for ln in out.splitlines() if not ln.startswith("time:"))


class TestStridesDemo:
    def test_transcript_strides(self, capsys):
        assert run(["strides-demo"]) == 0
        out = capsys.readouterr().out
        for expected in ["strides=(24, 8)", "strides=(48, 16)", "strides=(8, 24)",
                         "strides=(72, 8)", "strides=(72, 1)"]:
            assert expected in out
        assert "[[0, 2], [6, 8]]" in out
        assert "[[100, 1, 2], [3, 4, 5], [6, 7, 8]]" in out
        assert "shape=(1, 72)" in out


class TestBroadcastDemo:
    def test_values(self, capsys):
        assert run(["broadcast-demo"]) == 0
        out = capsys.readouterr().out
        assert "[3, 9, 15]" in out
        assert "[2, 6, 10]" in out
        assert "[[3, 10, 17], [6, 13, 20]]" in out
        assert "(2, 4, 3)" in out
        assert "buffers_allocated=0" in out


class TestFiniteDiff:
    def test_values(self, capsys):
        assert run(["finite-diff"]) == 0
        out = capsys.readouterr().out
        assert "forward [2, 6, 10, 14, 18]" in out
        assert "central [4, 8, 12, 16]" in out


class TestGrid:
    def test_counts_at_n50(self, capsys):
        assert run(["grid", "--n", "50"]) == 0
        out = capsys.readouterr().out
        assert "scalar_ops=750000" in out
        assert "scalar_ops=252650" in out
        assert "checksums_equal=True" in out

    def test_single_method(self, capsys):
        assert run(["grid", "--n", "4", "--method", "broadcast"]) == 0
        out = capsys.readouterr().out
        assert "method=broadcast" in out
        assert "checksums_equal" not in out

    def test_refuses_oversize(self, capsys):
        assert run(["grid", "--n", "5000"]) == 1
        err = capsys.readouterr().err
        assert "refusing" in err and "bytes" in err


class TestCamera:
    def test_fixed_point_and_oracle(self, capsys):
        assert run(["camera", "--size", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[320.0, 240.0, 1.0]" in out
        assert "third_column_all_one=True" in out
        assert "max_oracle_diff=0.0" in out or "max_oracle_diff=" in out


class TestMemmapDemo:
    def test_round_trip(self, capsys, tmp_path):
        assert run(["memmap-demo", "--path", str(tmp_path / "m.raw")]) == 0
        out = capsys.readouterr().out
        assert "row 0 starts [0, 1, 2, 3]" in out
        assert "ends [298, 299]" in out
        assert "row 1 starts [300, 301]" in out
        assert "row 100 starts [60000, 60002, 60004]" in out
        assert "verify_ok=True" in out


class TestInterfaceDemo:
    def test_round_trip(self, capsys):
        assert run(["interface-demo"]) == 0
        out = capsys.readouterr().out
        assert "[97, 98, 99, 100, 101]" in out
        assert "[99, 100, 101, 102, 103]" in out
        assert "exporter text 'cdefg'" in out
        assert "buffers_allocated_by_view=0" in out


class TestRecordsDemo:
    def test_write_then_read(self, capsys, tmp_path):
        path = str(tmp_path / "foo.dat")
        assert run(["records-demo", "--write", path, "--read"]) == 0
        out = capsys.readouterr().out
        assert f"wrote 3 records to {path} (72 bytes)" in out
        assert "times [1, 2, 3]" in out
        assert "mask [False, True, True]" in out
        assert "masked pos.x [0.0, 5.5]" in out

    def test_read_existing(self, capsys, tmp_path):
        path = str(tmp_path / "foo.dat")
        run(["records-demo", "--write", path])
        capsys.readouterr()
        assert run(["records-demo", "--path", path]) == 0
        out = capsys.readouterr().out
        assert "wrote" not in out
        assert "times [1, 2, 3]" in out


class TestBench:
    def test_reports_strategies_and_grid(self, capsys):
        assert run(["bench", "--size", "500", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "strategy=per_element buffers_allocated=1" in out
        assert "strategy=vectorized buffers_allocated=4" in out
        assert "strategy=inplace buffers_allocated=2" in out
        assert "time: grid_dense" in out
        assert "time: grid_broadcast" in out


class TestCliContract:
    def test_value_range_error_exits_1(self, capsys, monkeypatch):
        def overflow(args):
            x = array_from([[1, 2, 3], [120, 5, 6]], int8)
            x += 10
            return 0

        monkeypatch.setitem(cli._HANDLERS, "strides-demo", overflow)
        assert run(["strides-demo"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot store 130")

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["grid", "--frob"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys):
        run(["grid", "--n", "4"])
        first = _stable(capsys.readouterr().out)
        run(["grid", "--n", "4"])
        second = _stable(capsys.readouterr().out)
        assert first == second

    def test_deterministic_camera_with_seed(self, capsys):
        run(["camera", "--size", "100", "--seed", "9"])
        first = _stable(capsys.readouterr().out)
        run(["camera", "--size", "100", "--seed", "9"])
        second = _stable(capsys.readouterr().out)
        assert first == second
