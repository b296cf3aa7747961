"""Tests of the runner's tail rule, its metric list and its refusal to run without ndview."""

import json
import os

import pytest

import run
from conftest import ROOT
from probes import PROBE_KEYS
from spans import COUNT_KEYS, TIME_KEYS


@pytest.mark.parametrize("n, value, percentile", [
    (100, 90, 90.0),       # the 11th largest of 1..100
    (11, 1, 100 / 11),     # the smallest sample still has 10 beyond it
    (40, 30, 75.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    samples = list(range(n, 0, -1))  # unsorted input
    got, pct, beyond = run.tail(samples)
    assert (got, beyond) == (value, 10)
    assert pct == pytest.approx(percentile)
    assert sum(1 for s in samples if s > got) == 10


def test_tail_without_enough_samples_reports_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_timed_call_reports_the_memory_a_call_adds_at_its_peak():
    import ndview as nv

    class Checked:
        def check(self, st, expected, out, tally):
            return None if len(out) == 32 << 20 else "short"

    def call():
        big = b"x" * (32 << 20)  # touches every page
        return bytearray(big)

    dt, peak_mb, _, reason = run.timed_call(nv, Checked(), None, None, call)
    assert reason is None and dt > 0
    assert 63 <= peak_mb < 128  # big and its copy are resident together at the peak


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_declared_per_layer_metrics_are_the_ones_the_trace_produces():
    produced = set(TIME_KEYS) | set(COUNT_KEYS) | set(PROBE_KEYS) | {
        f"counters.{k}" for k in run.COUNTER_KEYS} | {"trace.overhead_share"}
    assert set(run.declared_metrics(ROOT, trace=True)) == produced


def test_layer_map_and_runner_know_the_declared_workloads():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as f:
        layer_map = json.load(f)
    declared = {w["name"] for w in _spec()["workloads"]}
    assert set(layer_map["workloads"]) == declared == set(run.WORKLOADS)


def test_refuses_to_run_without_the_ndview_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "eval_contig", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code != 0 and out == "" and "src/ndview" in err
