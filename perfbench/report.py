#!/usr/bin/env python3
"""Run every benchmark workload once and print each metric by name with its unit.

Each run lasts the ``run_seconds`` of BENCHMARK.json. Run from the
repository root:

    python3 perfbench/report.py --seed 1 --trace 0
    python3 perfbench/report.py --seed 1 --trace 1 --out perfbench/baseline/traced_seed1.json

Each workload runs in its own process through run.py, one after another. ``--out`` saves the result lines and the info
lines (machine facts, call counts, tail percentile) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{name} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2][len("info "):]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="save all results as JSON here")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]

    runs = {}
    for name in WORKLOADS:
        run = runs[name] = run_workload(name, args.seed, seconds, args.trace)
        res, info = run["result"], run["info"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} machine={json.dumps(info['machine'])}")
        if "tail_percentile" in info:
            print(f"  call_tail_ref is p{info['tail_percentile']:.1f} of {info['calls']} calls "
                  f"({info['tail_samples_beyond']} beyond); reference loop "
                  f"{info['reference_p50_ms']:.3f} ms; in plain time call_p50_ms "
                  f"{info['call_p50_ms']:.3f} ms, call_tail_ms {info['call_tail_ms']:.3f} ms, "
                  f"elems_per_s {info['elems_per_s']:.6g} 1/s; plain setup "
                  f"{statistics.median(info['setup_samples_s']):.3f} s")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:>18.6g} {m['unit']}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": seconds, "trace": args.trace,
                       "runs": runs}, f, indent=1)
            f.write("\n")
    return 0 if all(r["result"]["correct"] for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
