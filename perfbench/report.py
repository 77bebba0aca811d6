"""Run workloads over several seeds, each run in its own process, and summarize.

    python3 perfbench/report.py                          # every workload, seeds 1 and 2
    python3 perfbench/report.py --workloads a3-weyl --seeds 1-10

Prints pass_s, setup_s, peak_rss_mb, the raw wall_s and fail_frac with their
units for every run, then, per workload and end-to-end metric, the median of the runs and the
spread: the distance between the first and third quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.  Every run measures
BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1]), "elapsed_s": elapsed}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-2", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.setdefault(workload, []).append(run)
            cells = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in run["result"]["metrics"].items()]
            if not args.trace:
                cells.append(f"wall_s {run['report']['wall_s']['median']:.6g} s (raw, not gated)")
                cells.append(f"fail_frac {run['report']['fail_frac']:.3g} (of {run['result']['attempted']} checks)")
            cells.append(f"run {run['elapsed_s']:.1f} s")
            print(f"{workload} seed {seed}: " + ", ".join(cells), flush=True)
    if args.trace:
        return 0
    print()
    print(f"{'workload':10} {'metric':12} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, items in runs.items():
        for metric in bench["end_to_end"]:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in items]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / median:.4f}"
            else:
                spread = "-"
            print(f"{workload:10} {metric['name']:12} {median:12.6g} {spread:>8} {metric['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
