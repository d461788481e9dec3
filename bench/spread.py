"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload flow_monotone --seeds 1-10 --seconds 20

For every metric it prints the median and the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median,
the figure BENCHMARK.json's bounds are set against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f" (bound {bound}, bound/3 {bound / 3:.4f})" if bound else ""
        print(f"{name:28s} median {med:12.6g}  spread {spread:.4f}{note}")


if __name__ == "__main__":
    main()
