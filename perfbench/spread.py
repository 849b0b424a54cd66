"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload suite_matrix --seeds 1-10 [--seconds 16]

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            timeout=180)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print("seed %d: exit %d, %d of %d failed" % (
                seed, proc.returncode, result["failed"], result["attempted"]))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, xs in values.items():
        median = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        print("%-12s median %-12.6g spread %.4f bound %.2f" % (
            name, median, (q3 - q1) / median, bounds.get(name, float("nan"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
