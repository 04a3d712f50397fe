"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload query-mix --seeds 1-10 [--seconds 20]

Runs `run.py` once per seed, one run at a time, and prints for each
end-to-end metric its median and its quartile spread: the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the metric's bound from BENCHMARK.json. The runs'
last stdout lines are appended to --log when one is given.
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


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", default=None, help="append each run's result line here")
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    failures = 0
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            failures += 1
            continue
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "detail": json.loads(lines[-2])["detail"],
                                     "result": result}) + "\n")
        failures += not result["correct"]
        row = []
        for name, series in values.items():
            series.append(result["metrics"][name]["value"])
            row.append(f"{name}={series[-1]:.4g}")
        print(f"seed {seed}: correct={result['correct']} " + " ".join(row), flush=True)

    for m in spec["end_to_end"]:
        series = values[m["name"]]
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{m['name']:>18}: median {median:.6g} {m['unit']}, spread {spread:.4f}, "
              f"bound {m['bound']} (a third: {m['bound'] / 3:.4f})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
