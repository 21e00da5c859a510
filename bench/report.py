"""Run every workload, untraced and traced, and print every metric with its unit.

    python3 bench/report.py --seed 1 --out bench/out/report.json

The workloads and the default ``--seconds`` come from ``BENCHMARK.json``.
Each run is a separate ``run.py`` process, one at a time, so each workload's
peak_rss_mb is its own.  The JSON record written to ``--out`` holds the
parsed last line of every run together with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        if line.startswith("#"):
            print(f"{workload} trace={trace} {line}")
    return json.loads(lines[-1])


def main() -> int:
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", type=Path, default=BENCH / "out" / "report.json")
    args = parser.parse_args()

    results = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        results[workload] = {f"trace{trace}": run_one(workload, args.seed, args.seconds, trace) for trace in (0, 1)}
    print(f"{'workload':12} {'metric':42} {'value':>14} unit")
    for workload, runs in results.items():
        for run in runs.values():
            for name, metric in run["metrics"].items():
                print(f"{workload:12} {name:42} {metric['value']:14.6g} {metric['unit']}")
        attempted = sum(run["attempted"] for run in runs.values())
        failed = sum(run["failed"] for run in runs.values())
        print(f"{workload:12} {'failed_share':42} {failed / attempted:14.6g} ratio ({failed}/{attempted})")

    record = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "processor": platform.processor(), "cpus": os.cpu_count()},
        "seed": args.seed,
        "seconds": args.seconds,
        "results": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(run["correct"] for runs in results.values() for run in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
