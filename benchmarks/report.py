"""Run every workload once and print all metrics by workload.

    python3 benchmarks/report.py --seed 1            # end-to-end metrics
    python3 benchmarks/report.py --seed 1 --trace    # plus the traced runs

Each workload runs in its own process through ``benchmarks/run.py``,
one after another, never in parallel.  Exits 1 if any run failed a
correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="also make the traced runs")
    args = ap.parse_args(argv)

    status = 0
    rows = []
    machine = None
    for trace in ((0, 1) if args.trace else (0,)):
        for name in (w["name"] for w in spec["workloads"]):
            result = HERE / "out" / f"{name}-seed{args.seed}-trace{trace}.json"
            result.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if trace:
                print(f"== {name} traced: self time ==")
                print("\n".join(line for line in proc.stdout.splitlines()
                                if line.startswith("# ") and not line.startswith("# machine")))
            if proc.returncode != 0:
                status = 1
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
            if not result.is_file():
                continue
            record = json.loads(result.read_text())
            machine = record["machine"]
            metrics = {**record["named"], **record["metrics"]}
            for metric, (value, unit) in metrics.items():
                rows.append((name, metric, value, unit))

    if machine:
        print("machine: " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"{'workload':18s} {'metric':38s} {'value':>14s}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:18s} {metric:38s} {value:14.6g}  {unit}")
    return status


if __name__ == "__main__":
    sys.exit(main())
