"""Alternating A/B runs of one benchmark workload in two checkouts.

Runs ``python3 benchmarks/run.py`` for one workload in a parent and a
change checkout, one run each per pair, alternating which goes first,
with pair i on seed ``--seed`` + i and the run length of
``BENCHMARK.json`` (``run_seconds``).  Prints every pair's values, then
per end-to-end metric the median and quartiles of each side, the count
of pairs the change won, the median change against the metric's bound,
and whether a gain claim holds: at least 10 pairs, at least 9 of every
10 pairs won, and a median gap larger than the parent's interquartile
range.  For a workload timed at reference host speed (gradcheck-tiny,
train-fork7-tiny) each pair and the summary also show each side's raw
rate, its items over the wall time of its blocks, and its host-speed
factor, read from the run's record in ``benchmarks/out/``: the factor
can move between trees that differ only in code it never runs, and the
raw rate shows whether a scaled gain is the code's.  The claim rule
uses the benchmark's metric alone.  From the repository root::

    python3 tools/ab.py --workload train-human --parent ../a --change ../b --pairs 10

The checkouts' directory names should have one length: glibc's heap
layout, and so ``peak_rss_mb`` and train-fork7-tiny's throughput, move
with it, and the script warns when they differ.  Nothing under
``benchmarks/`` is edited; ``run.py`` writes its own result files.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), or the value thrice."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The metrics of one untraced run, from the JSON on its last line,
    and for a host-scaled workload its raw rate and host-speed factor,
    from its record."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {checkout}: no output (exit {done.returncode})\n"
                         f"{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"# warning: {checkout} seed {seed}: {result['failed']} of "
              f"{result['attempted']} operations failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if ", applied)" in done.stdout:  # the host-speed line of a scaled workload
        record = json.loads((checkout / "benchmarks" / "out" /
                             f"{workload}-seed{seed}-trace0.json").read_text())
        items, wall = (sum(column) for column in zip(*record["blocks"]))
        values.update(raw_items_per_s=items / wall, host_factor=record["host_factor"])
    return values


def summary(spec: dict, parent: list[float], change: list[float]) -> str:
    """One metric's line: each side's quartiles, wins, median change and
    the claim rule."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = (cm - pm) / pm if pm else math.inf
    worse = sign * rel < -spec["bound"]
    holds = (len(parent) >= 10 and wins >= math.ceil(0.9 * len(parent))
             and sign * (cm - pm) > p3 - p1)
    return (f"{spec['name']:16s} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:10.4g} [{c1:.4g}, {c3:.4g}]  {rel:+7.1%}  "
            f"won {wins}/{len(parent)}  {'WORSE THAN BOUND' if worse else 'within bound'}  "
            f"claim {'holds' if holds else 'does not hold'}")


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    ap.add_argument("--change", required=True, type=Path, help="checkout under test")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for checkout in (parent, change):
        if not (checkout / "benchmarks" / "run.py").is_file():
            ap.error(f"{checkout} has no benchmarks/run.py")
    if len(str(parent)) != len(str(change)):
        print(f"# warning: {parent} and {change} differ in length; heap layout, and with "
              "it peak_rss_mb and fork7 throughput, moves with the directory name")
    results: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [("parent", parent), ("change", change)]
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            results[side].append(run(checkout, args.workload, seed, args.seconds))
        print(f"pair {i + 1} seed {seed}  " + "  ".join(
            f"{name} {results['parent'][-1][name]:.4g} -> {results['change'][-1][name]:.4g}"
            for name in results["parent"][-1]), flush=True)
    print(f"# {args.workload}: {args.pairs} pairs of {args.seconds:g} s, seeds {args.seed}"
          f"-{args.seed + args.pairs - 1}; quartiles in brackets")
    for spec in bench["end_to_end"]:
        if spec["name"] in results["parent"][0]:
            print(summary(spec, [r[spec["name"]] for r in results["parent"]],
                          [r[spec["name"]] for r in results["change"]]))
    if "host_factor" in results["parent"][0]:
        print("unscaled         " + "  ".join(
            f"{side} {statistics.median(r['raw_items_per_s'] for r in runs):.4g} items/s "
            f"at host factor {statistics.median(r['host_factor'] for r in runs):.3f}"
            for side, runs in results.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
