"""Benchmark command for sthrn: one workload per process.

    python3 benchmarks/run.py --workload train-human --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit, and the machine.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a separate traced pass.  Exits 1 when a correctness check fails and
2 on a usage error or when the package source is missing.

A result file and, for traced runs, the spans are written to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKLOADS = ("train-human", "train-fork7-tiny", "predict-human", "gradcheck-tiny")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _cap_blas_threads() -> None:
    """Cap BLAS and OpenMP pools at the CPUs this process may use.

    Must run before numpy is imported; the pools are sized at load time.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, "0"))
        except ValueError:
            current = 0
        os.environ[var] = str(min(current, nproc) if current > 0 else nproc)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _machine(np) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads() or os.environ.get("OPENBLAS_NUM_THREADS"),
        "ram_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _compare(plain, traced) -> int:
    """Outputs of the traced pass that differ from the untraced pass."""
    bad = 0
    for a, b in zip(plain.outputs, traced.outputs):
        if a is None or b is None:
            continue
        same = (a.shape == b.shape and (a == b).all()) if hasattr(a, "shape") else a == b
        bad += not same
    return bad + abs(len(plain.outputs) - len(traced.outputs))


def _layer_metrics(tracer, wl, plain, traced) -> dict:
    table = tracer.layer_table()
    counts = tracer.counts

    def mean_ms(name):
        row = table.get(name)
        return row["total_ms"] / row["calls"] if row else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    probes = sum(calls(f"autodiff.gradcheck_{k}") for k in ("tape", "probe", "refine"))
    checks = traced.calls if wl.item == "component" else 0
    items = max(traced.items, 1)
    wall, covered, book = tracer.coverage()
    ms = "ms"
    return {
        "encoder.encode_ms": (mean_ms("encoder.encode"), ms),
        "encoder.tape_nodes": (ratio(counts["encoder.nodes"], counts["encoder.taped"]), "count"),
        "decoder.init_ms": (mean_ms("decoder.init"), ms),
        "decoder.step_ms": (mean_ms("decoder.step"), ms),
        "decoder.tape_nodes": (ratio(counts["decoder.nodes"], counts["decoder.taped"]), "count"),
        "skeleton.sample_windows_ms": (mean_ms("skeleton.sample_windows"), ms),
        "training.loss_ms": (mean_ms("training.loss"), ms),
        "autodiff.backward_ms": (mean_ms("autodiff.backward"), ms),
        "autodiff.tape_nodes": (ratio(counts["tape.nodes"], counts["tape.windows"]), "count"),
        "autodiff.tape_mb": (ratio(counts["tape.bytes"], counts["tape.roots"]) / 2**20, "MB"),
        "training.clip_ms": (mean_ms("training.clip"), ms),
        "training.adam_ms": (mean_ms("training.adam"), ms),
        "training.checkpoint_load_ms": (mean_ms("training.checkpoint_load"), ms),
        "autodiff.gradcheck_probe_ms": (mean_ms("autodiff.gradcheck_probe"), ms),
        "autodiff.gradcheck_refine_ms": (mean_ms("autodiff.gradcheck_refine"), ms),
        "autodiff.gradcheck_forward_calls": (ratio(probes, checks), "count"),
        "autodiff.gradcheck_refined_components":
            (ratio(calls("autodiff.gradcheck_refine") / 2, checks), "count"),
        "process.gc_pause_ms": (tracer.gc_pause_s * 1e3 / items, "ms/item"),
        "process.gc_collections": (tracer.gc_collections / items, "count/item"),
        "process.minor_faults": (tracer.minor_faults / items, "count/item"),
        "trace.coverage_pct": (100.0 * ratio(covered, wall - book), "%"),
        "trace.overhead_pct":
            (100.0 * (ratio(traced.norm_wall_s, plain.norm_wall_s) - 1.0), "%"),
    }


def _self_time_lines(tracer, plain, traced) -> list[str]:
    table = tracer.layer_table()
    wall, covered, book = tracer.coverage()
    lines = [f"{'span':34s} {'calls':>7s} {'self ms':>10s} {'share':>7s} "
             f"{'total ms':>10s} {'mean ms':>9s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        share = 100.0 * row["self_ms"] / wall if wall else 0.0
        lines.append(f"{name:34s} {row['calls']:7d} {row['self_ms']:10.1f} {share:6.1f}% "
                     f"{row['total_ms']:10.1f} {row['total_ms'] / row['calls']:9.3f}")
    gc_ms = tracer.gc_pause_s * 1e3
    lines.append(f"gc pauses (inside the spans above): {tracer.gc_collections} collections, "
                 f"{gc_ms:.1f} ms, {100.0 * gc_ms / wall if wall else 0.0:.1f}% of timed wall")
    lines.append(f"coverage: layer spans cover {covered:.1f} of {wall - book:.1f} ms "
                 f"timed wall ({100.0 * covered / (wall - book) if wall > book else 0.0:.1f}%), "
                 f"excluding {book:.1f} ms of tracer bookkeeping")
    lines.append(f"overhead: traced {traced.wall_s * 1e3:.1f} ms - untraced "
                 f"{plain.wall_s * 1e3:.1f} ms = {(traced.wall_s - plain.wall_s) * 1e3:+.1f} ms "
                 f"over {traced.calls} identical calls; at reference host speed "
                 f"{traced.norm_wall_s * 1e3:.1f} - {plain.norm_wall_s * 1e3:.1f} ms")
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "sthrn" / "__init__.py").is_file():
        print(f"error: no package source at {src}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    t_import = time.perf_counter()
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy as np
    import sthrn
    if Path(sthrn.__file__).resolve().parent != (src / "sthrn").resolve():
        print(f"error: sthrn was imported from {sthrn.__file__}, not {src}", file=sys.stderr)
        return 2
    import hostspeed
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.make(args.workload)
    wl.generate(args.seed, str(out_dir))
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.build()
            builds.append(time.perf_counter() - t0)
        check = workloads.Pass()
        t0 = time.perf_counter()
        wl.warm_up(check)
        setup_s = import_s + statistics.median(builds) + (time.perf_counter() - t0)

        if args.trace:
            half = args.seconds / 2.0
            plain = wl.run(half)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with tracer.span(tracing.SETUP_SPAN):
                    wl.build()
                tracer.set_params(wl.params.named())
                with tracer.watch_process():
                    traced = wl.run(half, count=plain.calls, tracer=tracer)
            finally:
                tracer.remove()
            differ = _compare(plain, traced)
            if differ:
                traced.fail(differ, f"{differ} outputs of the traced pass differ "
                            "from the untraced pass")
            main_pass = traced
            metrics = _layer_metrics(tracer, wl, plain, traced)
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")
            table = _self_time_lines(tracer, plain, traced)
            attempted = plain.attempted + traced.attempted + check.attempted
            failed = plain.failed + traced.failed + check.failed
            problems = check.problems + plain.problems + traced.problems
        else:
            main_pass = wl.run(args.seconds, minimum=wl.min_calls)
            attempted = main_pass.attempted + check.attempted
            failed = main_pass.failed + check.failed
            problems = check.problems + main_pass.problems
            table = []
            metrics = {
                "setup_s": (setup_s, "s"),
                "items_per_s": (main_pass.norm_items_per_s(), "1/s"),
                "latency_p50_ms": (main_pass.norm_latency_p50_ms(), "ms"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
            }
    finally:
        cleanup = getattr(wl, "cleanup", None)
        if cleanup is not None:
            cleanup()

    failed = min(failed, attempted)
    named = {}
    if not args.trace:
        named["setup_s"] = (setup_s, "s")
        named.update(wl.named_metrics(main_pass))
        named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["failed_share"] = (failed / attempted if attempted else 1.0, "share")
    machine = _machine(np)
    correct = failed == 0 and attempted > 0

    host_factor = wl.host.median_factor()
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  item {wl.item}  calls {main_pass.calls}  "
          f"blocks {len(main_pass.blocks)}")
    print(f"# host speed: kernel median {host_factor * hostspeed.REFERENCE_MS:.2f} ms over "
          f"{len(wl.host.samples_ms)} samples, {hostspeed.REFERENCE_MS:g} ms on the "
          f"reference host (factor {host_factor:.3f}, "
          f"{'applied' if wl.host_scaled else 'not applied'})")
    print("# machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    for line in table:
        print("# " + line)
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "host_factor": host_factor,
              "host_samples_ms": wl.host.samples_ms, "blocks": main_pass.blocks,
              "factors": main_pass.factors,
              "named": named,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "problems": problems, "self_time": table}
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
