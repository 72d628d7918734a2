"""Time two checkouts of ``sthrn`` against each other in one process.

Imports each checkout's ``src/sthrn`` as its own package, builds four
scenarios shaped like the benchmark's workloads in each, and runs them
in rounds: every round times each scenario once per side, and the side
that goes first alternates from round to round.  The scenarios are:

- ``train-human``: one ``train()`` iteration of the default human model
  at batch 4;
- ``train-fork7-tiny``: five ``train()`` iterations of fork7 at hidden
  6, 2 layers and batch 16, 10 observed and 10 predicted frames;
- ``predict-human``: ``predict`` of 25 frames from 50 by the default
  human model;
- ``gradcheck-tiny``: ``grad_check`` of the criterion-4 fixture (fork7,
  hidden 6, 2 layers, 6 -> 3 frames) on the benchmark's six leaves,
  each call on the motion of the next seed, as the benchmark varies it:
  how many components need extended precision depends on the data.

Prints, per scenario, each side's median and quartiles in ms, the
median over rounds of the change's time over the parent's, and in how
many rounds the change was faster.  That count is the one a gain claim
is judged by (``tools/ab.py``'s rule wants at least 9 of every 10 pairs
won), since a median ratio can move with a few slow rounds.  It also
prints each side's tracemalloc peak from one more call, untimed, after
the rounds, so that a change to what a run holds can be compared in
one process, free of the heap-layout noise of ``peak_rss_mb``; and for
``gradcheck-tiny`` each side's median replay passes and calls of
``f()`` per ``grad_check``, from its reports.  The two calls of a round run on the same host state and the same data, so that
ratio is steadier than the ratio of two benchmark runs.  Each side
reads its topologies from its own checkout's files, so a checkout
whose ``builtin_topology`` reads another package's data runs too.
Nothing under ``benchmarks/`` is imported.  From the repository root::

    python3 tools/interleave.py --parent ../sthrn-parent --change . --rounds 20
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

SCENARIOS = ("train-human", "train-fork7-tiny", "predict-human", "gradcheck-tiny")
GRADCHECK_LEAVES = ("enc.gate.gs.gs", "enc.gt.w_f", "enc.gs.w_f", "enc.gs.z_o",
                    "dec.spine.b", "dec.proj.1.w")


def load(checkout: Path, name: str):
    """``checkout``'s ``src/sthrn`` imported as the package ``name``."""
    src = checkout / "src" / "sthrn"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def scenarios(pkg, checkout: Path) -> dict:
    """Scenario name -> a call that runs it once on ``pkg``."""
    def topology(name):
        return pkg.load_topology(checkout / "src" / "sthrn" / "data" / f"{name}.topo")

    human, fork7 = topology("human"), topology("fork7")
    human_layout = pkg.ChainLayout.from_topology(human)
    fork7_layout = pkg.ChainLayout.from_topology(fork7)
    default, tiny = pkg.ModelConfig(), pkg.ModelConfig(hidden_size=6, layers=2)

    def trainer(topo, layout, model, config):
        seqs = [pkg.synth_motion("sinusoid", 200, topo, seed=3)]
        theta = pkg.bone_weights(topo.entry_lengths())
        params = pkg.ModelParams.init(model, layout, seed=7)
        return lambda: pkg.train(seqs, layout, theta, model, config, params=params)

    predict_params = pkg.ModelParams.init(default, human_layout, seed=7)
    observed = pkg.synth_motion("sinusoid", 50, human, seed=9).frames
    check_params = pkg.ModelParams.init(tiny, fork7_layout, seed=7)
    leaves = {n: check_params.named()[n] for n in GRADCHECK_LEAVES}
    theta = pkg.bone_weights(fork7.entry_lengths())
    seeds = itertools.count()

    def check():
        frames = pkg.synth_motion("sinusoid", 9, fork7, seed=next(seeds)).frames

        def loss():
            outs = pkg.forward(check_params, tiny, fork7_layout, frames[:6], 3)
            return pkg.weighted_loss(pkg.model.frames_tensor(outs, fork7_layout.num_entries),
                                     frames[6:9], theta)

        return pkg.grad_check(loss, leaves)

    return {
        "train-human": trainer(human, human_layout, default,
                               pkg.TrainConfig(iterations=1, batch_size=4, seed=2)),
        "train-fork7-tiny": trainer(fork7, fork7_layout, tiny, pkg.TrainConfig(
            iterations=5, batch_size=16, learning_rate=5e-3, observed=10, horizon=10,
            seed=2)),
        "predict-human": lambda: pkg.predict(predict_params, default, human_layout, observed, 25),
        "gradcheck-tiny": check,
    }


def traced_peak_mb(call) -> float:
    """The peak MB that one ``call()`` held allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    ap.add_argument("--change", required=True, type=Path, help="checkout under test")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--scenario", action="append", choices=SCENARIOS,
                    help="run only this scenario (repeatable)")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    sides = {}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        checkout = checkout.resolve()
        if not (checkout / "src" / "sthrn" / "__init__.py").is_file():
            ap.error(f"{checkout} has no src/sthrn package")
        sides[side] = scenarios(load(checkout, f"sthrn_{side}"), checkout)
    for name in args.scenario or SCENARIOS:
        times = {side: [] for side in sides}
        reports = {side: [] for side in sides}
        for calls in sides.values():  # warm-up
            calls[name]()
        for r in range(args.rounds):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                t0 = time.perf_counter()
                result = sides[side][name]()
                times[side].append((time.perf_counter() - t0) * 1e3)
                reports[side].append(result)
        peaks = {side: traced_peak_mb(calls[name]) for side, calls in sides.items()}
        (p1, pm, p3), (c1, cm, c3) = quartiles(times["parent"]), quartiles(times["change"])
        ratio = statistics.median(c / p for p, c in zip(times["parent"], times["change"]))
        faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
        counts = "".join(
            f"  {side} {statistics.median(r.passes for r in runs):g} passes, "
            f"{statistics.median(r.forward_calls for r in runs):g} calls of f()"
            for side, runs in reports.items()) if name == "gradcheck-tiny" else ""
        print(f"{name:17s} parent {pm:9.2f} ms [{p1:.2f}, {p3:.2f}]  "
              f"change {cm:9.2f} ms [{c1:.2f}, {c3:.2f}]  ratio {ratio:.3f}  "
              f"faster in {faster} of {args.rounds} rounds  traced peak parent {peaks['parent']:.1f} MB, "
              f"change {peaks['change']:.1f} MB{counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
