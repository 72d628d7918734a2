"""The four benchmark workloads.

Each workload is driven closed-loop by one caller: the next call into
``sthrn`` starts only after the previous one returned.  The workload
seed only generates the synthetic motion handed to the package; model
initialisation and the training RNG use fixed seeds, as the acceptance
tests do, so that runs on different seeds differ in their data alone.

Untraced runs call only the package's public functions (``sthrn.train``,
``sthrn.predict``, ``sthrn.grad_check``, ``sthrn.save_checkpoint`` /
``sthrn.load_checkpoint``, ``sthrn.forward`` and ``sthrn.weighted_loss``
for the checked loss, and ``sthrn.model.frames_tensor``), always looked
up on the module at call time so the tracer can wrap them.

A run is a sequence of timed blocks of about a second each (one train
chunk, one ``grad_check`` call, or predict calls until a second has
passed), with a host-speed sample (``hostspeed.HostSpeed``) between
consecutive blocks.  On interpreter-bound workloads each block's times
are scaled to the reference host speed by the samples nearest to it.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
import sthrn
import sthrn.model

from hostspeed import HostSpeed
from tracing import CALL_SPAN

INIT_SEED = 7          # model initialisation, as in the acceptance fixtures
TRAIN_SEED = 2         # window sampling inside train(), as in criterion 7
TINY = sthrn.ModelConfig(hidden_size=6, layers=2)


@dataclass
class Pass:
    """What one timed pass did and produced."""

    calls: int = 0                 # train chunks, predict calls or grad_check calls
    items: int = 0                 # windows, sequences or components
    attempted: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    latency_blocks: list[int] = field(default_factory=list)   # block of each latency
    blocks: list[tuple[int, float]] = field(default_factory=list)  # items, seconds
    factors: list[float] = field(default_factory=list)        # host speed per block
    outputs: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def wall_s(self) -> float:
        """Timed seconds, host-speed samples excluded."""
        return sum(s for _, s in self.blocks)

    @property
    def norm_wall_s(self) -> float:
        return sum(s / f for (_, s), f in zip(self.blocks, self.factors))

    def items_per_s(self) -> float:
        return self.items / self.wall_s if self.wall_s else 0.0

    def norm_items_per_s(self) -> float:
        """Median over blocks of the block's rate at reference host speed."""
        rates = [n * f / s for (n, s), f in zip(self.blocks, self.factors) if s > 0]
        return statistics.median(rates) if rates else 0.0

    def norm_latency_p50_ms(self) -> float:
        scaled = [ms / self.factors[b] for ms, b in zip(self.latencies_ms, self.latency_blocks)]
        return statistics.median(scaled) if scaled else 0.0


def _motion_seed(seed) -> int:
    """A synth_motion seed drawn from the workload seed (an int or a list)."""
    return int(np.random.default_rng(seed).integers(0, 2**31 - 1))


def _until(deadline: float, done: int, minimum: int, count: int | None) -> bool:
    if count is not None:
        return done < count
    return done < minimum or time.perf_counter() < deadline


class Workload:
    """Timed blocks of calls with host-speed samples between them.

    ``host_scaled`` workloads are interpreter-bound: their times are
    scaled to the reference host speed.  The others are bound by BLAS
    and memory bandwidth, which the kernel does not track (after their
    blocks its samples scatter by ~18 % while the blocks themselves vary
    by 2 %); their factors are 1 and their times are as measured.
    """

    host_scaled = False

    def __init__(self):
        self.host = HostSpeed()

    def begin(self, out: Pass, tracer) -> None:
        pass

    def end(self, out: Pass) -> None:
        pass

    def run(self, seconds: float, count: int | None = None, minimum: int = 1,
            tracer=None) -> Pass:
        out = Pass()
        self.begin(out, tracer)
        deadline = time.perf_counter() + seconds

        def more() -> bool:
            return _until(deadline, out.calls, minimum, count)

        samples = [self.host.sample()]
        while more():
            items, calls = out.items, len(out.latencies_ms)
            t0 = time.perf_counter()
            self.block(out, tracer, more)
            wall = time.perf_counter() - t0
            samples.append(self.host.sample())
            out.latency_blocks += [len(out.blocks)] * (len(out.latencies_ms) - calls)
            out.blocks.append((out.items - items, wall))
        if self.host_scaled:
            out.factors = self.host.factors(samples, len(out.blocks))
        else:
            out.factors = [1.0] * len(out.blocks)
        self.end(out)
        return out


class TrainWorkload(Workload):
    """Closed-loop ``sthrn.train`` on one synthetic sinusoid sequence.

    A run is a chain of ``train()`` calls of ``chunk_iters`` iterations
    each (a host-speed sample between chunks), carrying the params from
    one chunk to the next; ``train()`` starts a fresh Adam state on every
    call, and chunk ``j`` samples its windows with seed ``TRAIN_SEED +
    j``.  A run makes at least ``loss_iters`` iterations: ``loss_final``
    is the mean loss of iterations ``loss_iters - 10 .. loss_iters - 1``
    (or of all of them, if fewer), which the seed fixes because the
    chunk sizes are fixed.
    """

    item = "window"

    def __init__(self, topology: str, model: sthrn.ModelConfig,
                 train: sthrn.TrainConfig, chunk_iters: int, loss_iters: int,
                 host_scaled: bool):
        super().__init__()
        self.host_scaled = host_scaled
        self.topology = topology
        self.model = model
        self.train_config = train
        self.chunk_iters = chunk_iters
        self.loss_iters = loss_iters
        self.min_calls = math.ceil(loss_iters / chunk_iters)

    def generate(self, seed: int, out_dir: str) -> None:
        self.motion_seed = _motion_seed(seed)

    def build(self) -> None:
        topo = sthrn.builtin_topology(self.topology)
        self.layout = sthrn.ChainLayout.from_topology(topo)
        self.theta = sthrn.bone_weights(topo.entry_lengths())
        self.sequences = [sthrn.synth_motion("sinusoid", 200, topo, seed=self.motion_seed)]
        self.params = self.fresh_params()

    def fresh_params(self) -> sthrn.ModelParams:
        return sthrn.ModelParams.init(self.model, self.layout, seed=INIT_SEED)

    def _train(self, params, chunk: int):
        config = replace(self.train_config, iterations=self.chunk_iters,
                         seed=self.train_config.seed + chunk)
        return sthrn.train(self.sequences, self.layout, self.theta, self.model,
                           config, params=params)

    def warm_up(self, check: Pass) -> None:
        # The first chunk of a process pays its page faults.
        result = self._train(self.params, 0)
        self.warm_losses = [loss for _, loss, _ in result.metrics]

    def begin(self, out: Pass, tracer) -> None:
        self.run_params = self.fresh_params()
        if tracer:
            tracer.set_params(self.run_params.named())

    def block(self, out: Pass, tracer, more) -> None:
        j = out.calls
        n = self.chunk_iters
        out.calls += 1
        out.attempted += n
        # Iteration ids continue across chunks (the tracer counts Adam steps).
        scope = tracer.span(CALL_SPAN, call_id=0 if j == 0 else None) if tracer \
            else nullcontext()
        try:
            with scope:
                result = self._train(self.run_params, j)
        except Exception as exc:  # a failed call counts its iterations as failed
            out.fail(n, f"chunk {j}: train raised {type(exc).__name__}: {exc}")
            return
        losses = [loss for _, loss, _ in result.metrics]
        out.outputs.extend(losses)
        out.latencies_ms.extend(ms for _, _, ms in result.metrics)
        bad = sum(1 for loss in losses if not math.isfinite(loss))
        if bad:
            out.fail(bad, f"chunk {j}: {bad} non-finite losses")
        if len(losses) != n:
            out.fail(abs(n - len(losses)), f"chunk {j}: train ran {len(losses)} of {n} "
                     "iterations")
        if j == 0 and losses != self.warm_losses:
            out.fail(n, "the same seed gave a different loss curve than the warm-up")
        out.items += (len(losses) - bad) * self.train_config.batch_size

    def named_metrics(self, p: Pass) -> dict[str, tuple[float, str]]:
        tail = p.outputs[max(0, self.loss_iters - 10):self.loss_iters]
        return {
            "train_windows_per_s": (p.items_per_s(), "1/s"),
            "train_iteration_p50_ms": (float(np.median(p.latencies_ms or [0.0])), "ms"),
            "loss_final": (float(np.mean(tail)) if tail else float("nan"), "loss"),
        }


class PredictWorkload(Workload):
    """Value-only ``sthrn.predict`` on sliding windows of a held-out sequence.

    The model is a seeded default human model saved to a checkpoint
    while the inputs are generated; set-up loads it back.
    """

    item = "sequence"
    observed = 50
    horizon = 25          # 1000 ms at 25 fps
    frames = 400
    stride = 7
    min_calls = 200       # p95 then has at least 10 samples beyond it
    block_s = 1.0

    def generate(self, seed: int, out_dir: str) -> None:
        self.motion_seed = _motion_seed(seed)
        config = sthrn.ModelConfig()
        layout = sthrn.ChainLayout.from_topology(sthrn.builtin_topology("human"))
        self.reference = sthrn.ModelParams.init(config, layout, seed=INIT_SEED)
        self.path = os.path.join(out_dir, f"predict-human-{os.getpid()}.ckpt")
        sthrn.save_checkpoint(self.path, self.reference, config, layout)

    def cleanup(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)

    def build(self) -> None:
        topo = sthrn.builtin_topology("human")
        self.sequence = sthrn.synth_motion("sinusoid", self.frames, topo,
                                           seed=self.motion_seed).frames
        ckpt = sthrn.load_checkpoint(self.path)
        self.params, self.model, self.layout = ckpt.params, ckpt.config, ckpt.layout

    def window(self, i: int) -> np.ndarray:
        starts = self.frames - self.observed + 1
        s = (i * self.stride) % starts
        return self.sequence[s:s + self.observed]

    def _predict(self, params, i: int) -> np.ndarray:
        return sthrn.predict(params, self.model, self.layout, self.window(i), self.horizon)

    def warm_up(self, check: Pass) -> None:
        for i in range(3):
            loaded = self._predict(self.params, i)
            reference = self._predict(self.reference, i)
            check.attempted += 1
            if not np.array_equal(loaded, reference):
                check.fail(1, f"window {i}: reloaded checkpoint predicts differently")

    def block(self, out: Pass, tracer, more) -> None:
        shape = (self.horizon, self.layout.num_entries, 3)
        stop = time.perf_counter() + self.block_s
        while True:
            i = out.calls
            out.calls += 1
            out.attempted += 1
            scope = tracer.span(CALL_SPAN, call_id=i) if tracer else nullcontext()
            t0 = time.perf_counter()
            try:
                with scope:
                    pred = self._predict(self.params, i)
            except Exception as exc:
                out.fail(1, f"call {i}: predict raised {type(exc).__name__}: {exc}")
                out.outputs.append(None)
            else:
                out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                out.outputs.append(pred)
                if pred.shape != shape or not np.all(np.isfinite(pred)):
                    out.fail(1, f"call {i}: prediction has shape {pred.shape} "
                             "or is not finite")
                else:
                    out.items += 1
            if time.perf_counter() >= stop or not more():
                return

    def named_metrics(self, p: Pass) -> dict[str, tuple[float, str]]:
        lat = p.latencies_ms or [0.0]
        return {
            "predict_p50_ms": (float(np.percentile(lat, 50)), "ms"),
            "predict_p95_ms": (float(np.percentile(lat, 95)), "ms"),
            "predict_seqs_per_s": (p.items_per_s(), "1/s"),
            "predict_calls": (float(len(p.latencies_ms)), "count"),
        }


# Leaves checked by each grad_check call of gradcheck-tiny: 384 of the
# 18,216 components, so that a call takes about 1.5 s and a run holds
# more than ten of them.  The subset keeps an encoder gate,
# global-temporal and global-spatial state, decoder-cell (a bias: the
# decoder weights alone are 15,000 components) and head leaves.  The
# global-spatial state leaves are the ones whose small gradients most
# often need extended-precision refinement.  The head leaf is a
# projection weight, not a bias: a bias shifts a predicted entry by the
# whole step, and where that entry lies within ~1e-3 of its target the
# loss's L2 norm is near its kink, so the step-1e-5 central difference
# is off by its O(step^2) truncation error (2.1e-4 for dec.proj.1.b on
# window 16 of seed 24, 2.1e-6 at step 1e-6: the tape gradient is
# right).  That happened on 1 of 400 windows for the head biases and on
# none of 300 for dec.proj.1.w (worst 2.0e-5).
GRADCHECK_LEAVES = (
    "enc.gate.gs.gs", "enc.gt.w_f", "enc.gs.w_f", "enc.gs.z_o",
    "dec.spine.b", "dec.proj.1.w",
)


class GradCheckWorkload(Workload):
    """Closed-loop ``sthrn.grad_check`` on the criterion-4 fixture.

    fork7, hidden 6, 2 layers, 5 encoder frames and horizon 3.  Every
    call checks the same leaf subset (GRADCHECK_LEAVES) on its own 9
    seeded motion frames: whether any component needs refinement
    depends on the data, and one run should see several cases.
    """

    item = "component"
    host_scaled = True
    max_rel_error = 1e-4
    min_calls = 3

    def generate(self, seed: int, out_dir: str) -> None:
        self.seed = seed

    def motion(self, i: int) -> np.ndarray:
        return sthrn.synth_motion("sinusoid", 9, self.topo,
                                  seed=_motion_seed([self.seed, i])).frames

    def build(self) -> None:
        self.topo = sthrn.builtin_topology("fork7")
        layout = sthrn.ChainLayout.from_topology(self.topo)
        params = sthrn.ModelParams.init(TINY, layout, seed=INIT_SEED)
        theta = sthrn.bone_weights(self.topo.entry_lengths())
        k = layout.num_entries
        self.frames = self.motion(0)
        self.refined_calls = 0

        def loss():
            outs = sthrn.forward(params, TINY, layout, self.frames[:6], 3)
            out = sthrn.weighted_loss(sthrn.model.frames_tensor(outs, k),
                                      self.frames[6:9], theta)
            if out.data.dtype == np.longdouble:
                self.refined_calls += 1
            return out

        self.loss = loss
        self.params = params
        named = params.named()
        self.leaves = {name: named[name] for name in GRADCHECK_LEAVES}
        self.components = sum(t.data.size for t in self.leaves.values())

    def warm_up(self, check: Pass) -> None:
        sthrn.grad_check(self.loss, {"enc.gt.w_f": self.leaves["enc.gt.w_f"]})

    def begin(self, out: Pass, tracer) -> None:
        self.f = tracer.wrap_probe(self.loss) if tracer else self.loss
        self.refined = 0

    def block(self, out: Pass, tracer, more) -> None:
        i = out.calls
        out.calls += 1
        out.attempted += self.components
        self.frames = self.motion(i)
        self.refined_calls = 0
        scope = tracer.span(CALL_SPAN, call_id=i) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                report = sthrn.grad_check(self.f, self.leaves, step=1e-5)
        except Exception as exc:
            out.fail(self.components, f"call {i}: grad_check raised "
                     f"{type(exc).__name__}: {exc}")
            out.outputs.append(None)
            return
        out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        self.refined += self.refined_calls // 2
        out.outputs.append((report.max_rel_error, dict(report.per_leaf),
                            list(report.skipped), self.refined_calls // 2))
        if not report.max_rel_error < self.max_rel_error:
            bad = sum(self.leaves[n].data.size for n, e in report.per_leaf.items()
                      if not e < self.max_rel_error)
            out.fail(max(bad, 1), f"call {i}: max_rel_error {report.max_rel_error!r}")
        elif report.skipped:
            out.fail(len(report.skipped), f"call {i}: {len(report.skipped)} skipped")
        else:
            out.items += self.components

    def end(self, out: Pass) -> None:
        if out.calls and self.refined == 0:
            out.fail(out.items, "no component needed extended-precision refinement")

    def named_metrics(self, p: Pass) -> dict[str, tuple[float, str]]:
        refined = [o[3] for o in p.outputs if o is not None]
        return {
            "gradcheck_components_per_s": (p.items_per_s(), "1/s"),
            "gradcheck_call_p50_ms": (float(np.median(p.latencies_ms or [0.0])), "ms"),
            "gradcheck_refined_per_call": (float(np.mean(refined or [0])), "count"),
        }


def make(name: str):
    if name == "train-human":
        return TrainWorkload("human", sthrn.ModelConfig(),
                             sthrn.TrainConfig(batch_size=4, seed=TRAIN_SEED),
                             chunk_iters=2, loss_iters=6, host_scaled=False)
    if name == "train-fork7-tiny":
        return TrainWorkload("fork7", TINY,
                             sthrn.TrainConfig(batch_size=16, learning_rate=5e-3,
                                               observed=10, horizon=10, seed=TRAIN_SEED),
                             chunk_iters=4, loss_iters=40, host_scaled=True)
    if name == "predict-human":
        return PredictWorkload()
    if name == "gradcheck-tiny":
        return GradCheckWorkload()
    raise KeyError(name)
