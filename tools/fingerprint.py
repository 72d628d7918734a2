"""Print one ``case sha256`` line per deterministic output of ``sthrn``.

A change that promises bit-identical outputs runs this script against
both checkouts and compares the lines.  The cases are:

- ``train/<topology>/<decoder>/<feeding>/<loss>``: 4 iterations of
  ``train()`` at batch 3 on human, fork7 and chain3 (hidden 5, 3
  layers), with the structured and plain decoders, free-running and
  teacher-forced, and the weighted and l2 losses; ``/losses`` hashes
  every loss, ``/params`` every parameter and ``/checkpoint`` the
  ``save_checkpoint`` bytes with the Adam moments;
- ``train/<topology>/no-global-temporal`` and ``.../no-global-spatial``:
  the same runs' losses and parameters with one global state ablated
  (criterion 9's switches; structured decoder, free-running, weighted);
- ``windows/draw``: 40 windows of 10 frames that ``sample_windows``
  draws from fork7 sequences of 30, 12 and 50 frames (a checkout from
  before the batch draw prints ``absent``);
- ``encode/fork7-tiny`` and ``encode/human``: the six states of a
  value-only ``encode`` of two fixed 8-frame windows at once, under the
  criterion-4 config (fork7, hidden 6, 2 layers) and the default human
  config;
- ``criterion-4/loss`` and ``criterion-4/grad/<leaf>``: the taped
  weighted loss of the criterion-4 fixture (fork7, hidden 6, 2 layers,
  6 observed frames, horizon 3) and every leaf gradient ``backward``
  leaves on it;
- ``gradcheck-tiny``: the full ``grad_check`` report on that fixture's
  gradcheck-tiny leaf set (the benchmark workload's six leaves), and
  ``gradcheck-tiny/<ablation>`` the same for each of criterion 9's
  configs (no-global-temporal, no-global-spatial, plain-decoder) on the
  leaves of that set the config has;
- ``wrap/loss``, ``wrap/grad/<leaf>`` and ``wrap/gradcheck``: the same
  for the criterion-4 fixture with its head biases raised so that the
  decoder wraps entries past pi at two of its three steps (WRAP_BIASES),
  the report on the head and decoder-bias leaves (WRAP_LEAVES);
- ``predict/human``: value-only ``predict`` of 25 frames from 50 by the
  default human model;
- ``eval/mae/<fps>`` and ``eval/zero-velocity``: ``mae`` of a fixed
  perturbed human prediction at 25 and 50 fps, and the zero-velocity
  baseline of 25 frames after 10;
- ``motion/save/lie`` and ``motion/save/joints``: the ``save_motion``
  bytes of a human Lie sequence and of its joint positions;
- ``plot/svg``: ``sthrn.cli.render_svg`` of the poses of three of those
  frames;
- ``preprocess/lie`` and ``preprocess/lengths``: the Lie file and lengths
  sidecar that ``sthrn preprocess`` writes for that joints file, and
  ``plot/cli-svg`` the SVG that ``sthrn plot`` draws of every third frame
  of that Lie file, both run through ``sthrn.cli.main``.

A report hashes its error, per-leaf errors, skipped components and the
count of components refined in extended precision, not its cost
counters.  Only the package's public API is used, so the same script runs against
an older checkout.  From the repository root, with the parent commit in
a worktree::

    git worktree add ../sthrn-parent HEAD~1
    PYTHONPATH=../sthrn-parent/src python3 tools/fingerprint.py > parent.txt
    PYTHONPATH=src python3 tools/fingerprint.py > change.txt
    diff parent.txt change.txt && echo identical
    git worktree remove ../sthrn-parent

It takes about 5 s on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from importlib import resources

import numpy as np

import sthrn
from sthrn.cli import main as cli_main, render_svg
from sthrn.model import frames_tensor

# benchmarks/workloads.py GRADCHECK_LEAVES
GRADCHECK_LEAVES = ("enc.gate.gs.gs", "enc.gt.w_f", "enc.gs.w_f", "enc.gs.z_o",
                    "dec.spine.b", "dec.proj.1.w")


# Head biases of the wrap fixture: step 2 wraps entry 0 (norm 3.94) and
# step 3 entry 2 (4.12); no entry comes within 0.48 of pi.
WRAP_BIASES = {"dec.proj.0.b": [1.8, 0.3, 0.3, 0.2, 0.3, 0.2],
               "dec.proj.1.b": [1.4, 0.3, 0.3, 0.2, 0.3, 0.2]}
WRAP_LEAVES = ("dec.proj.0.w", "dec.proj.0.b", "dec.proj.1.w", "dec.proj.1.b",
               "dec.spine.b", "enc.gs.z_o")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
    return h.hexdigest()


def array_digest(named: dict[str, np.ndarray]) -> str:
    return digest(*(x for name, a in named.items()
                    for x in (name, a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())))


def train_cases(workdir: str):
    for topo_name in ("human", "fork7", "chain3"):
        topo = sthrn.builtin_topology(topo_name)
        layout = sthrn.ChainLayout.from_topology(topo)
        theta = sthrn.bone_weights(topo.entry_lengths())
        seqs = [sthrn.synth_motion("sinusoid", 70, topo, seed=s) for s in (3, 4)]
        for decoder in ("structured", "plain"):
            model = sthrn.ModelConfig(hidden_size=5, layers=3, decoder=decoder)
            for forcing in (False, True):
                for loss in ("weighted", "l2"):
                    config = sthrn.TrainConfig(iterations=4, batch_size=3, loss=loss,
                                               teacher_forcing=forcing, seed=11)
                    result = sthrn.train(seqs, layout, theta, model, config)
                    path = os.path.join(workdir, "fingerprint.ckpt")
                    sthrn.save_checkpoint(path, result.params, model, layout,
                                          iteration=4, adam=result.adam)
                    with open(path, "rb") as fh:
                        blob = fh.read()
                    case = (f"train/{topo_name}/{decoder}/"
                            f"{'forced' if forcing else 'free'}/{loss}")
                    yield f"{case}/losses", digest(*(m[1] for m in result.metrics))
                    yield f"{case}/params", array_digest(
                        {n: t.data for n, t in result.params.named().items()})
                    yield f"{case}/checkpoint", digest(blob)
        for ablated in ("global_temporal", "global_spatial"):
            model = sthrn.ModelConfig(hidden_size=5, layers=3, **{ablated: False})
            config = sthrn.TrainConfig(iterations=4, batch_size=3, seed=11)
            result = sthrn.train(seqs, layout, theta, model, config)
            case = f"train/{topo_name}/no-{ablated.replace('_', '-')}"
            yield f"{case}/losses", digest(*(m[1] for m in result.metrics))
            yield f"{case}/params", array_digest(
                {n: t.data for n, t in result.params.named().items()})


def draw_cases():
    topo = sthrn.builtin_topology("fork7")
    seqs = [sthrn.synth_motion("sinusoid", frames, topo, seed=s)
            for s, frames in ((1, 30), (2, 12), (3, 50))]
    try:
        batch = sthrn.sample_windows(seqs, 10, 40, np.random.default_rng(17))
    except TypeError:  # the per-sequence sampler: sequence, observed, horizon, count, rng
        yield "windows/draw", "absent"
        return
    yield "windows/draw", array_digest({"batch": batch})


def encode_cases():
    for case, topo_name, config in (
            ("encode/fork7-tiny", "fork7", sthrn.ModelConfig(hidden_size=6, layers=2)),
            ("encode/human", "human", sthrn.ModelConfig())):
        topo = sthrn.builtin_topology(topo_name)
        layout = sthrn.ChainLayout.from_topology(topo)
        params = sthrn.ModelParams.init(config, layout, seed=7)
        frames = sthrn.synth_motion("sinusoid", 12, topo, seed=19).frames
        with sthrn.no_grad():
            state = sthrn.encode(np.stack([frames[:8], frames[4:]]), params.named(), layout,
                                 config.layers, config.global_temporal, config.global_spatial)
        yield case, array_digest({field: getattr(state, field).data
                                  for field in ("h", "c", "g_t", "c_gt", "g_s", "c_gs")})


# criterion 9's configs, by the name the acceptance test gives them
ABLATIONS = {"no-global-temporal": {"global_temporal": False},
             "no-global-spatial": {"global_spatial": False},
             "plain-decoder": {"decoder": "plain"}}


def criterion_4_fixture(frames: np.ndarray, **switches):
    topo = sthrn.builtin_topology("fork7")
    layout = sthrn.ChainLayout.from_topology(topo)
    config = sthrn.ModelConfig(hidden_size=6, layers=2, **switches)
    params = sthrn.ModelParams.init(config, layout, seed=7)
    theta = sthrn.bone_weights(topo.entry_lengths())
    k = layout.num_entries

    def loss():
        outs = sthrn.forward(params, config, layout, frames[:6], 3)
        return sthrn.weighted_loss(frames_tensor(outs, k), frames[6:9], theta)

    return loss, params.named()


def report_digest(report) -> str:
    return digest(report.max_rel_error, sorted(report.per_leaf.items()), report.skipped,
                  report.refined)


def loss_cases(case: str, loss, named):
    root = loss()
    sthrn.backward(root, leaves=named.values())
    yield f"{case}/loss", array_digest({"loss": root.data})
    for name, t in named.items():
        yield f"{case}/grad/{name}", array_digest({name: t.grad})


def gradient_cases():
    topo = sthrn.builtin_topology("fork7")
    frames = sthrn.synth_motion("sinusoid", 9, topo, seed=3).frames
    yield from loss_cases("criterion-4", *criterion_4_fixture(frames))

    gradcheck_frames = sthrn.synth_motion("sinusoid", 9, topo, seed=5).frames
    loss, named = criterion_4_fixture(gradcheck_frames)
    yield "gradcheck-tiny", report_digest(
        sthrn.grad_check(loss, {n: named[n] for n in GRADCHECK_LEAVES}))
    for ablation, switches in ABLATIONS.items():
        loss, named = criterion_4_fixture(gradcheck_frames, **switches)
        yield f"gradcheck-tiny/{ablation}", report_digest(
            sthrn.grad_check(loss, {n: named[n] for n in GRADCHECK_LEAVES if n in named}))

    loss, named = criterion_4_fixture(frames)
    for name, bias in WRAP_BIASES.items():
        named[name].data[...] = bias
    yield from loss_cases("wrap", loss, named)
    yield "wrap/gradcheck", report_digest(
        sthrn.grad_check(loss, {n: named[n] for n in WRAP_LEAVES}))


def predict_cases():
    topo = sthrn.builtin_topology("human")
    layout = sthrn.ChainLayout.from_topology(topo)
    config = sthrn.ModelConfig()
    params = sthrn.ModelParams.init(config, layout, seed=7)
    observed = sthrn.synth_motion("sinusoid", 50, topo, seed=9).frames
    yield "predict/human", array_digest(
        {"frames": sthrn.predict(params, config, layout, observed, 25)})


def io_cases(workdir: str):
    topo = sthrn.builtin_topology("human")
    seq = sthrn.synth_motion("sinusoid", 40, topo, seed=13)
    pred = seq.frames[10:35] + 0.01 * np.random.default_rng(14).normal(size=(25, 12, 3))
    for fps in (25.0, 50.0):
        yield f"eval/mae/{fps:g}", digest(sorted(sthrn.mae(pred, seq.frames[15:40],
                                                            fps=fps).items()))
    yield "eval/zero-velocity", array_digest(
        {"frames": sthrn.zero_velocity(seq.frames[:10], 25)})
    root = sthrn.RootConfig.canonical(topo)
    poses = np.stack([sthrn.lie_to_pose(w, topo, root) for w in seq.frames])
    for kind, frames in (("lie", seq.frames), ("joints", poses)):
        path = os.path.join(workdir, f"fingerprint.{kind}")
        sthrn.save_motion(path, sthrn.MotionSequence(fps=seq.fps, frames=frames, kind=kind))
        with open(path, "rb") as fh:
            yield f"motion/save/{kind}", digest(fh.read())
    yield "plot/svg", digest(render_svg([poses[0], poses[12], poses[39]], topo))
    yield from cli_cases(workdir, os.path.join(workdir, "fingerprint.joints"))


def cli_cases(workdir: str, joints: str):
    out = {case: os.path.join(workdir, case.replace("/", ".")) for case in
           ("preprocess/lie", "preprocess/lengths", "plot/cli-svg")}
    with resources.as_file(resources.files("sthrn") / "data" / "human.topo") as topo, \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["preprocess", "--in", joints, "--topology", str(topo),
                         "--out", out["preprocess/lie"],
                         "--lengths-out", out["preprocess/lengths"]]) == 0
        assert cli_main(["plot", "--data", out["preprocess/lie"], "--topology", str(topo),
                         "--frames", "0:40:3", "--out", out["plot/cli-svg"]]) == 0
    for case, path in out.items():
        with open(path, "rb") as fh:
            yield case, digest(fh.read())


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for cases in (train_cases(workdir), draw_cases(), encode_cases(), gradient_cases(),
                      predict_cases(), io_cases(workdir)):
            for case, sha in cases:
                print(case, sha, flush=True)


if __name__ == "__main__":
    main()
