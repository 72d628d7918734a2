"""End-to-end command tests: every subcommand runs in a temp dir."""

import json
import struct

import numpy as np
import pytest

from sthrn.cli import _parse_frames, _resolve_seed, build_configs, main, parse_config_file
from sthrn.encoder import ChainLayout
from sthrn.evaluation import read_report
from sthrn.skeleton import (
    MotionSequence,
    ParseError,
    RootConfig,
    ValidationError,
    builtin_topology,
    lie_to_pose,
    load_motion,
    save_motion,
    save_topology,
    synth_motion,
)
from sthrn.model import ModelConfig, ModelParams
from sthrn.training import TrainConfig, load_checkpoint, save_checkpoint


def topo_file(tmp_path, name="fork7"):
    path = tmp_path / f"{name}.topo"
    save_topology(path, builtin_topology(name))
    return str(path)


def lie_file(tmp_path, name, frames=80, seed=5, topo_name="fork7", fps=25.0):
    topo = builtin_topology(topo_name)
    seq = synth_motion("sinusoid", frames, topo, seed=seed, fps=fps)
    path = tmp_path / name
    save_motion(path, seq)
    return str(path)


def joints_file(tmp_path, name, frames=20, fps=50.0):
    topo = builtin_topology("fork7")
    seq = synth_motion("sinusoid", frames, topo, seed=9, fps=fps)
    root = RootConfig.canonical(topo)
    poses = np.stack([lie_to_pose(w, topo, root) for w in seq.frames], axis=0)
    path = tmp_path / name
    save_motion(path, MotionSequence(fps=fps, frames=poses, kind="joints"))
    return str(path)


def write_config(tmp_path, text, name="train.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY = """\
# small enough to train in well under a second
hidden_size = 4
layers = 1
iterations = 3
batch_size = 2
observed = 6
horizon = 2
learning_rate = 0.001
"""


# -- preprocess ---------------------------------------------------------------


def test_preprocess_converts_and_resamples(tmp_path, capsys):
    raw = joints_file(tmp_path, "raw.txt", frames=20, fps=50.0)
    topo = topo_file(tmp_path)
    out = tmp_path / "motion.lie"
    rc = main(["preprocess", "--in", raw, "--topology", topo,
               "--fps", "25", "--out", str(out)])
    assert rc == 0
    seq = load_motion(out)
    assert seq.kind == "lie"
    assert seq.fps == 25.0
    assert seq.frames.shape == (10, 4, 3)
    sidecar = (tmp_path / "motion.lie.lengths").read_text().splitlines()
    parsed = [line.split() for line in sidecar if not line.startswith("#")]
    assert len(parsed) == 6  # one line per bone, not per rotation entry
    for _, value in parsed:
        assert float(value) > 0.0
    assert "wrote 10 frames" in capsys.readouterr().out


def test_preprocess_rejects_lie_input(tmp_path, capsys):
    data = lie_file(tmp_path, "already.lie")
    rc = main(["preprocess", "--in", data, "--topology", topo_file(tmp_path),
               "--out", str(tmp_path / "x.lie")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_preprocess_refuses_non_finite_positions_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    seq = load_motion(joints_file(tmp_path, "good.txt"))
    frames = seq.frames.copy()
    frames[4, 3, 1] = np.nan
    frames[7, 0, 0] = np.inf
    save_motion(raw, MotionSequence(fps=seq.fps, frames=frames, kind="joints"))
    out = tmp_path / "motion.lie"
    rc = main(["preprocess", "--in", str(raw), "--topology", topo_file(tmp_path),
               "--out", str(out)])
    assert rc == 2
    assert f"error: {raw}: frame 4 is not finite" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "motion.lie.lengths").exists()


# -- train / predict / eval / plot pipeline -----------------------------------


def test_full_pipeline(tmp_path, capsys):
    topo = topo_file(tmp_path)
    data = lie_file(tmp_path, "train.lie")
    config = write_config(tmp_path, TINY)
    ckpt = str(tmp_path / "model.ckpt")
    metrics = str(tmp_path / "metrics.csv")

    rc = main(["train", "--data", data, "--config", config, "--topology", topo,
               "--out-checkpoint", ckpt, "--metrics", metrics, "--seed", "1"])
    assert rc == 0
    assert "trained 3 iterations" in capsys.readouterr().out
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss,wallclock_ms"
    assert len(lines) == 4

    loaded = load_checkpoint(ckpt)
    assert loaded.iteration == 3
    assert loaded.config.hidden_size == 4

    obs = lie_file(tmp_path, "observed.lie", frames=10, seed=11)
    pred_a = tmp_path / "pred_a.lie"
    pred_b = tmp_path / "pred_b.lie"
    for out in (pred_a, pred_b):
        rc = main(["predict", "--checkpoint", ckpt, "--data", obs,
                   "--horizon", "5", "--out", str(out)])
        assert rc == 0
    assert pred_a.read_bytes() == pred_b.read_bytes()
    pred = load_motion(pred_a)
    assert pred.kind == "lie"
    assert pred.frames.shape == (5, 4, 3)

    target = tmp_path / "walking.lie"
    save_motion(target, synth_motion("sinusoid", 5, builtin_topology("fork7"), seed=12))
    report = tmp_path / "report.csv"
    rc = main(["eval", "--pred", str(pred_a), "--target", str(target),
               "--out", str(report)])
    assert rc == 0
    assert "activity" in capsys.readouterr().out
    rows = read_report(report)
    assert len(rows) == 1
    assert rows[0].activity == "walking"
    assert rows[0].method == "pred_a"
    # 5 predicted frames at 25 fps reach only the 80 and 160 ms horizons
    assert sorted(rows[0].values) == [80, 160]

    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    for out in (svg_a, svg_b):
        rc = main(["plot", "--data", data, "--topology", topo,
                   "--frames", "0,4", "--out", str(out)])
        assert rc == 0
    text = svg_a.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "#e0b400" in text  # second chain color
    assert svg_a.read_bytes() == svg_b.read_bytes()


def test_plot_accepts_raw_positions_and_ranges(tmp_path, capsys):
    raw = joints_file(tmp_path, "raw.txt", frames=8)
    out = tmp_path / "strip.svg"
    rc = main(["plot", "--data", raw, "--topology", topo_file(tmp_path),
               "--frames", "0:6:3", "--out", str(out)])
    assert rc == 0
    assert "plotted frames [0, 3]" in capsys.readouterr().out
    assert out.read_text().count("<circle") == 2 * 7  # 2 figures x 7 joints


def test_plot_refuses_a_huge_frame_range(tmp_path, capsys):
    raw = joints_file(tmp_path, "raw.txt", frames=8)
    out = tmp_path / "strip.svg"
    rc = main(["plot", "--data", raw, "--topology", topo_file(tmp_path),
               "--frames", "0:99999999999999999999", "--out", str(out)])
    assert rc == 2
    assert "frame 8 out of range" in capsys.readouterr().err
    assert not out.exists()


def test_predict_rejects_wrong_entry_count(tmp_path, capsys):
    topo = topo_file(tmp_path)
    data = lie_file(tmp_path, "train.lie")
    config = write_config(tmp_path, TINY)
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--data", data, "--config", config, "--topology", topo,
                 "--out-checkpoint", ckpt]) == 0
    narrow = lie_file(tmp_path, "narrow.lie", topo_name="chain3")
    rc = main(["predict", "--checkpoint", ckpt, "--data", narrow,
               "--horizon", "3", "--out", str(tmp_path / "p.lie")])
    assert rc == 2
    assert "entries" in capsys.readouterr().err


def test_eval_shape_mismatch(tmp_path, capsys):
    a = lie_file(tmp_path, "a.lie", frames=5)
    b = lie_file(tmp_path, "b.lie", frames=6)
    rc = main(["eval", "--pred", a, "--target", b,
               "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_eval_refuses_a_name_the_report_cannot_hold(tmp_path, capsys):
    # the target's file stem is the report's activity column, and a comma
    # in it would give a row that read_report refuses
    target = lie_file(tmp_path, "walk,1.lie", frames=5)
    pred = lie_file(tmp_path, "pred.lie", frames=5, seed=2)
    report = tmp_path / "r.csv"
    rc = main(["eval", "--pred", pred, "--target", target, "--out", str(report)])
    assert rc == 2
    assert "'walk,1'" in capsys.readouterr().err
    assert not report.exists()


def test_train_lengths_sidecar_reaches_the_loss_weights(tmp_path):
    # entries are weighted by the length of the bone each turns onto, so
    # a2 moves the weights and a1, a chain's first bone, does not
    topo, data = topo_file(tmp_path), lie_file(tmp_path, "d.lie")
    config, metrics = write_config(tmp_path, TINY), tmp_path / "m.csv"

    def first_loss(*sidecar):
        argv = ["train", "--data", data, "--topology", topo, "--config", config,
                "--iterations", "1", "--metrics", str(metrics)]
        if sidecar:
            path = tmp_path / "d.lengths"
            path.write_text("\n".join(["# normalized bone lengths", *sidecar]) + "\n")
            argv += ["--lengths", str(path)]
        assert main(argv) == 0
        return metrics.read_text().splitlines()[1].split(",")[1]

    unit = first_loss()
    assert first_loss("a1 1.0") == unit == first_loss("a1 3.0", "b3 1.0")
    assert first_loss("a2 3.0") != unit


def test_train_refuses_a_sidecar_length_for_no_bone_exits_2(tmp_path, capsys):
    sidecar = tmp_path / "d.lengths"
    sidecar.write_text("# normalized bone lengths\nnotabone 2.0\n")
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"), "--topology",
               topo_file(tmp_path), "--config", write_config(tmp_path, TINY),
               "--lengths", str(sidecar)])
    assert rc == 2
    assert f"error: {sidecar}:2: 'notabone' names no bone" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [("train", "training data must be Lie vectors"),
                                              ("predict", "predict expects Lie-vector data")],
                         ids=["train", "predict"])
def test_train_and_predict_refuse_raw_positions_exit_2(tmp_path, capsys, command, message):
    raw = joints_file(tmp_path, "raw.txt")
    if command == "train":
        argv = ["train", "--data", raw, "--topology", topo_file(tmp_path),
                "--config", write_config(tmp_path, TINY)]
    else:
        config = ModelConfig(hidden_size=2, layers=1)
        layout = ChainLayout.from_topology(builtin_topology("fork7"))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, ModelParams.init(config, layout, seed=0), config, layout)
        argv = ["predict", "--checkpoint", str(ckpt), "--data", raw, "--horizon", "2",
                "--out", str(tmp_path / "p.lie")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


# -- failure exit codes -------------------------------------------------------


def test_training_divergence_exits_1(tmp_path, capsys):
    topo = builtin_topology("fork7")
    seq = synth_motion("sinusoid", 40, topo, seed=5)
    frames = seq.frames.copy()
    frames[3, 1, 0] = np.nan
    path = tmp_path / "bad.lie"
    save_motion(path, MotionSequence(fps=25.0, frames=frames, kind="lie"))
    rc = main(["train", "--data", str(path), "--topology", topo_file(tmp_path),
               "--config", write_config(tmp_path, TINY)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, TINY + "bogus = 1\n")
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"),
               "--topology", topo_file(tmp_path), "--config", config])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_duplicate_config_key_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, TINY + "layers = 2\n")
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"),
               "--topology", topo_file(tmp_path), "--config", config])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err


def test_missing_topology_exits_2(tmp_path, capsys):
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"),
               "--config", write_config(tmp_path, TINY)])
    assert rc == 2
    assert "topology" in capsys.readouterr().err


def test_missing_checkpoint_exits_2(tmp_path, capsys):
    rc = main(["predict", "--checkpoint", str(tmp_path / "nope.ckpt"),
               "--data", lie_file(tmp_path, "d.lie", frames=10),
               "--horizon", "2", "--out", str(tmp_path / "p.lie")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def pack_checkpoint(header, body):
    blob = json.dumps(header).encode()
    return b"STHRN1\n" + struct.pack("<Q", len(blob)) + blob + body


def without(header, key):
    return {k: v for k, v in header.items() if k != key}


CORRUPTIONS = {
    "header-length-cut-short": lambda h, b: pack_checkpoint(h, b)[:10],
    "header-length-past-the-end": lambda h, b: (
        b"STHRN1\n" + struct.pack("<Q", 2 ** 62) + pack_checkpoint(h, b)[15:]),
    "trailing-bytes": lambda h, b: pack_checkpoint(h, b) + bytes(8),
    "unknown-config-key": lambda h, b: pack_checkpoint(
        {**h, "config": {**h["config"], "width": 3}}, b),
    "hidden-size-0": lambda h, b: pack_checkpoint(
        {**h, "config": {**h["config"], "hidden_size": 0}}, b),
    # "false" is truthy: loaded as is, it would switch the global temporal state on
    "bool-as-string": lambda h, b: pack_checkpoint(
        {**h, "config": {**h["config"], "global_temporal": "false"}}, b),
    "int-as-float": lambda h, b: pack_checkpoint(
        {**h, "config": {**h["config"], "hidden_size": 2.0}}, b),
    "int-as-bool": lambda h, b: pack_checkpoint(
        {**h, "config": {**h["config"], "layers": True}}, b),
    "adam-tensors-missing": lambda h, b: pack_checkpoint({**h, "adam_step": 3}, b),
    "no-config": lambda h, b: pack_checkpoint(without(h, "config"), b),
    "no-chains": lambda h, b: pack_checkpoint(without(h, "chains"), b),
    "no-iteration": lambda h, b: pack_checkpoint(without(h, "iteration"), b),
    "no-tensors": lambda h, b: pack_checkpoint(without(h, "tensors"), b),
    "tensor-not-in-config": lambda h, b: pack_checkpoint(
        {**h, "tensors": h["tensors"] + [{"name": "extra", "shape": [2]}]}, b + bytes(16)),
    "nan-in-first-tensor": lambda h, b: pack_checkpoint(h, struct.pack("<d", np.nan) + b[8:]),
    "inf-in-last-tensor": lambda h, b: pack_checkpoint(h, b[:-8] + struct.pack("<d", -np.inf)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_malformed_checkpoint_exits_2(tmp_path, capsys, corruption):
    layout = ChainLayout.from_topology(builtin_topology("fork7"))
    config = ModelConfig(hidden_size=2, layers=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ModelParams.init(config, layout, seed=0), config, layout)
    data = path.read_bytes()
    size = struct.unpack("<Q", data[7:15])[0]
    header, body = json.loads(data[15:15 + size]), data[15 + size:]
    path.write_bytes(CORRUPTIONS[corruption](header, body))
    with pytest.raises(ParseError):
        load_checkpoint(path)
    rc = main(["predict", "--checkpoint", str(path), "--data",
               lie_file(tmp_path, "d.lie", frames=10), "--horizon", "2",
               "--out", str(tmp_path / "p.lie")])
    assert rc == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("line, bad, key", [("hidden_size = 4", "hidden_size = 0", "hidden_size"),
                                            ("layers = 1", "layers = -2", "layers")],
                         ids=["hidden_size", "layers"])
def test_model_sizes_below_one_exit_2(tmp_path, capsys, line, bad, key):
    config = TINY.replace(line, bad)
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"), "--topology",
               topo_file(tmp_path), "--config", write_config(tmp_path, config)])
    assert rc == 2
    assert f"{key} must be at least 1" in capsys.readouterr().err


def test_a_model_too_large_to_allocate_exits_2(tmp_path, capsys):
    # the first parameter alone asks for 2.4e18 bytes, past any address
    # space, so the request fails before anything is allocated
    config = TINY.replace("hidden_size = 4", "hidden_size = 100000000000000000")
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"), "--topology",
               topo_file(tmp_path), "--config", write_config(tmp_path, config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert "Traceback" not in err


def test_predict_refuses_non_finite_frames_exits_2(tmp_path, capsys):
    topo = topo_file(tmp_path)
    config = write_config(tmp_path, TINY)
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--data", lie_file(tmp_path, "train.lie"), "--config", config,
                 "--topology", topo, "--out-checkpoint", ckpt]) == 0
    seq = synth_motion("sinusoid", 10, builtin_topology("fork7"), seed=11)
    frames = seq.frames.copy()
    frames[6, 2, 1] = np.nan
    frames[8, 0, 0] = np.inf
    obs = tmp_path / "nan.lie"
    save_motion(obs, MotionSequence(fps=25.0, frames=frames, kind="lie"))
    out = tmp_path / "p.lie"
    rc = main(["predict", "--checkpoint", ckpt, "--data", str(obs),
               "--horizon", "3", "--out", str(out)])
    assert rc == 2
    assert "observed frame 6 is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["preprocess", "--fps", "0"],
                                     ["preprocess", "--fps", "-5"],
                                     ["eval", "--fps", "0"],
                                     ["eval", "--fps", "inf"]],
                         ids=["preprocess-0", "preprocess-negative", "eval-0", "eval-inf"])
def test_non_positive_frame_rates_exit_2(tmp_path, capsys, command):
    if command[0] == "preprocess":
        argv = ["preprocess", "--in", joints_file(tmp_path, "raw.txt"),
                "--topology", topo_file(tmp_path), "--out", str(tmp_path / "m.lie")]
    else:
        a = lie_file(tmp_path, "a.lie", frames=5)
        argv = ["eval", "--pred", a, "--target", a, "--out", str(tmp_path / "r.csv")]
    rc = main(argv + command[1:])
    assert rc == 2
    assert "must be positive" in capsys.readouterr().err


# -- config and flag plumbing -------------------------------------------------


def test_seed_resolution_order(monkeypatch):
    monkeypatch.setenv("STHRN_SEED", "3")
    assert _resolve_seed(5, {"seed": "7"}) == 5
    assert _resolve_seed(None, {"seed": "7"}) == 7
    assert _resolve_seed(None, {}) == 3
    monkeypatch.delenv("STHRN_SEED")
    assert _resolve_seed(None, {}) == 0
    monkeypatch.setenv("STHRN_SEED", "x")
    with pytest.raises(ValidationError):
        _resolve_seed(None, {})


def test_seed_flag_matches_config_seed(tmp_path):
    """--seed N and 'seed = N' in the config produce identical loss curves."""
    topo = topo_file(tmp_path)
    data = lie_file(tmp_path, "d.lie")
    metrics_flag = tmp_path / "flag.csv"
    metrics_cfg = tmp_path / "cfg.csv"
    assert main(["train", "--data", data, "--topology", topo,
                 "--config", write_config(tmp_path, TINY),
                 "--seed", "4", "--metrics", str(metrics_flag)]) == 0
    assert main(["train", "--data", data, "--topology", topo,
                 "--config", write_config(tmp_path, TINY + "seed = 4\n", "b.cfg"),
                 "--metrics", str(metrics_cfg)]) == 0

    def losses(path):
        return [line.split(",")[1] for line in path.read_text().splitlines()[1:]]

    assert losses(metrics_flag) == losses(metrics_cfg)


def test_parse_config_file_handles_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# header\n\nhidden_size = 8  # inline\nloss = weighted\n")
    assert parse_config_file(path) == {"hidden_size": "8", "loss": "weighted"}


def test_parse_config_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("just words\n")
    with pytest.raises(ParseError):
        parse_config_file(path)
    path.write_text("key =\n")
    with pytest.raises(ParseError):
        parse_config_file(path)


def test_parse_frames_specs():
    assert _parse_frames("0,5,10", 20) == [0, 5, 10]
    assert _parse_frames("0:10:4", 20) == [0, 4, 8]
    assert _parse_frames("2:5", 20) == [2, 3, 4]
    with pytest.raises(ValidationError):
        _parse_frames("0:0", 20)  # empty selection
    with pytest.raises(ValidationError):
        _parse_frames("0:10:0", 20)
    with pytest.raises(ValidationError):
        _parse_frames("25", 20)
    with pytest.raises(ValidationError):
        _parse_frames("a,b", 20)
    with pytest.raises(ValidationError, match="^bad frame range '0:5:x'$"):
        _parse_frames("0:5:x", 20)
    # a range refuses the same first index as the list it spells out
    for spec, bad in (("-99999999999999999999:5", "frame -99999999999999999999 "),
                      ("25:99999999999999999999", "frame 25 "),
                      ("0:99999999999999999999:7", "frame 21 "),
                      ("18:25", "frame 20 ")):
        with pytest.raises(ValidationError, match=f"^{bad}out of range 0..19$"):
            _parse_frames(spec, 20)
    assert _parse_frames("0:99999999999999999999:99999999999999999999", 20) == [0]


@pytest.mark.parametrize("flags, config, message", [
    (["--iterations", "0"], TINY, "iterations must be at least 1"),
    ([], TINY.replace("batch_size = 2", "batch_size = 0"), "batch_size must be at least 1"),
], ids=["iterations", "batch_size"])
def test_train_rejects_empty_runs_exits_2(tmp_path, capsys, flags, config, message):
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"), "--topology",
               topo_file(tmp_path), "--config", write_config(tmp_path, config), *flags])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("global_temporal = maybe", "config key 'global_temporal': expected a boolean, got 'maybe'"),
    ("hidden_size = four", "config key 'hidden_size': bad value 'four'"),
], ids=["boolean", "number"])
def test_config_values_that_do_not_parse_exit_2(tmp_path, capsys, line, message):
    config = TINY.replace("hidden_size = 4\n", "") + line + "\n"
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"), "--topology",
               topo_file(tmp_path), "--config", write_config(tmp_path, config)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("learning_rate", "nan"), ("beta1", "1.0"),
                                        ("beta2", "-0.5"), ("epsilon", "0"),
                                        ("clip_norm", "-1")])
def test_optimizer_settings_that_break_adam_exit_2(tmp_path, capsys, key, value):
    ckpt = tmp_path / "model.ckpt"
    config = TINY.replace("learning_rate = 0.001\n", "") + f"{key} = {value}\n"
    rc = main(["train", "--data", lie_file(tmp_path, "d.lie"), "--topology",
               topo_file(tmp_path), "--config", write_config(tmp_path, config),
               "--iterations", "1", "--out-checkpoint", str(ckpt)])
    assert rc == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not ckpt.exists()


def test_config_file_sets_every_config_field():
    model = ModelConfig(hidden_size=3, layers=4, global_temporal=False, decoder="plain")
    train_cfg = TrainConfig(iterations=7, learning_rate=0.25, teacher_forcing=True)
    values = {f: str(v) for cfg in (model, train_cfg) for f, v in vars(cfg).items()}
    assert build_configs({**values, "topology": "t.topo"}) == (
        model, train_cfg, {"topology": "t.topo"})
