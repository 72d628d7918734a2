"""Horizon grid, angle-error metric, baseline, and report IO checks."""

import numpy as np
import pytest

from sthrn.evaluation import (
    HORIZON_MS,
    ReportRow,
    format_report,
    horizon_frames,
    mae,
    write_report,
    zero_velocity,
)
from sthrn.geometry import DimensionMismatch
from sthrn.skeleton import ValidationError, builtin_topology, synth_motion


def test_horizon_grid_frozen():
    assert HORIZON_MS == (80, 160, 320, 400, 560, 640, 720, 1000)


def test_horizon_frames_at_25_fps():
    assert horizon_frames(25.0) == (2, 4, 8, 10, 14, 16, 18, 25)


def test_horizon_frames_at_50_fps():
    assert horizon_frames(50.0) == (4, 8, 16, 20, 28, 32, 36, 50)


@pytest.mark.parametrize("fps", [0.0, -25.0, float("inf"), float("nan")])
def test_horizon_frames_refuses_bad_rates(fps):
    with pytest.raises(ValueError, match="fps must be positive and finite"):
        horizon_frames(fps)


def test_mae_constant_offset():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(25, 4, 3))
    offset = np.array([0.3, 0.0, 0.4])  # norm 0.5 on every entry
    errors = mae(target + offset, target)
    assert set(errors) == set(HORIZON_MS)
    for value in errors.values():
        assert abs(value - 0.5) < 1e-12


def test_mae_zero_velocity_linear_sweep_closed_form():
    # a linear sweep advances every entry by delta per frame along a unit
    # axis, so repeating the last observed frame is off by n * delta at
    # the n-th predicted frame
    topo = builtin_topology("fork7")
    delta = 0.01
    seq = synth_motion("linear-sweep", 60, topo, seed=1, delta=delta)
    obs, target = seq.frames[:30], seq.frames[30:55]
    pred = zero_velocity(obs, horizon=25)
    errors = mae(pred, target)
    frames = dict(zip(HORIZON_MS, horizon_frames()))
    for ms, value in errors.items():
        assert abs(value - frames[ms] * delta) < 1e-12, ms


def test_mae_omits_unreachable_horizons():
    pred = np.zeros((9, 2, 3))
    errors = mae(pred, pred)
    assert sorted(errors) == [80, 160, 320]  # frames 2, 4, 8 fit in 9


def test_mae_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        mae(np.zeros((5, 2, 3)), np.zeros((5, 3, 3)))
    with pytest.raises(DimensionMismatch):
        mae(np.zeros((5, 2)), np.zeros((5, 2)))


def test_zero_velocity_repeats_last_frame():
    rng = np.random.default_rng(2)
    obs = rng.normal(size=(7, 3, 3))
    pred = zero_velocity(obs, horizon=4)
    assert pred.shape == (4, 3, 3)
    for n in range(4):
        assert np.array_equal(pred[n], obs[-1])


# -- report ------------------------------------------------------------------


def test_report_roundtrip_with_missing_cells(tmp_path):
    rows = [
        ReportRow("walking", "model", {80: 0.25, 1000: 1.5}),
        ReportRow("eating", "zero-velocity", {ms: 0.1 * i for i, ms in enumerate(HORIZON_MS)}),
        ReportRow("walking dog_2", "sthrn v1.ckpt", {160: 0.125}),  # names a file stem can be
    ]
    path = tmp_path / "report.csv"
    write_report(path, rows)
    # rows are written sorted by (activity, method), values exact through repr
    assert path.read_text().splitlines()[1:] == [
        "eating,zero-velocity," + ",".join(repr(0.1 * i) for i in range(len(HORIZON_MS))),
        "walking,model,0.25,_,_,_,_,_,_,1.5",
        "walking dog_2,sthrn v1.ckpt,_,0.125,_,_,_,_,_,_",
    ]


def test_report_file_layout(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, [ReportRow("walk", "m", {160: 0.5})])
    lines = path.read_text().splitlines()
    assert lines[0] == "activity,method,h80,h160,h320,h400,h560,h640,h720,h1000"
    assert lines[1] == "walk,m,_,0.5,_,_,_,_,_,_"


@pytest.mark.parametrize("field", ["activity", "method"])
@pytest.mark.parametrize("name", ["walk,1", "walk\n1", "walk\r"])
def test_write_report_refuses_names_it_cannot_hold(tmp_path, field, name):
    path = tmp_path / "report.csv"
    row = ReportRow(**{"activity": "walk", "method": "m", field: name}, values={80: 0.5})
    with pytest.raises(ValidationError, match=field):
        write_report(path, [row])
    assert not path.exists()


def test_format_report_readable():
    rows = [ReportRow("walking", "model", {80: 0.25})]
    text = format_report(rows)
    lines = text.splitlines()
    assert "activity" in lines[0] and "method" in lines[0]
    assert "walking" in lines[1]
    assert "0.250" in lines[1]
    assert lines[1].count("_") == len(HORIZON_MS) - 1
