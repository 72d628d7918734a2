"""The benchmark's own tests: short smoke runs of every workload.

    python3 -m pytest -q benchmarks/checks.py

Kept out of the repository's default test collection (the file name
does not match ``test_*.py``) because each case starts a benchmark
process and the human workloads hold ~1.8 GB while they run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics printed by name on the lines before the JSON result, besides
# the contract's end-to-end ones.
NAMED = {
    "train-human": ["setup_s", "train_windows_per_s", "loss_final", "peak_rss_mb",
                    "failed_share"],
    "train-fork7-tiny": ["setup_s", "train_windows_per_s", "loss_final", "peak_rss_mb",
                         "failed_share"],
    "predict-human": ["setup_s", "predict_p50_ms", "predict_p95_ms", "predict_seqs_per_s",
                      "peak_rss_mb", "failed_share"],
    "gradcheck-tiny": ["setup_s", "gradcheck_components_per_s", "peak_rss_mb",
                       "failed_share"],
}


def _run(args, cwd=ROOT, prelude=""):
    """Run the benchmark command; ``prelude`` is Python run before it."""
    code = (f"import sys\nsys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
            f"{prelude}\nimport run\nsys.exit(run.main({args!r}))\n")
    if not prelude:
        return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                              cwd=cwd, capture_output=True, text=True, timeout=600)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def _printed(stdout: str) -> dict[str, str]:
    """Metric name -> unit from the ``name value unit`` lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "{")):
            out[parts[0]] = parts[2]
    return out


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = _printed(proc.stdout)
    for name in NAMED[workload] + list(want):
        assert name in printed, name
    assert printed["failed_share"] == "share"
    assert "# machine nproc=" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_every_layer_metric(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc.stdout)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = _printed(proc.stdout)
    assert all(name in printed for name in want)
    assert "# coverage: layer spans cover" in proc.stdout
    assert "# overhead: traced" in proc.stdout
    assert result["metrics"]["encoder.encode_ms"]["value"] > 0
    spans = HERE / "out" / f"{workload}-seed3-spans.jsonl"
    assert spans.is_file()


FAULTS = {
    "train-fork7-tiny": (
        "import sthrn\n"
        "_train = sthrn.train\n"
        "def train(*a, **k):\n"
        "    r = _train(*a, **k)\n"
        "    r.metrics[-1] = (r.metrics[-1][0], float('nan'), r.metrics[-1][2])\n"
        "    return r\n"
        "sthrn.train = train\n"),
    "predict-human": (
        "import sthrn\n"
        "_predict = sthrn.predict\n"
        "sthrn.predict = lambda *a, **k: _predict(*a, **k) * float('nan')\n"),
    "gradcheck-tiny": (
        "import sthrn\n"
        "_check = sthrn.grad_check\n"
        "def grad_check(*a, **k):\n"
        "    r = _check(*a, **k)\n"
        "    r.max_rel_error = 1.0\n"
        "    return r\n"
        "sthrn.grad_check = grad_check\n"),
}


@pytest.mark.parametrize("workload", sorted(FAULTS))
def test_failed_check_is_counted_and_exits_nonzero(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"],
                prelude=FAULTS[workload])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = _result(proc.stdout)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "# FAILED:" in proc.stdout
    assert float(_line_value(proc.stdout, "failed_share")) > 0


def _line_value(stdout: str, name: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(name + " "):
            return line.split()[1]
    raise AssertionError(name)


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "gradcheck-tiny", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
