"""The package's surface: every public name has a use, and the benchmark
tracer finds what it wraps and reads."""

import ast
import sys
from pathlib import Path

import numpy as np

import sthrn
import sthrn.model
from sthrn.encoder import ChainLayout
from sthrn.model import ModelConfig
from sthrn.skeleton import builtin_topology, synth_motion
from sthrn.training import TrainConfig, bone_weights, train

PACKAGE = Path(sthrn.__file__).parent
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_public_name_is_exported_or_used():
    """A public module-level function or class is imported by
    ``sthrn/__init__.py`` or referenced in the package's code, as a name,
    an attribute or an import; a mention in a docstring does not count."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert [f"{module}:{name}" for module, name in defined if name not in used] == []


def test_benchmark_tracer_wraps_and_restores_the_package():
    """``benchmarks/tracing.py`` replaces module attributes of the
    package (``sthrn.model.encode``, ``init_decoder``, ``decode_step``,
    ``sthrn.training.sample_windows`` and more) and reads the encoder's
    and decoder's state fields.  A traced two-iteration ``train()``
    counts encoder, decoder and tape nodes, opens one draw, one clip and
    one Adam span per iteration, as ``train()`` calls ``sample_windows``,
    ``clip_gradients`` and ``adam_step`` through ``sthrn.training``, and
    removing the tracer puts every attribute back."""
    sys.path.insert(0, str(BENCHMARKS))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache under benchmarks/
    try:
        import tracing
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCHMARKS))
    topo = builtin_topology("fork7")
    layout = ChainLayout.from_topology(topo)
    original = sthrn.model.encode
    tracer = tracing.Tracer()
    tracer.install()
    try:
        train([synth_motion("sinusoid", 12, topo, seed=0)], layout, bone_weights(np.ones(4)),
              ModelConfig(hidden_size=3, layers=2),
              TrainConfig(iterations=2, batch_size=2, observed=4, horizon=2))
    finally:
        tracer.remove()
    assert sthrn.model.encode is original
    assert tracer.counts["encoder.nodes"] > 0
    assert tracer.counts["decoder.nodes"] > 0
    assert tracer.counts["tape.roots"] == 2
    assert tracer.names.count("skeleton.sample_windows") == 2
    assert tracer.names.count("training.clip") == 2
    assert tracer.names.count("training.adam") == 2
