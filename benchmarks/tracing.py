"""Span tracer for the traced benchmark run.

The tracer times layers from outside the package: it replaces each
public function at the module attribute its caller looks up (for
example ``sthrn.model.encode``, which ``forward`` calls) with a wrapper
that records a span: name, start, end, parent span and the id of the
closed-loop call (or training iteration) it belongs to.  Spans are kept
in memory and written out when the run ends.  Nothing inside ``sthrn``
is changed.

Besides spans the tracer counts tape nodes at layer boundaries, the
bytes reachable from each loss handed to ``backward``, garbage
collector pauses (``gc.callbacks``) and minor page faults.  Node
counting walks the tape after a layer returns; that walk is itself a
``trace.count`` span so it can be taken out of the layer times and of
the coverage figure.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from contextlib import contextmanager

import numpy as np
import sthrn
import sthrn.autodiff
import sthrn.model
import sthrn.training

COUNT_SPAN = "trace.count"
CALL_SPAN = "call"
SETUP_SPAN = "setup"


class Tracer:
    def __init__(self):
        self._param_ids: set[int] = set()
        # One entry per span in parallel lists of atoms: a list per span
        # would be one more object for the garbage collector to track.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []      # -1 for a root span
        self.call_ids: list = []
        self._stack: list[int] = []
        self.call_id = None
        self._seen: dict[int, object] = {}
        self.counts = {"encoder.nodes": 0, "encoder.taped": 0,
                       "decoder.nodes": 0, "decoder.taped": 0,
                       "tape.nodes": 0, "tape.bytes": 0, "tape.windows": 0,
                       "tape.roots": 0, "windows_since_backward": 0}
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self.minor_faults = 0
        self._saved: list[tuple[object, str, object]] = []

    def set_params(self, params: dict) -> None:
        """Parameter leaves are shared by every window; they are not tape
        nodes of any one layer and are left out of all node counts."""
        self._param_ids = {id(t) for t in params.values()}

    # -- spans -------------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.call_ids.append(self.call_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, call_id=None):
        if call_id is not None:
            self.call_id = call_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out)
            return out
        return traced

    def wrap_probe(self, f):
        """Trace the loss closure handed to ``grad_check``.

        The span is named by what the call turned out to be: the one
        taped call, a float64 probe, or an extended-precision refinement
        (the perturbed leaf is widened, so the loss comes back wider).
        """
        def traced():
            idx = self._open(None)
            try:
                out = f()
            finally:
                self._close(idx)
            if out.data.dtype == np.longdouble:
                kind = "autodiff.gradcheck_refine"
            elif out.parents:
                kind = "autodiff.gradcheck_tape"
            else:
                kind = "autodiff.gradcheck_probe"
            self.names[idx] = kind
            return out
        return traced

    # -- node counting -----------------------------------------------------

    def _count_new(self, tensors) -> int:
        """Nodes reachable from ``tensors`` not yet counted on this tape."""
        stack = [t for t in tensors if t.parents]
        new = 0
        while stack:
            node = stack.pop()
            key = id(node)
            if key in self._seen or key in self._param_ids:
                continue
            self._seen[key] = node  # holding the node keeps its id unique
            new += 1
            stack.extend(node.parents)
        return new

    def _after_encode(self, state) -> None:
        if not state.h.parents:
            return
        with self.span(COUNT_SPAN):
            self.counts["encoder.nodes"] += self._count_new(
                [state.h, state.c, state.g_t, state.c_gt, state.g_s, state.c_gs])
            self.counts["encoder.taped"] += 1
            self.counts["windows_since_backward"] += 1

    def _decoder_tensors(self, state):
        return [x for cell in state.cells.values() for x in (cell.h, cell.c)]

    def _after_init_decoder(self, state) -> None:
        tensors = self._decoder_tensors(state)
        if not any(t.parents for t in tensors):
            return
        with self.span(COUNT_SPAN):
            self.counts["decoder.nodes"] += self._count_new(tensors)
            self.counts["decoder.taped"] += 1

    def _after_decode_step(self, out) -> None:
        w, state = out
        if not w.parents:
            return
        with self.span(COUNT_SPAN):
            self.counts["decoder.nodes"] += self._count_new(
                [w] + self._decoder_tensors(state))

    def _before_backward(self, args) -> None:
        root = args[0]
        with self.span(COUNT_SPAN):
            seen: set[int] = set()
            stack = [root]
            nodes = nbytes = 0
            while stack:
                node = stack.pop()
                key = id(node)
                if key in seen or key in self._param_ids:
                    continue
                seen.add(key)
                nodes += 1
                nbytes += node.data.nbytes
                stack.extend(node.parents)
            self.counts["tape.nodes"] += nodes
            self.counts["tape.bytes"] += nbytes
            self.counts["tape.roots"] += 1
            self.counts["tape.windows"] += max(1, self.counts["windows_since_backward"])
            self.counts["windows_since_backward"] = 0
            self._seen.clear()

    def _after_adam(self, _out) -> None:
        # train() takes one Adam step per iteration: the next spans
        # belong to the next iteration.
        self.call_id = (self.call_id or 0) + 1

    # -- install / remove --------------------------------------------------

    def _targets(self):
        return [
            (sthrn.model, "encode", "encoder.encode", None, self._after_encode),
            (sthrn.model, "init_decoder", "decoder.init", None, self._after_init_decoder),
            (sthrn.model, "decode_step", "decoder.step", None, self._after_decode_step),
            (sthrn.training, "sample_windows", "skeleton.sample_windows", None, None),
            (sthrn.training, "weighted_loss", "training.loss", None, None),
            (sthrn, "weighted_loss", "training.loss", None, None),
            (sthrn.training, "backward", "autodiff.backward", self._before_backward, None),
            (sthrn.autodiff, "backward", "autodiff.backward", self._before_backward, None),
            (sthrn.training, "clip_gradients", "training.clip", None, None),
            (sthrn.training, "adam_step", "training.adam", None, self._after_adam),
            (sthrn, "load_checkpoint", "training.checkpoint_load", None, None),
        ]

    def install(self) -> None:
        for module, attr, name, before, after in self._targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, before, after))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def watch_process(self):
        """Count collector pauses and minor page faults inside the block."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self.minor_faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    def _on_gc(self, phase, _info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- results -----------------------------------------------------------

    def _durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) ms and self ms.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap, since the run is one thread.
        """
        dur = self._durations()
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        table: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += dur[i] * 1e3
            row["self_ms"] += (dur[i] - child[i]) * 1e3
        return table

    def coverage(self) -> tuple[float, float, float]:
        """(timed wall ms, covered ms, tracer bookkeeping ms) of the calls.

        The timed wall is the summed duration of the ``call`` spans, one
        per closed-loop call.  Covered time is what the layer spans
        directly under them account for, less any tracer bookkeeping
        nested inside those layers; bookkeeping is the tracer's own tape
        walks, to be taken out of the wall time as well.
        """
        dur = self._durations()
        top = [-1] * len(dur)     # index of the enclosing call span, or -1
        wall = covered = book = 0.0
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name == CALL_SPAN:
                top[i] = i
                wall += dur[i]
                continue
            top[i] = top[parent] if parent >= 0 else -1
            if top[i] < 0:
                continue
            if name == COUNT_SPAN:
                book += dur[i]
                if parent != top[i]:
                    covered -= dur[i]
            elif parent == top[i]:
                covered += dur[i]
        return wall * 1e3, covered * 1e3, book * 1e3

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start_us": round(self.starts[i] * 1e6, 1),
                                     "end_us": round(self.ends[i] * 1e6, 1),
                                     "parent": self.parents[i] if self.parents[i] >= 0 else None,
                                     "call": self.call_ids[i]}) + "\n")
