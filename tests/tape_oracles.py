"""Tape ops the package no longer has, kept as test oracles.

``sthrn.autodiff.grid_cell`` fuses one encoder layer's composition of
``spread_rows`` of each global state, ``shift_rows``, ``mul`` by the
chain-head mask, ``concat`` of the source block, ``linear`` and
``gated_cell`` into one node, and
``sthrn.autodiff.pooled_cell`` a ``spread_rows`` of the previous global
state and the op-by-op global update.  Those compositions, and the
ones that the LSTM cell and ``wrap_rows`` replace, also take
``matmul``, ``sigmoid``, ``tanh`` and ``div`` nodes.  The ops below are
those of the compositions, built the way the package builds its own
ops (through ``_apply`` and ``_acc``).
``composed_grid_cell`` and ``unfused_pooled`` spell the two cells out
with them, taking the spread global states as arguments,
``unfused_lstm`` the LSTM step, and
``composed_encode`` is the encoder built from them, with one spread
node per global state that the grid cell and the pooled cell share,
as before the fusion.  ``six_term_grid_cell`` is the grid cell as it
summed its pre-activation before the source block: a term-list
``linear`` of U p, four products and the bias, whose one node makes
its gradients match that cell's order of adds; ``composed_encode``
builds that layout too, the oracle of the source block's round-off.

``looped_train`` is ``sthrn.train`` on the per-tensor optimizer path it
had before a model's parameters, gradients and Adam's moments became
views of flat arrays, and ``looped_checkpoint`` the checkpoint writer
of that path: the oracles of the flat path.
"""

import json
import struct
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

import sthrn.autodiff as ad
from sthrn.autodiff import Tensor
from sthrn.encoder import EncoderState, encode
from sthrn.model import forward, frames_tensor
from sthrn.skeleton import sample_windows
from sthrn.training import TrainingDiverged, l2_loss, weighted_loss


def _sigmoid_vjp(node, g):
    ad._acc(node.parents[0], g * node.data * (1.0 - node.data))


def sigmoid(a):
    return ad._apply("sigmoid", (ad._as_tensor(a),), _sigmoid_vjp, ad._sigmoid)


def _tanh_vjp(node, g):
    ad._acc(node.parents[0], g * (1.0 - node.data * node.data))


def tanh(a):
    return ad._apply("tanh", (ad._as_tensor(a),), _tanh_vjp, np.tanh)


def _div_vjp(node, g):
    a, b = node.parents
    ad._acc(a, g / b.data)
    ad._acc(b, -g * node.data / b.data)


def div(a, b):
    return ad._apply("div", (ad._as_tensor(a), ad._as_tensor(b)), _div_vjp, np.true_divide)


def _matmul_vjp(node, g):
    a, b = node.parents
    ad._acc(a, g @ b.data.T)
    ad._acc(b, a.data.T @ g)


def matmul(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._check_matmul(a, b)
    return ad._apply("matmul", (a, b), _matmul_vjp, np.matmul)


def unfused_lstm(x, h, c, w, b):
    """The fifteen-op LSTM step that ``ad.lstm_cell`` fuses.  Its matmul
    node adds ``[x | h].T @ dz`` into ``w`` at every step, the layout
    before ``lstm_cell`` deferred a leaf weight's products to the end of
    the walk."""
    hidden = h.data.shape[1]
    z = ad.add(matmul(ad.concat([x, h], axis=1), w), b)
    i = sigmoid(ad._narrow(z, np.s_[:, 0 * hidden:1 * hidden]))
    f = sigmoid(ad._narrow(z, np.s_[:, 1 * hidden:2 * hidden]))
    o = sigmoid(ad._narrow(z, np.s_[:, 2 * hidden:3 * hidden]))
    g = tanh(ad._narrow(z, np.s_[:, 3 * hidden:4 * hidden]))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, tanh(c_new))
    return h_new, c_new


def _linear_fwd(pairs, *arrays):
    """``pairs[k]`` says whether term k is a product of the next two
    arrays or the next array alone."""
    it = iter(arrays)
    return ad._tree_sum(next(it) @ next(it) if pair else next(it) for pair in pairs)


def _linear_vjp(node, g):
    it = iter(node.parents)
    for pair in node.args[0]:
        x = next(it)
        if pair:
            w = next(it)
            ad._acc(x, g @ w.data.T)
            ad._acc(w, x.data.T @ g)
        else:
            ad._acc(x, g)


def linear(terms):
    """Sum of several terms as one node.

    A term is a tensor, broadcast as in ``add``, or an ``(x, w)`` pair
    standing for ``matmul(x, w)``.  Terms are added in ``_tree_sum``
    order, so ``linear([(x, w), (y, v), b])`` has exactly the value of
    ``add(add(matmul(x, w), matmul(y, v)), b)``.
    """
    pairs, parents = [], []
    for term in terms:
        pair = isinstance(term, tuple)
        operands = tuple(map(ad._as_tensor, term if pair else (term,)))
        if pair:
            ad._check_matmul(*operands)
        parents += operands
        pairs.append(pair)
    return ad._apply("linear", tuple(parents), _linear_vjp, _linear_fwd, tuple(pairs))


def _spread_vjp(node, g):
    ad._acc(node.parents[0], ad._pool(*node.args, g))


def spread_rows(a, grid_shape: tuple, axis: int):
    """Each row of ``a`` copied over ``axis`` of ``grid_shape``, one row
    per grid index: the transpose of summing the grid over ``axis``."""
    return ad._apply("spread", (ad._as_tensor(a),), _spread_vjp, ad._spread, grid_shape, axis)


def _shift_vjp(node, g):
    n, block = node.args
    ad._acc(node.parents[0], ad._shift_blocks(-n, block, g))


def shift_rows(a, n: int, block: int | None = None):
    """Rows moved down by ``n`` (up for negative ``n``) within each run
    of ``block`` consecutive rows (default: all rows as one run)."""
    a = ad._as_tensor(a)
    block = a.data.shape[0] if block is None else block
    return ad._apply("shift", (a,), _shift_vjp, ad._shift_blocks, n, block)


def _gated_vjp(node, grad):
    pre, *sources = node.parents
    s, cand, tc = node.saved
    dpre, dsources = ad._gated_backward(grad, s, cand, [t.data for t in sources], tc)
    ad._acc(pre, dpre)
    for t, g in zip(sources, dsources):
        ad._acc(t, g)


def gated_cell(pre, sources):
    """A gated cell over ``sources`` (each (rows, hidden)); returns (h, c).
    ``pre`` is (rows, (len(sources) + 3) * hidden): one sigmoid gate per
    input (the tanh candidate first), the output gate, the candidate."""
    parents = (ad._as_tensor(pre), *map(ad._as_tensor, sources))
    return ad._apply("gated_cell", parents, _gated_vjp, ad._gated_fwd)


def _grid_shifts(x, grid_shape, sp_mask):
    """``x``'s left, right and masked spatial sources as shift nodes."""
    _, T, K, _ = grid_shape
    return (shift_rows(x, K, T * K), shift_rows(x, -K, T * K),
            ad.mul(shift_rows(x, 1), sp_mask))


def composed_grid_cell(h, c, p, gs_rows, gt_rows, w, b, cgs_rows, cgt_rows,
                       grid_shape, sp_mask):
    """``ad.grid_cell`` op by op, with the same arguments: the source
    block a concat node that one ``linear`` reads with the stacked
    weight ``w``."""
    h_left, h_right, h_sp = _grid_shifts(h, grid_shape, sp_mask)
    block = ad.concat([p, h_left, h_right, h, h_sp, gs_rows, gt_rows], axis=1)
    pre = ad.linear(block, w, b)
    c_left, c_right, c_sp = _grid_shifts(c, grid_shape, sp_mask)
    return gated_cell(pre, [c_left, c, c_right, c_sp, cgs_rows, cgt_rows])


def six_term_grid_cell(h, c, p_proj, gs_rows, gt_rows, weights, b, cgs_rows, cgt_rows,
                       grid_shape, sp_mask):
    """The grid cell as it summed its pre-activation before the source
    block: ``p_proj`` is U p, a node that every layer reads, and
    ``weights`` (w, z, gs, gt); one ``linear`` adds p_proj and the
    products of the neighbour triple, h_sp and the spread global states
    with their own weights, and the bias, in ``_tree_sum`` order."""
    w, z, gs, gt = weights
    h_left, h_right, h_sp = _grid_shifts(h, grid_shape, sp_mask)
    triple = ad.concat([h_left, h_right, h], axis=1)
    pre = linear([p_proj, (triple, w), (h_sp, z), (gs_rows, gs), (gt_rows, gt), b])
    c_left, c_right, c_sp = _grid_shifts(c, grid_shape, sp_mask)
    return gated_cell(pre, [c_left, c, c_right, c_sp, cgs_rows, cgt_rows])


def unfused_pooled(h, c, g_prev, c_prev, g_rows, weights, grid_shape, axis):
    """The op-by-op global-state update that ``ad.pooled_cell`` fuses;
    ``g_rows`` is ``g_prev`` spread over ``axis``."""
    w_c, z_c, b_c, w_f, z_f, b_f, w_o, z_o, b_o = weights
    n, rows = grid_shape[axis], (-1, grid_shape[-1])

    def pool(x):
        return ad.reshape(ad.tsum(ad.reshape(x, grid_shape), axis=axis), rows)

    cell = sigmoid(ad.add(ad.add(matmul(h, w_c), matmul(g_rows, z_c)), b_c))
    contrib = pool(ad.mul(cell, c))
    h_mean = ad.mul(pool(h), 1.0 / n)
    f = sigmoid(ad.add(ad.add(matmul(h_mean, w_f), matmul(g_prev, z_f)), b_f))
    out = sigmoid(ad.add(ad.add(matmul(h_mean, w_o), matmul(g_prev, z_o)), b_o))
    c_next = ad.add(contrib, ad.mul(f, c_prev))
    return ad.mul(out, tanh(c_next)), c_next


# the nine gates in the grid cell's column order, and the gate fields:
# the weights on p, on the neighbour triple, on h_sp, on gs and on gt,
# then the bias; a global updater's weights in ``unfused_pooled`` order
GATES = ("in", "left", "same", "right", "spatial", "gs", "gt", "out", "cand")
FIELDS = ("u", "w", "z", "gs", "gt", "bias")
POOLED = ("w_c", "z_c", "b_c", "w_f", "z_f", "b_f", "w_o", "z_o", "b_o")


def composed_encode(p, params, layout, layers, global_temporal=True, global_spatial=True,
                    six_terms=False):
    """``sthrn.encoder.encode`` for B stacked (B, T, K, 3) windows, built
    from the oracles: per layer one ``spread_rows`` per global state,
    ``composed_grid_cell`` and ``unfused_pooled``, the latter reading
    the grid cell's spread of its own previous state.  Every weight is
    read from ``params`` by name, not through the encoder's builders:
    each gate field is one concat node of the nine gates' parameters,
    and every layer stacks the five weight fields by rows again, so each
    field sums its layers' gradients as it did before the encoder built
    the stack once.  With ``six_terms`` the grid cell is
    ``six_term_grid_cell``, every layer reading one ``matmul`` node of
    U p: the layout before the source block."""
    state = encode(p, params, layout, 0, global_temporal, global_spatial)
    grid = state.grid_shape
    B, T, K, _ = grid
    u, *fields, b = (ad.concat([params[f"enc.gate.{gate}.{f}"] for gate in GATES], axis=-1)
                     for f in FIELDS)
    rows = np.asarray(p, dtype=np.float64).reshape(B * T * K, 3)
    cell, first = composed_grid_cell, rows
    if six_terms:
        cell, first = six_term_grid_cell, matmul(rows, u)
    gt_weights, gs_weights = ([params[f"{prefix}.{f}"] for f in POOLED]
                              for prefix in ("enc.gt", "enc.gs"))
    sp_mask = np.tile((layout.spatial_prev() >= 0).astype(np.float64), B * T)[:, None]
    for _ in range(layers):
        gs_rows = spread_rows(state.g_s, grid, 2)
        gt_rows = spread_rows(state.g_t, grid, 1)
        cgs_rows = spread_rows(state.c_gs, grid, 2)
        cgt_rows = spread_rows(state.c_gt, grid, 1)
        weights = fields if six_terms else ad.concat([u, *fields], axis=0)
        h, c = cell(state.h, state.c, first, gs_rows, gt_rows, weights, b, cgs_rows, cgt_rows,
                    grid, sp_mask)
        g_t, c_gt, g_s, c_gs = state.g_t, state.c_gt, state.g_s, state.c_gs
        if global_temporal:
            g_t, c_gt = unfused_pooled(h, c, g_t, c_gt, gt_rows, gt_weights, grid, 1)
        if global_spatial:
            g_s, c_gs = unfused_pooled(h, c, g_s, c_gs, gs_rows, gs_weights, grid, 2)
        state = EncoderState(h=h, c=c, g_t=g_t, c_gt=c_gt, g_s=g_s, c_gs=c_gs, grid_shape=grid)
    return state


def looped_first_nonfinite(named):
    """Name of the first tensor whose gradient holds a NaN or inf."""
    for name, t in named.items():
        if not np.isfinite(t.grad).all():
            return name
    return None


def looped_clip(named, max_norm):
    """Scale every tensor's gradient so their global norm is at most
    max_norm; returns the norm before scaling and whether it scaled."""
    total = float(np.sqrt(sum(float((t.grad * t.grad).sum()) for t in named.values())))
    clipped = max_norm > 0.0 and total > max_norm
    if clipped:
        factor = max_norm / total
        for t in named.values():
            t.grad *= factor
    return total, clipped


def looped_adam(named, m, v, step, lr, beta1, beta2, eps):
    """Adam step ``step``, tensor by tensor, with one moment array each."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, t in named.items():
        g = t.grad
        m[name] += (1.0 - beta1) * (g - m[name])
        v[name] += (1.0 - beta2) * (g * g - v[name])
        t.data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def looped_train(sequences, layout, theta, model_config, train_config, params):
    """``sthrn.train`` from a copy of ``params``, each parameter its own
    array: every walk gives the leaves fresh ``zeros_like`` gradients,
    and the finite check, clip and Adam loop over the tensors.  Returns
    the losses, the gradient norms before clipping, whether each
    iteration clipped, and the final parameters and Adam moments, each
    name -> array."""
    named = {name: Tensor(t.data.copy()) for name, t in params.named().items()}
    model = SimpleNamespace(tensors=named)
    m = {name: np.zeros(t.data.shape) for name, t in named.items()}
    v = {name: np.zeros(t.data.shape) for name, t in named.items()}
    rng = np.random.default_rng(train_config.seed)
    k = layout.num_entries
    losses, norms, clipped = [], [], []
    for it in range(train_config.iterations):
        batch = sample_windows(sequences, train_config.observed + train_config.horizon,
                               train_config.batch_size, rng)
        observed, targets = np.split(batch, [train_config.observed], axis=1)
        outs = forward(model, model_config, layout, observed, train_config.horizon,
                       feed=targets if train_config.teacher_forcing else None)
        pred, target = frames_tensor(outs, k), targets.reshape(-1, k, 3)
        if train_config.loss == "weighted":
            loss = weighted_loss(pred, target, theta)
        else:
            loss = l2_loss(pred, target)
        ad.backward(loss, leaves=named.values())
        losses.append(float(loss.data))
        bad = looped_first_nonfinite(named)
        if bad is not None:
            raise TrainingDiverged(f"non-finite gradient of {bad} at iteration {it}")
        total, clip = looped_clip(named, train_config.clip_norm)
        norms.append(total)
        clipped.append(clip)
        looped_adam(named, m, v, it + 1, train_config.learning_rate, train_config.beta1,
                    train_config.beta2, train_config.epsilon)
    return losses, norms, clipped, {name: t.data for name, t in named.items()}, m, v


def looped_checkpoint(path, params, m, v, step, config, layout, iteration):
    """The checkpoint of per-tensor ``params`` and Adam moments ``m`` and
    ``v`` (name -> array) after ``step`` steps, written tensor by tensor:
    magic, header length, JSON header, then each tensor's float64 bytes."""
    tensors = {**params, **{f"adam.m.{n}": m[n] for n in params},
               **{f"adam.v.{n}": v[n] for n in params}}
    header = {"version": 1, "config": asdict(config), "chains": list(layout.entry_counts),
              "iteration": iteration, "adam_step": step,
              "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors.items()]}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"STHRN1\n" + struct.pack("<Q", len(blob)) + blob)
        for a in tensors.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
