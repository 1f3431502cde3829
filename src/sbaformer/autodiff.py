"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything the attention blocks need lives here: batched matmul,
elementwise add and reshape, a whole pre-norm attention branch as one op
(`layer`: layer norm, multi-head scaled dot-product attention within runs
of consecutive rows and residual, then layer norm, GELU feed-forward and
residual), whose attention splits its rows into heads itself and holds one
bounded chunk of weights at a time, the row moves of the subgraph layout
(a row permutation and a mean over each run of rows), a fused map of each
row joined with its run's summary (`fuse`) and the mean absolute error
loss. All data is 64-bit. matmul, layer and fuse feed a global FLOP
counter when counting is enabled. The tests compare each fused op bit for
bit with the unfused chain of tape ops it replaces, built on this module's
layer-norm, softmax, GELU and attention kernels.

Gradients are first-order only and are stored on leaf tensors (those created
with requires_grad=True rather than by an op); intermediate gradients live
only while backward() runs. backward() spends its tape: each node lets go
of what its backward saved as soon as that backward has run, and a second
call on the same tape raises ContractError. Grads accumulate across tapes
(forward and backward twice without resetting grads sums both), matching
the usual optimizer contract.

The tape links nodes, not tensors: an op output records a `_Node` of its
parents' nodes and its backward, and each backward closure captures only the
arrays, shapes and flags it reads (saved tensors, as in PyTorch's autograd;
Paszke et al. 2019). So an op output that no backward reads is freed once
the caller drops it. `layer` and fuse walk tiles of whole windows, one
window being an (n, d) slice of their input, with the tape on or off: the
forward writes each tile into one preallocated output, and the backward
reruns each tile's forward before its gradients (FlashAttention's trade
applied to window tiles; Dao et al. 2022). So layer-norm outputs, q, k
and v, the FFN hidden layer and the fuse concat exist only at tile size,
and with the tape off so does a layer's branch output u. One rule cuts
every such working set, and `predict`'s tiles, under a byte budget
(`_cover`), once per op call: tiles of windows, bands of a window's rows
and attention chunks of windows and heads. Zero windows give no tile,
empty outputs and input gradients and zero weight gradients. A layer's
node keeps its input, u, its weights and row statistics. On the e2e
config (n=64, d=32, batch 16) the tape after one forward holds 12.5
activation units, one unit being a (batch, n, d) float64 array.
"""
from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .errors import ContractError, EmptyRunError, NumericError, ShapeError

_DEBUG_CHECKS = True


class _GradMode(threading.local):
    """Whether ops record the tape, per thread: `no_grad` on one thread
    leaves another thread's forward on its tape."""

    enabled = True

    def __bool__(self):
        return self.enabled


_GRAD_ENABLED = _GradMode()


def set_debug_checks(enabled: bool) -> bool:
    """Toggle NaN/Inf detection after every op. Returns the previous setting."""
    global _DEBUG_CHECKS
    previous = _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)
    return previous


@contextlib.contextmanager
def no_grad():
    """Run forward passes on the calling thread without recording the tape."""
    previous = _GRAD_ENABLED.enabled
    _GRAD_ENABLED.enabled = False
    try:
        yield
    finally:
        _GRAD_ENABLED.enabled = previous


class FlopCounter:
    """One running FLOP count, multiplies plus adds, of the forward products
    of matmul, layer and fuse while enabled: b·m·n·(2k−1) per
    batch of b (m x k) @ (k x n) products.

    Disabled counting leaves results bit-identical; the counter only ever
    observes, never alters, the arithmetic. Callers measure a span as the
    difference of total() before and after it. add() takes a lock, so
    products counted from several threads at once (`predict`'s workers)
    lose no update; disabled counting never reaches it.
    """

    def __init__(self):
        self.count = 0
        self.enabled = False
        self._lock = threading.Lock()

    def add(self, n: int):
        with self._lock:
            self.count += n

    def total(self) -> int:
        return self.count

    @contextlib.contextmanager
    def counting(self):
        previous = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous


flops = FlopCounter()


class _Node:
    """The tape's record of one op output: its parents' nodes and its
    backward; no output data."""

    __slots__ = ("_parents", "_backward")
    requires_grad = True  # the tape records an op only when a parent needs a grad
    grad = None  # only leaf tensors get a grad

    def __init__(self, parents: tuple, backward):
        self._parents = parents
        self._backward = backward


class Tensor:
    """A float64 ndarray plus optional gradient and tape linkage.

    An op output made while the tape is on links to its op's `_Node`;
    `_parents` and `_backward` read through to it, so a walk of the tape
    from a tensor goes on through nodes. Every other tensor (a parameter,
    an input, a constant) is a node of its own, with no parents and no
    backward. The tape never holds an op output's `data`: a backward that
    reads it captures the array itself.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._op = None

    @property
    def _node(self):
        return self if self._op is None else self._op

    @property
    def _parents(self) -> tuple:
        return () if self._op is None else self._op._parents

    @property
    def _backward(self):
        return None if self._op is None else self._op._backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Add dself/dleaf to the grad of every leaf tensor on the tape.

        A leaf has requires_grad and no backward function: the parameters
        and inputs, not op outputs. One walk in reverse topological order
        runs each op node's backward and hands each leaf its grad, since
        every consumer of a node comes before it. An op output never gets a
        grad: its node's entry in the per-call grad map is dropped as soon
        as its backward has run. The root must be a scalar.

        The walk spends the tape: once a node's backward has run, the node
        holds `_spent` instead, so the arrays that backward saved are freed
        while the rest of the walk runs (PyTorch's autograd without
        retain_graph). A second call on the same tape raises ContractError;
        grads accumulate across tapes, one forward and backward each.
        """
        if self.data.shape != ():
            raise ContractError(
                f"backward root must be a scalar, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise ContractError("backward root does not depend on any gradient tensor")
        root = self._node
        order = _toposort(root)
        local = {id(root): np.asarray(1.0)}
        for node in reversed(order):
            g = local.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:  # a leaf
                g = np.asarray(g, dtype=np.float64)
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            grads = node._backward(g)
            node._backward = _spent  # its saved arrays go now, not when the walk ends
            g = None
            for parent, pg in zip(node._parents, grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in local:
                    local[key] = local[key] + pg
                else:
                    local[key] = pg
            grads = pg = None  # a summed-in gradient goes now, not during the next backward


def _spent(g):
    """The backward of a node whose backward has already run."""
    raise ContractError("backward already ran on this tape; run the forward again")


def _toposort(root: Tensor | _Node) -> list:
    """Iterative DFS, parents before children (tapes outgrow the recursion limit)."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _finite(data: np.ndarray, op: str) -> np.ndarray:
    if _DEBUG_CHECKS and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by {op}")
    return data


def _records(parents) -> bool:
    """Whether an op over these parents goes on the tape."""
    return _GRAD_ENABLED.enabled and any(p.requires_grad for p in parents)


def _from_op(data, op, parents, backward) -> Tensor:
    _finite(data, op)
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._op = _Node(tuple(p._node for p in parents), backward)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _from_op(data, "add", (a, b), backward)


def _count_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """Add out = a @ b to the FLOP counter, batch taken from out's leading axes."""
    if flops.enabled:
        m, k = a.shape[-2:]
        flops.add(math.prod(out.shape[:-2]) * m * b.shape[-1] * (2 * k - 1))


def matmul(a, b) -> Tensor:
    """Matrix product with numpy-style leading batch broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul needs 2-D or higher operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner extents disagree: {a.data.shape} x {b.data.shape}"
        )
    data = np.matmul(a.data, b.data)
    _count_matmul(a.data, b.data, data)
    a_shape, b_shape = a.data.shape, b.data.shape
    # each operand's gradient reads only the other operand
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        ga = gb = None
        if b_data is not None:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape)
        if a_data is not None:
            gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape)
        return ga, gb

    return _from_op(data, "matmul", (a, b), backward)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)
    x_shape = x.data.shape

    def backward(g):
        return (g.reshape(x_shape),)

    return _from_op(data, "reshape", (x,), backward)


def _softmax_rows(x: np.ndarray, stats=None) -> tuple:
    """Row softmax of x over the last axis, computed in place.

    x must be a scratch array the caller owns, which spares a fresh
    score-sized allocation. Returns (x, stats), stats being the row max
    and the row sum of the exponentials. Given the stats of an earlier call
    on the same values, it skips both reductions and gives the same bits.
    """
    top = x.max(axis=-1, keepdims=True) if stats is None else stats[0]
    x -= top
    np.exp(x, out=x)
    total = x.sum(axis=-1, keepdims=True) if stats is None else stats[1]
    x /= total
    return x, (top, total)


def _softmax_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient through y = softmax(x) over the last axis, given dL/dy = g."""
    inner = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - inner)


def _runs(sizes) -> tuple:
    """(sizes, starts) of consecutive row runs; every run holds at least one row."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.min(initial=1) < 1:
        raise EmptyRunError(f"a run of rows is empty: sizes {sizes.tolist()}")
    return sizes, np.cumsum(sizes) - sizes


def _check_rows(x: np.ndarray, rows: int, op: str):
    if x.ndim < 2 or x.shape[-2] != rows:
        raise ShapeError(f"{op} expects (..., {rows}, d), got {x.shape}")


def _run_weights(qi: np.ndarray, kt: np.ndarray, scale: float, stats=None) -> tuple:
    """Softmax weights of one attention run: softmax(qi @ kt * scale).

    The forward calls it without stats: it checks the scores for
    non-finite values and returns the row max and row sum it used. The
    backward passes them back in and so replays the forward's own ops in
    the same order, which rebuilds its weights bit for bit. Returns
    (weights, stats).
    """
    w = np.matmul(qi, kt)
    w *= scale
    if stats is None:
        _finite(w, "attention")
    return _softmax_rows(w, stats)


# Weights budget of one chunk of `layer`'s attention: a run's scores and the
# backward's three score-sized temporaries exist one chunk at a time. One activation
# unit of the e2e config (16 windows, 64 rows, width 32).
_ATTN_TILE_BYTES = 1 << 18
# Budget of one window tile of `layer` and `fuse`, in bytes of the tile's
# widest array of rows (its layer-norm output, q, k or v, or fuse's concat),
# and of one FFN sub-tile's hidden layer. Tile-sized temporaries then stay
# in L2 and below glibc's default mmap threshold (128 KiB), so the heap
# reuses them instead of mapping them afresh: with 256 KiB tiles an e2e
# training step's backward took about 2 ms (7%) longer.
_WINDOW_TILE_BYTES = 1 << 16
# Hidden-layer budget of one band of a window's rows in `layer`'s FFN
# forward, once the window is over _WINDOW_TILE_BYTES (so it is no smaller):
# 288 rows at width 64 (hidden 256), half an n=576 window. On two workers (a
# 2-core Xeon, BLAS on one thread) a `forecast_grid576` predict read 13%
# slower than with whole windows in bands of 128 rows and 3% in bands of
# 192; bands of 288 rows matched.
_FFN_BAND_BYTES = 576 << 10


def _head_view(rows: np.ndarray, heads: int) -> np.ndarray:
    """The (..., heads, n, d_head) view of (..., n, d) rows."""
    return np.swapaxes(rows.reshape(rows.shape[:-1] + (heads, rows.shape[-1] // heads)), -2, -3)


def _scale(width: int, heads: int) -> float:
    """1/sqrt(d_head) for `heads` heads side by side in `width` columns."""
    if heads < 1 or width % heads:
        raise ShapeError(f"attention cannot split width {width} into {heads} heads")
    return 1.0 / math.sqrt(width // heads)


def _cover(lead: tuple, item_bytes: int, budgets: tuple, least: int = 1) -> list:
    """Index tuples that cover the leading axes `lead` of an array whose
    innermost items take item_bytes each, one working set a tuple. Each axis
    goes in slices of as many of its items as fit its budget in `budgets`,
    and at least one; where one item is over budget and more axes follow,
    each item goes on its own, cut along the next axis the same way. A slice
    of the last axis holds at least `least` items, and a shorter last slice
    joins the one before it, so that slice may hold least - 1 items over its
    budget. Zero items, on any axis, give no tuple.
    """
    if not math.prod(lead):
        return []
    inner = item_bytes * math.prod(lead[1:])
    if inner > budgets[0] and len(lead) > 1:
        return [(slice(i, i + 1),) + rest for i in range(lead[0])
                for rest in _cover(lead[1:], item_bytes, budgets[1:], least)]
    least = least if len(lead) == 1 else 1
    cuts = list(range(0, lead[0], max(least, budgets[0] // max(1, inner)))) + [lead[0]]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] < least:
        del cuts[-2]
    return [(slice(a, b),) for a, b in zip(cuts, cuts[1:])]


def _pieces(lead: tuple, sizes: np.ndarray, starts: np.ndarray, whole: bool) -> list:
    """Indices into head views with leading axes `lead`: each run of rows,
    whole, or in chunks of the leading axes whose (..., s, s) weights fit
    _ATTN_TILE_BYTES where they can (`_cover`): windows when batched, and
    heads once one window's run is over budget."""
    budgets = (_ATTN_TILE_BYTES,) * len(lead)
    return [c + (..., slice(a, a + s), slice(None))
            for a, s in zip(starts.tolist(), sizes.tolist())
            for c in ([()] if whole else _cover(lead, 8 * s * s, budgets))]


def _attend(qd, kd, vd, out, pieces: list, scale: float, weights) -> list:
    """softmax(q k^T * scale) v over head views, piece by piece, written
    through the head view `out`. Returns each piece's row statistics, and
    appends each piece's weights to `weights` when it is a list."""
    stats = []
    for piece in pieces:
        qi, kt, vi, o = qd[piece], np.swapaxes(kd[piece], -1, -2), vd[piece], out[piece]
        w, st = _run_weights(qi, kt, scale)
        _count_matmul(qi, kt, w)
        np.matmul(w, vi, out=o)
        _count_matmul(w, vi, o)
        stats.append(st)
        if weights is not None:
            weights.append(w)
        del w  # free this chunk's weights before the next chunk's are made
    return stats


def _attend_backward(g, qd, kd, vd, grads: list, pieces: list, stats: list, scale: float):
    """The gradients of `_attend` given the head view g of dL/dout, written
    through the head views `grads` of q, k and v. Each piece's weights are
    rebuilt from q, k and the forward's statistics."""
    gq, gk, gv = grads
    for piece, st in zip(pieces, stats):
        w, _ = _run_weights(qd[piece], np.swapaxes(kd[piece], -1, -2), scale, st)
        gi = g[piece]
        np.matmul(np.swapaxes(w, -1, -2), gi, out=gv[piece])
        gs = _softmax_backward(np.matmul(gi, np.swapaxes(vd[piece], -1, -2)), w)
        gs *= scale
        np.matmul(gs, kd[piece], out=gq[piece])
        np.matmul(np.swapaxes(gs, -1, -2), qd[piece], out=gk[piece])


def _windows(rows: np.ndarray) -> np.ndarray:
    """The (windows, n, d) view of (..., n, d) rows: the leading axes become
    one axis of windows, and rows with none are one window."""
    return rows.reshape((-1,) + rows.shape[-2:])


def _add_windows(acc: np.ndarray, parts: np.ndarray):
    """Add each window's partial (windows, a, b) into acc, in window order:
    from zeros, the order of numpy's sum over the windows."""
    for part in parts:
        np.add(acc, part, out=acc)


def _sum_after(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """acc plus every row of rows (..., d), one at a time in order: numpy's
    one-pass sum over all leading axes, continued from acc. From zeros, tile
    by tile, it gives a whole batch's sum bit for bit, where adding per-tile
    sums would not."""
    return np.concatenate([acc[None], rows.reshape(-1, rows.shape[-1])]).sum(axis=0)


_LN_EPS = 1e-5  # added to the variance before the square root


def _normalize(x: np.ndarray, stats=None) -> tuple:
    """(xhat, stats): x normalized to mean 0 and variance 1 over its last
    axis, in its centred buffer, and stats its rows' mean and reciprocal
    deviation. Given the stats of an earlier call on the same rows, it skips
    both reductions and gives the same bits, as `_softmax_rows` does."""
    if stats is None:
        mu = _row_mean(x)
        xhat = x - mu  # centred here, normalized in place below
        stats = mu, 1.0 / np.sqrt(_row_mean(xhat * xhat) + _LN_EPS)
    else:
        xhat = x - stats[0]
    xhat *= stats[1]
    return xhat, stats


def _scale_shift(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """gamma * xhat + beta, in place of one temporary."""
    out = gamma * xhat
    out += beta
    return out


def _layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma) -> np.ndarray:
    """Gradient into x of the layer norm, given dL/dout = g."""
    gy = g * gamma
    return inv * (gy - _row_mean(gy) - xhat * _row_mean(gy * xhat))


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) with the same bits (numpy's mean is
    this sum divided by the count), without numpy's Python-level wrapper,
    whose cost shows on the small tiles of `layer`."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer(x, gamma1, beta1, wq, wk, wv, gamma2, beta2, w1, w2, sizes, heads: int,
          return_weights: bool = False):
    """One pre-norm attention branch, u = x + attention(h1 @ wq, h1 @ wk,
    h1 @ wv) and then u + gelu(h2 @ w1) @ w2, as one tape node. h1 is the
    layer norm of x scaled by gamma1 and shifted by beta1, h2 that of u by
    gamma2 and beta2. Run i of the attention computes, head by head,
    softmax(q k^T / sqrt(d_head)) v over its own rows only, at its exact
    size, so no mask is needed; sizes [n] is attention over all rows.

    x is (..., n, d) rows in consecutive runs of `sizes`; the gammas and
    betas are (d,), wq, wk and wv (d, d), w1 (d, hidden) and w2 (hidden,
    d). Returns (output, weights); weights is None unless return_weights is
    set, and then a list of arrays (..., heads, sizes[i], sizes[i]) whose
    rows sum to one, one whole run each, with all windows in one tile.

    Before its loops the op sizes its working sets once (`_cover`): tiles
    of whole windows within _WINDOW_TILE_BYTES of (n, d) rows and, per
    distinct tile length, attention's chunks (`_pieces`), the FFN forward's
    sub-tiles of windows within _WINDOW_TILE_BYTES of hidden layer or, a
    window over it, bands of its rows within _FFN_BAND_BYTES, and the FFN
    backward's sub-tiles. Per tile the forward runs the first layer norm,
    the projections and attention's chunks into u's rows, adds the
    residual, runs the second layer norm, and writes u + the FFN, its GELU
    built in the tanh's buffer, into the tile's rows of one preallocated
    output. A band holds two rows or more unless its window has one: numpy
    sends a one-row product to gemv, whose bits differ from gemm's on the
    window's rows. With the tape off, u's rows are the output's own, so u,
    like the layer-norm outputs, q, k, v and the hidden layer, exists only
    at tile size. With it on, the node keeps x, u and the row statistics of
    both layer norms and of each attention chunk.

    The backward walks the same tiles: it reruns each tile's second layer
    norm and its FFN in sub-tiles of whole windows, since a weight
    gradient's partial sums a window's rows, then the first layer norm and
    the projections before attention's chunked backward, all uncounted. So
    u's gradient exists only at tile size too, and x's goes over u's rows
    once the tile has read them. Every product is the chain's per-window
    BLAS call, each window's weight-gradient partial is added in window
    order, the first layer norm's input gradient adds the q, k and v terms
    in the chain's order and each gamma's and beta's gradient continues one
    row sum across tiles: all equals layer norm -> three matmuls -> attention
    -> add -> layer norm -> matmul -> gelu -> matmul -> add bit for bit.
    """
    x = as_tensor(x)
    params = [as_tensor(t) for t in (gamma1, beta1, wq, wk, wv, gamma2, beta2, w1, w2)]
    xd = x.data
    g1, b1, *wqkv, g2, b2, w1d, w2d = [p.data for p in params]
    d = xd.shape[-1] if xd.ndim >= 2 else None
    hidden = w1d.shape[-1] if w1d.ndim == 2 else None
    want = [(d,), (d,), (d, d), (d, d), (d, d), (d,), (d,), (d, hidden), (hidden, d)]
    if d is None or [p.data.shape for p in params] != want:
        raise ShapeError(
            f"layer expects x (..., n, d), gammas and betas (d,), wq, wk and wv (d, d), w1 "
            f"(d, h) and w2 (h, d); got x {xd.shape} and {[p.data.shape for p in params]}"
        )
    sizes, starts = _runs(sizes)
    _check_rows(xd, int(sizes.sum()), "layer")
    scale = _scale(d, heads)
    wins = _windows(xd)
    rows, row_bytes = wins.shape[1], 8 * hidden
    tiles = _cover((len(wins),), 8 * rows * d,
                   (wins.nbytes if return_weights else _WINDOW_TILE_BYTES,))
    plans = {k: (_pieces((k, heads), sizes, starts, return_weights),
                 _cover((k, rows), row_bytes, (_WINDOW_TILE_BYTES, _FFN_BAND_BYTES), 2),
                 _cover((k,), rows * row_bytes, (_WINDOW_TILE_BYTES,)))
             for k in {t.stop - t.start for t, in tiles}}
    tiles = [(t, plans[t.stop - t.start]) for t, in tiles]
    out = np.empty(wins.shape)
    ud = np.empty(wins.shape) if _records((x, *params)) else out  # u for the backward
    weights = [] if return_weights else None
    saved = []

    def normed(a, gamma, beta):
        """(h, stats): the layer norm of rows a, scaled and shifted in place
        (xhat * gamma has the bits of gamma * xhat)."""
        h, stats = _normalize(a)
        h *= gamma
        h += beta
        return h, stats

    def project(h, count: bool) -> list:
        """Head views of h @ wq, h @ wk and h @ wv, counted if asked."""
        qkv = [np.matmul(h, w) for w in wqkv]
        for w, a in zip(wqkv, qkv if count else ()):
            _count_matmul(h, w, a)
        return [_head_view(a, heads) for a in qkv]

    for t, (pieces, bands, _) in tiles:
        ut, ot = ud[t], out[t]
        h, norm1 = normed(wins[t], g1, b1)
        views = project(h, True)
        del h
        stats = _attend(*views, _head_view(ut, heads), pieces, scale, weights)
        del views
        ut += wins[t]
        h, norm2 = normed(ut, g2, b2)
        for band in bands:
            z = np.matmul(h[band], w1d)
            _count_matmul(h[band], w1d, z)
            _finite(z, "layer's ffn")
            act = _gelu_forward(z, False)[0]
            del z  # each band's temporaries go before the next one's exist
            f = np.matmul(act, w2d)
            _count_matmul(act, w2d, f)
            del act
            np.add(ut[band], f, out=ot[band])
            del f
        del h
        saved.append((norm1, stats, norm2))

    def ffn_backward(h, g, grads, subtiles):
        """The FFN's input gradient given dL/dout = g, its weight gradients
        added into grads."""
        gh = np.empty(h.shape)
        for s in subtiles:
            z = np.matmul(h[s], w1d)
            act, th = _gelu_forward(z, True)
            _add_windows(grads[1], np.matmul(np.swapaxes(act, -1, -2), g[s]))
            del act
            gz = _gelu_backward(np.matmul(g[s], w2d.T), z, th)
            del z, th
            _add_windows(grads[0], np.matmul(np.swapaxes(h[s], -1, -2), gz))
            np.matmul(gz, w1d.T, out=gh[s])
        return gh

    def attn_backward(norm, g, pieces, stats, grads):
        """The attention's input gradient given dL/du = g, norm() giving the
        tile's first layer-norm output; the weight gradients go into grads."""
        views = project(norm(), False)
        gqkv = [np.empty(g.shape) for _ in wqkv]
        _attend_backward(_head_view(g, heads), *views, [_head_view(a, heads) for a in gqkv],
                         pieces, stats, scale)
        del views
        h = norm()  # again, rather than outlive attention's backward
        for acc, ga in zip(grads, gqkv):
            _add_windows(acc, np.matmul(np.swapaxes(h, -1, -2), ga))
        del h
        gh = np.matmul(gqkv[0], wqkv[0].T)  # the chain's tape adds the q, k, v terms so
        gh += np.matmul(gqkv[1], wqkv[1].T)
        gh += np.matmul(gqkv[2], wqkv[2].T)
        return gh

    def backward(g):
        wins, g = _windows(xd), _windows(g)
        # the accumulators start from +0.0, as numpy's sums do
        sums = [np.zeros(d) for _ in range(4)]  # gamma1, beta1, gamma2, beta2
        grads = [np.zeros(w.shape) for w in (*wqkv, w1d, w2d)]
        for (t, (pieces, _, subtiles)), (norm1, stats, norm2) in zip(tiles, saved):
            xhat = _normalize(ud[t], norm2)[0]
            gh = ffn_backward(_scale_shift(xhat, g2, b2), g[t], grads[3:], subtiles)
            gu = g[t] + _layer_norm_backward(gh, xhat, norm2[1], g2)
            sums[2:] = _sum_after(sums[2], gh * xhat), _sum_after(sums[3], gh)
            xhat = _normalize(wins[t], norm1)[0]
            gh = attn_backward(lambda: _scale_shift(xhat, g1, b1), gu, pieces, stats, grads[:3])
            np.add(gu, _layer_norm_backward(gh, xhat, norm1[1], g1), out=ud[t])  # x's gradient
            sums[:2] = _sum_after(sums[0], gh * xhat), _sum_after(sums[1], gh)
        return (ud.reshape(xd.shape), *sums[:2], *grads[:3], *sums[2:], *grads[3:])

    if weights is not None:
        weights = [w.reshape(xd.shape[:-2] + w.shape[1:]) for w in weights]
    return _from_op(out.reshape(xd.shape), "layer", (x, *params), backward), weights


def segment_mean(x, sizes) -> Tensor:
    """Mean over each run of consecutive rows: (..., n, d) -> (..., len(sizes), d).

    The runs must tile the n rows. The backward repeats each run's gradient,
    divided by the run's size, over the run.
    """
    t = as_tensor(x)
    sizes, starts = _runs(sizes)
    _check_rows(t.data, int(sizes.sum()), "segment_mean")
    counts = sizes[:, None].astype(np.float64)
    data = np.add.reduceat(t.data, starts, axis=-2) / counts

    def backward(g):
        return (np.repeat(g / counts, sizes, axis=-2),)

    return _from_op(data, "segment_mean", (t,), backward)


def fuse(y, s, sizes, w) -> Tensor:
    """concat([y, s with row i repeated sizes[i] times]) @ w as one tape node
    that keeps y and s, not the concat.

    y is (..., n, d_y) rows in consecutive runs of `sizes`, which must sum
    to n; s is (..., len(sizes), d_s), one row a run, and w is
    (d_y + d_s, d_out). Row r of the output is [y_r, s_i] @ w for the run i
    that holds r. The op walks tiles of whole windows within
    _WINDOW_TILE_BYTES of concat: the forward joins a tile with np.repeat
    and np.concatenate into one preallocated output's rows, and the
    backward rebuilds each tile's join for w's gradient, added window by
    window. g @ w^T splits at d_y into y's gradient and the repeated rows',
    which np.add.reduceat sums over each run. These are the calls of the
    repeat_rows -> concat -> matmul chain, window by window, so everything
    equals the chain's bit for bit.
    """
    y, s, w = as_tensor(y), as_tensor(s), as_tensor(w)
    sizes, starts = _runs(sizes)
    _check_rows(y.data, int(sizes.sum()), "fuse")
    _check_rows(s.data, sizes.size, "fuse")
    yd, sd, wd = y.data, s.data, w.data
    width = yd.shape[-1]
    if wd.ndim != 2 or wd.shape[0] != width + sd.shape[-1] or yd.shape[:-2] != sd.shape[:-2]:
        raise ShapeError(
            f"fuse expects y (..., n, d_y), s (..., p, d_s) and w (d_y + d_s, d_out); got "
            f"{yd.shape}, {sd.shape} and {wd.shape}"
        )

    def join(wy, ws, t):
        """The concat of tile t of the windows wy and the repeated ws."""
        return np.concatenate([wy[t], np.repeat(ws[t], sizes, axis=-2)], axis=-1)

    wy, ws = _windows(yd), _windows(sd)
    out = np.empty(wy.shape[:-1] + wd.shape[1:])
    tiles = _cover((len(wy),), 8 * wy.shape[1] * wd.shape[0], (_WINDOW_TILE_BYTES,))
    for t in tiles:
        rows = join(wy, ws, t)
        np.matmul(rows, wd, out=out[t])
        _count_matmul(rows, wd, out[t])
        del rows

    def backward(g):
        wy, ws, g = _windows(yd), _windows(sd), _windows(g)
        gy, gs, gw = np.empty(wy.shape), np.empty(ws.shape), np.zeros(wd.shape)
        for t in tiles:
            g_y, g_rep = np.split(np.matmul(g[t], wd.T), [width], axis=-1)
            gy[t], gs[t] = g_y, np.add.reduceat(g_rep, starts, axis=-2)
            del g_y, g_rep
            _add_windows(gw, np.matmul(np.swapaxes(join(wy, ws, t), -1, -2), g[t]))
        return gy.reshape(yd.shape), gs.reshape(sd.shape), gw

    data = out.reshape(yd.shape[:-1] + wd.shape[1:])
    return _from_op(data, "fuse", (y, s, w), backward)


def permute_rows(x, order) -> Tensor:
    """Row i of the (..., n, d) output is row order[i] of x.

    order must be a permutation of range(n); the backward applies its
    inverse, so no gradient is summed.
    """
    t = as_tensor(x)
    order = np.asarray(order, dtype=np.int64)
    _check_rows(t.data, order.size, "permute_rows")
    if not np.array_equal(np.sort(order), np.arange(order.size)):
        raise ContractError("permute_rows: order is not a permutation of the rows")
    data = np.take(t.data, order, axis=-2)
    inverse = np.argsort(order)

    def backward(g):
        return (np.take(g, inverse, axis=-2),)

    return _from_op(data, "permute_rows", (t,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_forward(xd: np.ndarray, keep_tanh: bool) -> tuple:
    """(x * Phi(x), th) via the tanh approximation; the backward needs th.
    Without keep_tanh the output is built in th's buffer, with the same
    bits and one input-sized array fewer, and th is None.

    The cube is x * x * x: numpy's float power is an order of magnitude
    slower. In-place updates touch only arrays created here, never xd.
    """
    th = np.asarray(xd * xd)  # 0-d inputs give a scalar; keep an array for out=
    th *= xd
    th *= 0.044715
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    data = th + 1.0 if keep_tanh else np.add(th, 1.0, out=th)
    data *= xd
    data *= 0.5
    return data, th if keep_tanh else None


def _gelu_backward(g: np.ndarray, xd: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Gradient through GELU at xd, given dL/dy = g and the forward's th.

    Touches neither g nor xd, which may be shared or a read-only view.
    """
    # dgelu/dx = 0.5 (1 + th) + 0.5 x (1 - th^2) du/dx
    du = xd * xd
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    gx = th * th  # th^2 - 1 in place; the -0.5 restores the sign exactly
    gx -= 1.0
    gx *= xd
    gx *= -0.5
    gx *= du
    du = th + 1.0
    du *= 0.5
    gx += du
    gx *= g
    return gx


def mae(pred, target) -> Tensor:
    """Mean absolute error, the mean of |pred - target|, of two arrays of one
    shape. Only pred gets a gradient: target is data."""
    p, t = as_tensor(pred), as_tensor(target)
    diff = p.data - t.data
    data = np.abs(diff).mean()
    size = diff.size

    def backward(g):
        return np.sign(diff) * (g / size), None

    return _from_op(data, "mae", (p, t), backward)
