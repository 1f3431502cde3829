"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything the attention blocks need lives here: batched matmul,
elementwise add and reshape, fused multi-head scaled dot-product attention
within runs of consecutive rows (one run being attention over all rows)
that splits its rows into heads itself and holds one bounded chunk of
weights at a time, layer norm, a fused GELU feed-forward that recomputes
its hidden layer in the backward, the row moves of the subgraph layout (a
row permutation and a mean over each run of rows), a fused map of each row
joined with its run's summary (`fuse`) and the mean absolute error loss.
All data is 64-bit. matmul, attention, ffn and fuse feed a global FLOP
counter when counting is enabled.

The tests hold the unfused chains the fused ops replace (head split ->
matmul -> mul -> softmax -> matmul -> head merge for attention, matmul ->
gelu -> matmul for ffn, repeat_rows -> concat -> matmul for fuse) as tape
ops of their own, built on this module's row softmax and GELU kernels, and
compare the fused ops against them bit for bit.

Gradients are first-order only and are stored on leaf tensors (those created
with requires_grad=True rather than by an op); intermediate gradients live
only while backward() runs. Calling backward() again without resetting grads
accumulates, matching the usual optimizer contract.

The tape links nodes, not tensors: an op output records a `_Node` of its
parents' nodes and its backward, and each backward closure captures only the
arrays, shapes and flags it reads (saved tensors, as in PyTorch's autograd;
Paszke et al. 2019). So the tape keeps what the backward needs, and an op
output no backward reads, such as a residual sum or the attention output, is
freed once the caller drops it. A node may also offer a rebuild of its
output from what its own backward keeps, by the forward's own ops:
layer_norm's is gamma * xhat + beta, and a matmul whose backward keeps both
operands offers their product. An op whose backward reads an operand
(matmul, attention, ffn, fuse) keeps that rebuild, through `_saved`,
instead of the array, and gets the same bits back (selective recomputation;
Korthikanti et al. 2022). So attention over the projections of a layer norm
keeps only the layer norm's xhat and the three weights, and reruns the
projections in its backward; within one backward each such layer norm is
rebuilt at most twice. On the e2e config (n=64, d=32, batch 16) the tape
after one forward holds 12.4 activation units, one unit being a
(batch, n, d) float64 array.
"""
from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .errors import ContractError, EmptyRunError, NumericError, ShapeError

_DEBUG_CHECKS = True
_GRAD_ENABLED = True
# `shared`, inside a `_shared_reads` block of this thread: each rebuild read
# so far -> the array it gave, which later reads share (see `_saved`)
_READS = threading.local()


def set_debug_checks(enabled: bool) -> bool:
    """Toggle NaN/Inf detection after every op. Returns the previous setting."""
    global _DEBUG_CHECKS
    previous = _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)
    return previous


@contextlib.contextmanager
def no_grad():
    """Run forward passes without recording the tape."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class FlopCounter:
    """One running FLOP count, multiplies plus adds, of the forward products
    of matmul, attention, ffn and fuse while enabled: b·m·n·(2k−1) per
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
    """The tape's record of one op output: its parents' nodes, its backward
    and, for an op that offers one, a rebuild of its output; no output
    data."""

    __slots__ = ("_parents", "_backward", "_rebuild")
    requires_grad = True  # the tape records an op only when a parent needs a grad
    grad = None  # only leaf tensors get a grad

    def __init__(self, parents: tuple, backward, rebuild=None):
        self._parents = parents
        self._backward = backward
        self._rebuild = rebuild


class Tensor:
    """A float64 ndarray plus optional gradient and tape linkage.

    An op output made while the tape is on links to its op's `_Node`;
    `_parents` and `_backward` read through to it, so a walk of the tape
    from a tensor goes on through nodes. Every other tensor (a parameter,
    an input, a constant) is a node of its own, with no parents and no
    backward. The tape never holds an op output's `data`: a backward that
    reads it captures the array itself, or the rebuild its node offers.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op")
    _rebuild = None  # only op nodes offer a rebuild

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
        as its backward has run. The reads of a node's rebuild share one
        array until the walk reaches the node (see `_saved`). The root must
        be a scalar. Each call adds exactly one contribution, so repeated
        calls accumulate.
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
        with _shared_reads() as shared:
            for node in reversed(order):
                # every reader of this node's output has run its backward
                shared.pop(node._rebuild, None)
                g = local.pop(id(node), None)
                if g is None:
                    continue
                if node._backward is None:  # a leaf
                    g = np.asarray(g, dtype=np.float64)
                    node.grad = g.copy() if node.grad is None else node.grad + g
                    continue
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in local:
                        local[key] = local[key] + pg
                    else:
                        local[key] = pg


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


def _from_op(data, op, parents, backward, rebuild=None) -> Tensor:
    _finite(data, op)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._op = _Node(tuple(p._node for p in parents), backward, rebuild)
    return out


def _saved(t: Tensor):
    """A function that gives t's data back in a backward: the rebuild that
    t's op node offers, or else one that returns the array itself.

    A backward walk is a `_shared_reads` block: the first read of a
    rebuild serves every later read until the walk reaches t's node, after
    the last reader's backward has run. Readers must not write into what
    they are given.
    """
    rebuild = t._node._rebuild
    if rebuild is None:
        data = t.data
        return lambda: data

    def read():
        shared = getattr(_READS, "shared", None)
        if shared is None:
            return rebuild()
        out = shared.get(rebuild)
        if out is None:
            out = shared[rebuild] = rebuild()
        return out

    return read


@contextlib.contextmanager
def _shared_reads():
    """Reads of a rebuild inside the block share one array; the block
    yields them, keyed by rebuild. What the block rebuilds first goes when
    it ends; what an outer block rebuilt stays."""
    outer = getattr(_READS, "shared", None)
    _READS.shared = shared = {} if outer is None else dict(outer)
    try:
        yield shared
    finally:
        _READS.shared = outer


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
    a_saved = _saved(a) if b.requires_grad else None
    b_saved = _saved(b) if a.requires_grad else None
    rebuild = None
    if a_saved is not None and b_saved is not None:
        def rebuild():
            return np.matmul(a_saved(), b_saved())

    def backward(g):
        ga = gb = None
        if b_saved is not None:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b_saved(), -1, -2)), a_shape)
        if a_saved is not None:
            gb = _unbroadcast(np.matmul(np.swapaxes(a_saved(), -1, -2), g), b_shape)
        return ga, gb

    return _from_op(data, "matmul", (a, b), backward, rebuild)


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


# Weights budget of one `attention` chunk. A run's scores, their softmax and
# the backward's score-sized temporaries exist one chunk at a time. The
# backward holds three chunk-sized arrays at once (the rebuilt weights, the
# score gradient and the softmax-backward product) beside the rebuilt q, k
# and v and their gradients. The budget is one activation unit of the e2e
# config (16 windows, 64 rows, width 32), whose training step peaks in the
# last block's intra attention backward: at 25.7 units, against 23.6 at
# 64 KiB and 30.3 at 1 MiB.
_ATTN_TILE_BYTES = 1 << 18


def _chunks(lead: tuple, s: int) -> list:
    """Index prefixes that cut a run of s rows along the first of its
    leading axes `lead`: as many items a chunk as keep the chunk's
    (..., s, s) weights within _ATTN_TILE_BYTES, and at least one. An empty
    first axis gives one empty chunk."""
    step = max(1, _ATTN_TILE_BYTES // (8 * s * s * max(1, math.prod(lead[1:]))))
    return [(slice(lo, lo + step),) for lo in range(0, max(1, lead[0]), step)]


def attention(q, k, v, sizes, heads: int, return_weights: bool = False):
    """Multi-head scaled dot-product attention within each run of consecutive rows.

    q, k and v are (..., n, d) rows of `heads` heads side by side, each
    d_head = d / heads columns wide; sizes splits the n rows into
    consecutive runs and must sum to n. Run i computes, head by head,
    softmax(q k^T / sqrt(d_head)) v over its own rows only, at its exact
    size, so no mask is needed; sizes [n] is attention over all rows. The
    op works on (..., heads, n, d_head) views of its rows, and the output
    is (..., n, d) rows written through such a view of one buffer.

    Returns (output, weights). weights is None unless return_weights is
    set; then it is a list of arrays (..., heads, sizes[i], sizes[i]) whose
    rows sum to one, one whole run each. Otherwise each run goes in chunks
    of the first leading axis of the views (windows when batched, heads
    when not), as many as keep a chunk's weights within _ATTN_TILE_BYTES,
    so the op holds one chunk's weights at a time. It keeps only each
    chunk's row max and row sum of the softmax, and q, k and v through
    `_saved`: the arrays of leaves, the products that matmul outputs
    rebuild. The backward first rebuilds q, k and v, which share one
    rebuild of a common input, then walks the same chunks and rebuilds
    their weights from q and k with the row statistics (FlashAttention's
    recomputation; Dao et al. 2022). Every product is one
    BLAS call per 2-D slice and the softmax works row by row, so outputs
    and gradients equal those of a head split, matmul, scale, softmax,
    matmul and head merge bit for bit at any chunk size. No rebuild is
    counted as FLOPs.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    shape = q.data.shape
    if k.data.shape != shape or v.data.shape != shape:
        raise ShapeError(
            f"attention needs q, k and v of one shape (..., n, d); got "
            f"{q.data.shape}, {k.data.shape} and {v.data.shape}"
        )
    sizes, starts = _runs(sizes)
    _check_rows(q.data, int(sizes.sum()), "attention")
    if heads < 1 or shape[-1] % heads:
        raise ShapeError(f"attention cannot split width {shape[-1]} into {heads} heads")
    d_head = shape[-1] // heads

    def split(rows: np.ndarray) -> np.ndarray:
        """The (..., heads, n, d_head) view of (..., n, d) rows."""
        return np.swapaxes(rows.reshape(rows.shape[:-1] + (heads, d_head)), -2, -3)

    scale = 1.0 / math.sqrt(d_head)
    qd, kd, vd = split(q.data), split(k.data), split(v.data)
    pieces = [
        chunk + (..., slice(a, a + s), slice(None))
        for a, s in zip(starts.tolist(), sizes.tolist())
        for chunk in ([()] if return_weights else _chunks(qd.shape[:-2], s))
    ]
    data = np.empty(shape)
    heads_out = split(data)
    wants = [t.requires_grad for t in (q, k, v)]
    saved = [_saved(t) for t in (q, k, v)]
    stats = []
    weights = [] if return_weights else None
    for piece in pieces:
        qi, kt, vi, out = qd[piece], np.swapaxes(kd[piece], -1, -2), vd[piece], heads_out[piece]
        w, st = _run_weights(qi, kt, scale)
        _count_matmul(qi, kt, w)
        np.matmul(w, vi, out=out)
        _count_matmul(w, vi, out)
        stats.append(st)
        if weights is not None:
            weights.append(w)
        del w  # free this chunk's weights before the next chunk's are made

    def backward(g):
        with _shared_reads():  # q, k and v of one input rebuild it once
            qd, kd, vd = [split(rows()) for rows in saved]
        g = split(g)
        grads = [np.empty(shape) if want else None for want in wants]
        gq, gk, gv = (None if a is None else split(a) for a in grads)
        for piece, st in zip(pieces, stats):
            w, _ = _run_weights(qd[piece], np.swapaxes(kd[piece], -1, -2), scale, st)
            gi = g[piece]
            if gv is not None:
                np.matmul(np.swapaxes(w, -1, -2), gi, out=gv[piece])
            if gq is not None or gk is not None:
                gs = _softmax_backward(np.matmul(gi, np.swapaxes(vd[piece], -1, -2)), w)
                gs *= scale
                if gq is not None:
                    np.matmul(gs, kd[piece], out=gq[piece])
                if gk is not None:
                    np.matmul(np.swapaxes(gs, -1, -2), qd[piece], out=gk[piece])
        return tuple(grads)

    return _from_op(data, "attention", (q, k, v), backward), weights


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
    that holds r. The forward joins y and the repeated s with np.repeat and
    np.concatenate, and the backward rebuilds that join for w's gradient.
    g @ w^T splits at d_y into y's gradient and the repeated rows', which
    np.add.reduceat sums over each run. These are the calls of the
    repeat_rows -> concat -> matmul chain, so outputs, gradients and the
    FLOP count equal the chain's bit for bit.
    """
    y, s, w = as_tensor(y), as_tensor(s), as_tensor(w)
    sizes, starts = _runs(sizes)
    _check_rows(y.data, int(sizes.sum()), "fuse")
    _check_rows(s.data, sizes.size, "fuse")
    width = y.data.shape[-1]
    if w.data.ndim != 2 or w.data.shape[0] != width + s.data.shape[-1]:
        raise ShapeError(
            f"fuse expects w ({width} + {s.data.shape[-1]}, d_out); got {w.data.shape}"
        )

    # the repeat lives until the product exists, as in the chain: freeing it
    # first fragments the heaps of `predict`'s worker threads, whose peak RSS
    # then creeps up by several MB over a long run
    rep = np.repeat(s.data, sizes, axis=-2)
    rows = np.concatenate([y.data, rep], axis=-1)
    data = np.matmul(rows, w.data)
    _count_matmul(rows, w.data, data)
    del rows, rep
    w_shape = w.data.shape
    y_saved, s_saved = (_saved(y), _saved(s)) if w.requires_grad else (None, None)
    w_saved = _saved(w) if y.requires_grad or s.requires_grad else None

    def backward(g):
        gy = gs = gw = None
        if w_saved is not None:
            gy, g_rep = np.split(np.matmul(g, np.swapaxes(w_saved(), -1, -2)), [width], axis=-1)
            gs = np.add.reduceat(g_rep, starts, axis=-2)
        if y_saved is not None:
            rows = np.concatenate([y_saved(), np.repeat(s_saved(), sizes, axis=-2)], axis=-1)
            gw = _unbroadcast(np.matmul(np.swapaxes(rows, -1, -2), g), w_shape)
        return gy, gs, gw

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


_LN_EPS = 1e-5  # added to the variance before the square root


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift.

    The tape node offers a rebuild of the output from xhat, which the
    backward keeps anyway, by the forward's own two ops. So an op that
    reads the output in its backward (matmul, ffn, and attention through
    the projections' rebuilds) keeps the rebuild instead of the array, and
    gets the same bits back.
    """
    t, ga, be = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = t.data.mean(axis=-1, keepdims=True)
    xhat = t.data - mu  # centred here, normalized in place below
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    gamma, want_gamma = ga.data, ga.requires_grad
    beta, want_beta = be.data, be.requires_grad

    def rebuild():
        out = gamma * xhat
        out += beta
        return out

    data = rebuild()

    def backward(g):
        gy = g * gamma
        gx = inv * (
            gy
            - gy.mean(axis=-1, keepdims=True)
            - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
        )
        g_gamma = _unbroadcast(g * xhat, gamma.shape) if want_gamma else None
        g_beta = _unbroadcast(g, beta.shape) if want_beta else None
        return gx, g_gamma, g_beta

    return _from_op(data, "layer_norm", (t, ga, be), backward, rebuild)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_forward(xd: np.ndarray) -> tuple:
    """(x * Phi(x), th) via the tanh approximation; the backward needs th.

    The cube is x * x * x: numpy's float power is an order of magnitude
    slower. In-place updates touch only arrays created here, never xd.
    """
    th = np.asarray(xd * xd)  # 0-d inputs give a scalar; keep an array for out=
    th *= xd
    th *= 0.044715
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    data = th + 1.0
    data *= xd
    data *= 0.5
    return data, th


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


# Hidden-layer budget of one `ffn` tile. Its few tile-sized temporaries stay
# in L2 and below glibc's default mmap threshold (128 KiB), so the heap
# reuses them every step instead of mapping and faulting them in afresh.
_FFN_TILE_BYTES = 1 << 16


def ffn(x, w1, w2) -> Tensor:
    """gelu(x @ w1) @ w2 as one tape node that saves only its inputs.

    x is (..., n, d); w1 (d, h) and w2 (h, d_out) are 2-D. Each (n, d)
    slice of x is a window, and the op runs a tile of whole windows at a
    time: as many as keep the tile's hidden layer within _FFN_TILE_BYTES,
    and at least one. The backward reruns each tile's x @ w1 and GELU
    instead of keeping the hidden layer, its tanh and the GELU output on
    the tape. Every product is the chain's per-window BLAS call, and each
    window's weight-gradient partial is added, in window order, into one
    accumulator per weight, which is the order of matmul's _unbroadcast
    sum over the leading axes. So outputs, gradients and the FLOP count
    equal those of matmul -> gelu -> matmul bit for bit. The rerun is not
    counted.
    """
    x, w1, w2 = as_tensor(x), as_tensor(w1), as_tensor(w2)
    if (x.data.ndim < 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or x.data.shape[-1] != w1.data.shape[0] or w1.data.shape[1] != w2.data.shape[0]):
        raise ShapeError(
            f"ffn expects x (..., n, d), w1 (d, h) and w2 (h, d_out); got "
            f"{x.data.shape}, {w1.data.shape} and {w2.data.shape}"
        )
    x_shape, w1d, w2d = x.data.shape, w1.data, w2.data
    want_x, want_w1, want_w2 = (t.requires_grad for t in (x, w1, w2))
    wins = x.data.reshape((-1,) + x_shape[-2:])
    out = np.empty(wins.shape[:-1] + w2d.shape[1:])
    tile = max(1, _FFN_TILE_BYTES // (8 * w1d.shape[1] * wins.shape[1]))
    tiles = [slice(lo, lo + tile) for lo in range(0, len(wins), tile)]
    for t in tiles:
        h = np.matmul(wins[t], w1d)
        _count_matmul(wins[t], w1d, h)
        _finite(h, "ffn")
        act, _ = _gelu_forward(h)
        np.matmul(act, w2d, out=out[t])
        _count_matmul(act, w2d, out[t])
    out_shape = out.shape
    x_saved = _saved(x)

    def backward(g):
        g = g.reshape(out_shape)
        wins = x_saved().reshape((-1,) + x_shape[-2:])
        gx = np.empty(wins.shape) if want_x else None
        # the accumulators start from +0.0, as numpy's leading-axis sum does
        gw1 = np.zeros(w1d.shape) if want_w1 else None
        gw2 = np.zeros(w2d.shape) if want_w2 else None
        for t in tiles:
            h = np.matmul(wins[t], w1d)
            act, th = _gelu_forward(h)
            if gw2 is not None:
                for part in np.matmul(np.swapaxes(act, -1, -2), g[t]):
                    gw2 += part
            gh = _gelu_backward(np.matmul(g[t], np.swapaxes(w2d, -1, -2)), h, th)
            if gx is not None:
                np.matmul(gh, np.swapaxes(w1d, -1, -2), out=gx[t])
            if gw1 is not None:
                for part in np.matmul(np.swapaxes(wins[t], -1, -2), gh):
                    gw1 += part
        return None if gx is None else gx.reshape(x_shape), gw1, gw2

    data = out.reshape(x_shape[:-1] + w2d.shape[1:])
    return _from_op(data, "ffn", (x, w1, w2), backward)


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
