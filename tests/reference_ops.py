"""Unfused tape ops that the fused-op tests compare against bit for bit.

The model never calls these. They are the reference chains of the fused
ops in `sbaformer.autodiff`: layer_norm -> three matmuls -> attention ->
add and then layer_norm -> matmul -> gelu -> matmul -> add for `layer`,
and repeat_rows -> concat -> matmul for `fuse`. Each one runs the
package's own kernels (`_normalize`, `_softmax_rows`, `_gelu_forward` and
their backwards) one op at a time, so any difference from a fused op is
the fusion's. `attention` is `layer`'s attention as an op of its own, on
the package's chunked kernels (`_attend` and its backward); the tests
check it in turn against a head split (reshape -> swapaxes), matmul ->
mul -> softmax -> matmul and a head merge (swapaxes -> reshape).
"""
import numpy as np

from sbaformer.autodiff import (
    Tensor,
    _attend,
    _attend_backward,
    _check_rows,
    _from_op,
    _gelu_backward,
    _gelu_forward,
    _head_view,
    _layer_norm_backward,
    _normalize,
    _pieces,
    _scale,
    _scale_shift,
    _runs,
    _softmax_backward,
    _softmax_rows,
    _unbroadcast,
    as_tensor,
)
from sbaformer.errors import ShapeError


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    # each operand's gradient reads only the other operand
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        ga = None if b_data is None else _unbroadcast(g * b_data, a_shape)
        gb = None if a_data is None else _unbroadcast(g * a_data, b_shape)
        return ga, gb

    return _from_op(data, "mul", (a, b), backward)


def swapaxes(x, axis1: int, axis2: int) -> Tensor:
    t = as_tensor(x)
    data = np.swapaxes(t.data, axis1, axis2)

    def backward(g):
        return (np.swapaxes(g, axis1, axis2),)

    return _from_op(data, "swapaxes", (t,), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data
    a_shape, a_grad, b_data = a.data.shape, a.requires_grad, b.data
    a_data = a.data if b.requires_grad else None  # only b's gradient reads a

    def backward(g):
        ga = _unbroadcast(g / b_data, a_shape) if a_grad else None
        gb = (
            _unbroadcast(-g * a_data / (b_data * b_data), b_data.shape)
            if a_data is not None
            else None
        )
        return ga, gb

    return _from_op(data, "div", (a, b), backward)


def concat(parts, axis: int = -1) -> Tensor:
    ts = [as_tensor(p) for p in parts]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]

    def backward(g):
        return tuple(np.split(g, np.cumsum(sizes[:-1]), axis=axis))

    return _from_op(data, "concat", tuple(ts), backward)


def repeat_rows(x, sizes) -> Tensor:
    """Row i of (..., p, d) repeated sizes[i] times: (..., sum(sizes), d).

    The adjoint of a per-run sum, which is what the backward computes.
    """
    t = as_tensor(x)
    sizes, starts = _runs(sizes)
    _check_rows(t.data, sizes.size, "repeat_rows")
    data = np.repeat(t.data, sizes, axis=-2)

    def backward(g):
        return (np.add.reduceat(g, starts, axis=-2),)

    return _from_op(data, "repeat_rows", (t,), backward)


def softmax(logits) -> Tensor:
    """Softmax over the last axis; each row sums to 1.

    Stabilization subtracts the row max before exp.
    """
    x = as_tensor(logits)
    y, _ = _softmax_rows(x.data.copy())

    def backward(g):
        return (_softmax_backward(g, y),)

    return _from_op(y, "softmax", (x,), backward)


def gelu(x) -> Tensor:
    """x * Phi(x) via the tanh approximation."""
    t = as_tensor(x)
    xd = t.data
    data, th = _gelu_forward(xd, True)

    def backward(g):
        return (_gelu_backward(g, xd, th),)

    return _from_op(data, "gelu", (t,), backward)


def tensor_sum(x) -> Tensor:
    t = as_tensor(x)
    data = t.data.sum()
    shape = t.data.shape

    def backward(g):
        return (np.broadcast_to(g, shape),)

    return _from_op(data, "sum", (t,), backward)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then scale and shift."""
    t, ga, be = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xhat, (_, inv) = _normalize(t.data)
    data = _scale_shift(xhat, ga.data, be.data)
    gamma, want_gamma = ga.data, ga.requires_grad
    beta_shape, want_beta = be.data.shape, be.requires_grad

    def backward(g):
        g_gamma = _unbroadcast(g * xhat, gamma.shape) if want_gamma else None
        g_beta = _unbroadcast(g, beta_shape) if want_beta else None
        return _layer_norm_backward(g, xhat, inv, gamma), g_gamma, g_beta

    return _from_op(data, "layer_norm", (t, ga, be), backward)


def attention(q, k, v, sizes, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within each run of consecutive rows.

    q, k and v are (..., n, d) rows of `heads` heads side by side, each
    d_head = d / heads columns wide; sizes splits the n rows into
    consecutive runs and must sum to n. Run i computes, head by head,
    softmax(q k^T / sqrt(d_head)) v over its own rows only, at its exact
    size; sizes [n] is attention over all rows. The op works on (..., heads,
    n, d_head) views of its rows, and the output is (..., n, d) rows written
    through such a view of one buffer.

    Each run goes in chunks of the views' leading axes (`_pieces`) within
    `_ATTN_TILE_BYTES`, as in `layer`. The op keeps q, k and v and each
    chunk's row max and row sum of the softmax; the backward rebuilds each
    chunk's weights from them, uncounted. Outputs and gradients equal those
    of the unfused chain bit for bit at any chunk size.
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
    scale = _scale(shape[-1], heads)
    qd, kd, vd = (_head_view(t.data, heads) for t in (q, k, v))
    pieces = _pieces(qd.shape[:-2], sizes, starts, False)
    data = np.empty(shape)
    stats = _attend(qd, kd, vd, _head_view(data, heads), pieces, scale, None)

    def backward(g):
        grads = [np.empty(shape) for _ in range(3)]
        views = [_head_view(a, heads) for a in grads]
        _attend_backward(_head_view(g, heads), qd, kd, vd, views, pieces, stats, scale)
        return tuple(grads)

    return _from_op(data, "attention", (q, k, v), backward)
