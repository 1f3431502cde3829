"""Tensor core: forward contracts, the FLOP counter, and gradient soundness."""
import ast
import itertools
import math
import sys
import threading
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from sbaformer import autodiff as ad
from sbaformer.autodiff import Tensor
from sbaformer.errors import ContractError, EmptyRunError, NumericError, ShapeError

import reference_ops as rops


def matmul_oracle(a, b):
    """Independent scalar triple loop."""
    a, b = np.asarray(a), np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def numeric_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar fn at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-8):
    gap = np.abs(analytic - numeric)
    ok = (gap <= atol) | (gap <= rtol * np.maximum(np.abs(analytic), np.abs(numeric)))
    assert ok.all(), f"worst gap {gap.max()} at {np.unravel_index(gap.argmax(), gap.shape)}"


class TestMatmul:
    def test_identity(self):
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(Tensor(np.eye(2)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_against_triple_loop_oracle(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_array_equal(out.data, matmul_oracle(a, b))
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            ad.matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), atol=1e-12
        )

    def test_zero_case(self):
        out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch_mentions_both_shapes(self):
        with pytest.raises(ShapeError, match=r"2, 3.*4, 4"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 4))))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 2, 4, 5))
        b = rng.standard_normal((5, 6))
        out = ad.matmul(Tensor(a), Tensor(b)).data
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(out[i, j], a[i, j] @ b, atol=1e-12)


class TestFlopCounter:
    def test_matmul_counts_exactly(self):
        before = ad.flops.total()
        with ad.flops.counting():
            ad.matmul(Tensor(np.ones((3, 5))), Tensor(np.ones((5, 7))))
        assert ad.flops.total() - before == 3 * 7 * 5 + 3 * 7 * (5 - 1)

    def test_batched_count_scales_with_batch(self):
        before = ad.flops.total()
        with ad.flops.counting():
            ad.matmul(Tensor(np.ones((4, 3, 5))), Tensor(np.ones((5, 7))))
        assert ad.flops.total() - before == 4 * (3 * 7 * 5 + 3 * 7 * (5 - 1))

    def test_disabled_counting_is_bit_identical(self):
        a, b = np.random.default_rng(1).standard_normal((2, 8, 8))
        plain = ad.matmul(Tensor(a), Tensor(b)).data
        with ad.flops.counting():
            counted = ad.matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(plain, counted)

    def test_monotone_while_enabled(self):
        before = ad.flops.total()
        with ad.flops.counting():
            seen = []
            for _ in range(3):
                ad.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
                seen.append(ad.flops.total() - before)
        assert seen == sorted(seen) and seen[0] > 0

    def test_total_is_multiplies_plus_adds(self):
        before = ad.flops.total()
        with ad.flops.counting():
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        assert ad.flops.total() - before == 12 + 8

    def test_disabled_counting_is_bit_identical_for_attention(self):
        q, k, v = np.random.default_rng(2).standard_normal((3, 2, 5, 4))
        arrays = layer_arrays(np.random.default_rng(3), (2,), 5, 4, 8)

        def run():
            qt, kt, vt = (Tensor(a.copy(), requires_grad=True) for a in (q, k, v))
            out = rops.attention(qt, kt, vt, [2, 3], 2)
            rops.tensor_sum(rops.mul(out, out)).backward()
            # the layer's attention weights, which only a capture returns
            y, weights = ad.layer(*(Tensor(a) for a in arrays), [2, 3], 2, return_weights=True)
            return [out.data, qt.grad, kt.grad, vt.grad, y.data, *weights]

        plain = run()
        with ad.flops.counting():
            counted = run()
        assert len(plain) == 7
        assert all(np.array_equal(a, b) for a, b in zip(plain, counted))


class TestMaskedSoftmax:
    def test_symmetric_no_mask(self):
        out = rops.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_log3_hand_value(self):
        out = rops.softmax(Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_input_untouched(self):
        # the shared row softmax works in place on a scratch copy
        x0 = np.random.default_rng(6).standard_normal((3, 4))
        x = Tensor(x0.copy())
        rops.softmax(x)
        assert np.array_equal(x.data, x0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((5, 9)) * 30
        out = rops.softmax(Tensor(logits)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out > 0.0).all()


def split_heads(x, heads):
    """(..., n, d) rows -> (..., heads, n, d / heads), as tape ops."""
    out = ad.reshape(x, x.shape[:-1] + (heads, x.shape[-1] // heads))
    return rops.swapaxes(out, -2, -3)


def merge_heads(x):
    """(..., heads, n, d_head) -> (..., n, heads * d_head), as tape ops."""
    out = rops.swapaxes(x, -2, -3)
    return ad.reshape(out, out.shape[:-2] + (out.shape[-2] * out.shape[-1],))


def unfused_attention(q, k, v, heads):
    """The chain rops.attention replaces within each run: split the rows into
    heads, then matmul -> mul -> softmax -> matmul, then merge the heads.
    Returns the output rows and the (..., heads, n, n) weights."""
    q, k, v = (split_heads(t, heads) for t in (q, k, v))
    scale = 1.0 / np.sqrt(q.shape[-1])
    alpha = rops.softmax(rops.mul(ad.matmul(q, rops.swapaxes(k, -1, -2)), scale))
    return merge_heads(ad.matmul(alpha, v)), alpha


class TestAttention:
    def _run(self, fn, q, k, v, weights):
        qt, kt, vt = (Tensor(a.copy(), requires_grad=True) for a in (q, k, v))
        out = fn(qt, kt, vt)
        rops.tensor_sum(rops.mul(out, Tensor(weights))).backward()
        return [out.data, qt.grad, kt.grad, vt.grad]

    def test_matches_unfused_chain_bit_for_bit(self):
        # (batch, s, d) rows of 2 heads as one run, as inter attention sees them
        q, k, v = np.random.default_rng(12).standard_normal((3, 3, 5, 8))
        weights = np.random.default_rng(13).standard_normal(q.shape)
        fused = self._run(lambda qt, kt, vt: rops.attention(qt, kt, vt, [5], 2), q, k, v, weights)
        chain = self._run(lambda qt, kt, vt: unfused_attention(qt, kt, vt, 2)[0], q, k, v, weights)
        for a, b in zip(fused, chain):
            assert np.array_equal(a, b)

    def test_weights_only_on_request(self):
        # only `layer` returns weights, for a capture; attention returns rows
        arrays = layer_arrays(np.random.default_rng(14), (2,), 6, 4, 8)
        out, weights = ad.layer(*(Tensor(a) for a in arrays), [2, 4], 2)
        kept, asked = ad.layer(*(Tensor(a) for a in arrays), [2, 4], 2, return_weights=True)
        assert weights is None and np.array_equal(out.data, kept.data)
        assert [w.shape for w in asked] == [(2, 2, 2, 2), (2, 2, 4, 4)]
        q = Tensor(arrays[0])
        assert isinstance(rops.attention(q, q, q, [2, 4], 2), Tensor)

    def test_tape_off_holds_one_run_of_weights(self):
        # the largest run comes last, so the peak falls in it: beside its
        # output the op holds that run's weights and its own temporaries
        # (259.7 KB, 1.5 times the weights), less than all runs' weights
        sizes = [30, 10, 40, 20, 60]
        b, h = 2, 3
        q, k, v = (Tensor(a) for a in np.random.default_rng(15).standard_normal(
            (3, b, sum(sizes), h * 4)))
        tracemalloc.start()
        try:
            with ad.no_grad():
                out = rops.attention(q, k, v, sizes, h)
            peak = tracemalloc.get_traced_memory()[1] - out.data.nbytes
        finally:
            tracemalloc.stop()
        squares = [s * s for s in sizes]
        assert 8 * b * h * max(squares) <= peak < 8 * b * h * sum(squares)

    def test_tape_holds_row_statistics_not_weights(self):
        # after the forward the op keeps each run's row max and row sum, two
        # values per row, which is less than even its largest run's weights
        sizes = [12, 5, 20, 9]
        b, h = 2, 3
        q, k, v = (Tensor(a, requires_grad=True) for a in np.random.default_rng(16).standard_normal(
            (3, b, sum(sizes), h * 4)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = rops.attention(q, k, v, sizes, h)
            held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held < 8 * b * h * max(sizes) ** 2

    def test_extent_mismatch_raises(self):
        with pytest.raises(ShapeError):
            rops.attention(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 5))),
                         Tensor(np.ones((3, 2))), [3], 1)
        with pytest.raises(ShapeError):
            rops.attention(Tensor(np.ones(4)), Tensor(np.ones((3, 4))), Tensor(np.ones((3, 2))), [3], 1)

    def test_q_k_and_v_of_different_shapes_raise(self):
        rows = Tensor(np.ones((2, 3, 4)))
        for other in ((2, 3, 2), (2, 3, 8), (1, 3, 4), (3, 4)):
            for args in ((Tensor(np.ones(other)), rows, rows), (rows, Tensor(np.ones(other)), rows),
                         (rows, rows, Tensor(np.ones(other)))):
                with pytest.raises(ShapeError, match="one shape"):
                    rops.attention(*args, [3], 2)

    @pytest.mark.parametrize("heads", [3, 5, 0, -2])
    def test_width_not_divisible_by_heads_raises(self, heads):
        rows = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError, match=f"width 4 into {heads} heads"):
            rops.attention(rows, rows, rows, [3], heads)


class TestSubgraphAttention:
    SIZES = [5, 1, 3]

    def _leaves(self, seed):
        """(batch, n, d) leaves of 2 heads whose 9 rows form runs of 5, 1 and 3."""
        rng = np.random.default_rng(seed)
        return [Tensor(a, requires_grad=True) for a in rng.standard_normal((3, 2, 9, 8))]

    def test_each_part_matches_attention_on_its_slice(self):
        q, k, v = self._leaves(20)
        weights = np.random.default_rng(21).standard_normal(q.shape)
        out = rops.attention(q, k, v, self.SIZES, 2)
        rops.tensor_sum(rops.mul(out, Tensor(weights))).backward()
        for a, s in zip([0, 5, 6], self.SIZES):
            part = (..., slice(a, a + s), slice(None))
            qs, ks, vs = (Tensor(t.data[part], requires_grad=True) for t in (q, k, v))
            ref, _ = unfused_attention(qs, ks, vs, 2)
            rops.tensor_sum(rops.mul(ref, Tensor(weights[part]))).backward()
            got = [out.data[part], q.grad[part], k.grad[part], v.grad[part]]
            want = [ref.data, qs.grad, ks.grad, vs.grad]
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_empty_part_raises(self):
        q, k, v = self._leaves(22)
        with pytest.raises(EmptyRunError):
            rops.attention(q, k, v, [5, 0, 4], 2)

    def test_bad_sizes_or_shapes_raise(self):
        q, k, v = self._leaves(23)
        for sizes in ([5, 1], [6, 1, 3], []):  # 6, 10 and 0 rows for 9
            with pytest.raises(ShapeError):
                rops.attention(q, k, v, sizes, 2)
        with pytest.raises(ShapeError):
            rops.attention(q, Tensor(k.data[..., :6]), v, self.SIZES, 2)


class TestAttentionChunks:
    """Each run goes in chunks of the leading axes of the op's head views:
    windows, and heads once one window's run is over budget; the bits must
    not move."""

    SIZES = [3, 1, 4]

    def _leaves(self, lead, heads, seed):
        """q, k and v rows of `heads` heads of width 4 and the output's weights."""
        rng = np.random.default_rng(seed)
        shape = lead + (sum(self.SIZES), 4 * heads)
        return rng.standard_normal((3,) + shape), rng.standard_normal(shape)

    def _run(self, qkv, heads, weights):
        qt, kt, vt = (Tensor(a.copy(), requires_grad=True) for a in qkv)
        before = ad.flops.total()
        with ad.flops.counting():
            out = rops.attention(qt, kt, vt, self.SIZES, heads)
        counted = ad.flops.total() - before
        rops.tensor_sum(rops.mul(out, Tensor(weights))).backward()
        return [out.data, qt.grad, kt.grad, vt.grad], counted

    # batched: 5 windows of 2 heads; unbatched: 5 heads; no-lead: rows with
    # no leading axis and one head, so the heads view has a single item
    @pytest.mark.parametrize("lead, heads", [((5,), 2), ((), 5), ((), 1)],
                             ids=["batched", "unbatched", "no-lead"])
    @pytest.mark.parametrize("step", [1, 2, None, 0.5], ids=["1", "ragged", "all", "head"])
    def test_matches_the_unchunked_op_bit_for_bit(self, monkeypatch, lead, heads, step):
        # chunks of one item, of two (5 items end in a ragged chunk of one)
        # in the largest run, of every item, and of half an item: one head
        # of a batched window at a time
        qkv, weights = self._leaves(lead, heads, 50 + len(lead))
        whole, whole_flops = self._run(qkv, heads, weights)
        per_item = 8 * math.prod((lead + (heads,))[1:]) * max(self.SIZES) ** 2
        monkeypatch.setattr(ad, "_ATTN_TILE_BYTES",
                            1 << 40 if step is None else int(step * per_item))
        chunked, chunked_flops = self._run(qkv, heads, weights)
        assert all(np.array_equal(a, b) for a, b in zip(chunked, whole))
        assert chunked_flops == whole_flops

    def test_chunks_cover_the_first_leading_axis(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ad, "_count_matmul", lambda a, b, out: calls.append(out.shape[0]))
        monkeypatch.setattr(ad, "_ATTN_TILE_BYTES", 2 * 8 * 2 * 4 * 4)
        qkv, _ = self._leaves((5,), 2, 54)
        rops.attention(*(Tensor(a) for a in qkv), self.SIZES, 2)
        # scores then output per chunk: runs of 3, 1 and 4 rows take 3, 5
        # and 2 windows a chunk
        assert calls == [3, 3, 2, 2, 5, 5, 2, 2, 2, 2, 1, 1]

    def test_chunks_cut_heads_once_a_window_is_over_budget(self, monkeypatch):
        # a budget of one head's weights in the run of 4: one window's runs
        # of 3 (2 heads, 144 B) and 4 (256 B) are over it, so they go a
        # window and a head at a time; the run of 1 (16 B a window) fits 8
        # windows, so all 5 go at once
        calls = []
        monkeypatch.setattr(ad, "_count_matmul",
                            lambda a, b, out: calls.append(out.shape[:2]))
        monkeypatch.setattr(ad, "_ATTN_TILE_BYTES", 8 * 4 * 4)
        qkv, _ = self._leaves((5,), 2, 57)
        rops.attention(*(Tensor(a) for a in qkv), self.SIZES, 2)
        assert calls == [(1, 1)] * 20 + [(5, 2)] * 2 + [(1, 1)] * 20

    def test_weights_are_whole_runs_at_any_budget(self, monkeypatch):
        # a layer's capture holds whole runs, and they are the reference
        # softmax of its projections run by run
        arrays = layer_arrays(np.random.default_rng(55), (5,), sum(self.SIZES), 8, 16)
        leaves = [Tensor(a) for a in arrays]
        whole, alpha = ad.layer(*leaves, self.SIZES, 2, return_weights=True)
        monkeypatch.setattr(ad, "_ATTN_TILE_BYTES", 1)
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", 1)
        chunked, chunked_alpha = ad.layer(*leaves, self.SIZES, 2, return_weights=True)
        assert [a.shape for a in chunked_alpha] == [(5, 2, s, s) for s in self.SIZES]
        assert all(np.array_equal(a, b) for a, b in zip([chunked.data] + chunked_alpha,
                                                        [whole.data] + alpha))
        assert all(np.array_equal(a, b) for a, b in zip(alpha, reference_weights(
            arrays, self.SIZES, 2)))

    @pytest.mark.parametrize("lead", [(0, 2), (2, 0), (0,)])
    def test_empty_leading_axis(self, monkeypatch, lead):
        monkeypatch.setattr(ad, "_ATTN_TILE_BYTES", 1)
        qkv, weights = self._leaves(lead, 2, 56)
        got, counted = self._run(qkv, 2, weights)
        assert [a.shape for a in got] == [weights.shape] * 4
        assert counted == 0


def uneven_runs(n):
    """Run sizes 1, 2, 3, 1, 2, ... that tile n rows (the last one cut short)."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(1 + len(sizes) % 3, n - sum(sizes)))
    return sizes


def norm_params(x, aux):
    """gamma and beta (b,) of x (a, b): column means of x * aux (plus one)
    and of x, so their gradients reach x."""
    a, b = x.shape[-2:]
    gamma = ad.reshape(ad.segment_mean(rops.mul(x, Tensor(aux)), [a]), (b,))
    return ad.add(gamma, Tensor(np.ones(b))), ad.reshape(ad.segment_mean(x, [a]), (b,))


def layer_case(x, aux, halves):
    """x (a, b) and aux feed the (a, 2b) rows of a 2-head `layer` in uneven
    runs, and the weights of the halves it names: gamma1, beta1, wq, wk and
    wv of "attn", gamma2, beta2, w1 and w2 of "ffn" (hidden width 2b). The
    other weights are constants."""
    rows = rops.concat([x, rops.mul(x, Tensor(aux))], axis=-1)
    width = rows.shape[-1]
    mix = Tensor(np.concatenate([aux, aux[::-1]], axis=-1) / x.shape[-2])
    fed = [ad.matmul(rops.swapaxes(r, -1, -2), mix)
           for r in (rows, rops.gelu(rows), rops.mul(rows, rows))]
    fixed = np.random.default_rng(width).standard_normal((5, width, width)) / width
    gamma, beta = norm_params(rows, np.concatenate([aux, aux], axis=-1))
    attn = [gamma, beta, *fed] if "attn" in halves else [
        Tensor(1.0 + fixed[0, 0]), Tensor(fixed[0, 1]), *(Tensor(w) for w in fixed[:3])]
    ffn = [gamma, beta, fed[1], fed[2]] if "ffn" in halves else [
        Tensor(1.0 + fixed[3, 0]), Tensor(fixed[3, 1]), Tensor(fixed[3]), Tensor(fixed[4])]
    return ad.layer(rows, *attn, *ffn, uneven_runs(x.shape[-2]), 2)[0]


def attention_case(x, aux, sizes):
    """x (a, b) and aux feed q, k and v (a, 2b): a rows in runs of `sizes`,
    split into 2 heads of width b."""
    xa, gx = rops.mul(x, Tensor(aux)), rops.gelu(x)
    q, k = rops.concat([x, xa], axis=-1), rops.concat([xa, gx], axis=-1)
    v = rops.concat([gx, rops.mul(x, x)], axis=-1)
    return rops.attention(q, k, v, sizes, 2)


class TestSegmentMean:
    def test_plain_mean(self):
        out = ad.segment_mean(Tensor([[2.0, 4.0], [6.0, 8.0]]), [2])
        np.testing.assert_array_equal(out.data, [[4.0, 6.0]])

    def test_single_row(self):
        out = ad.segment_mean(Tensor([[2.0, 4.0], [999.0, 999.0]]), [1, 1])
        np.testing.assert_array_equal(out.data, [[2.0, 4.0], [999.0, 999.0]])

    def test_scalar_oracle_case(self):
        x = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = ad.segment_mean(x, [2, 1])
        np.testing.assert_array_equal(out.data, [[0.5, 0.5], [1.0, 1.0]])

    def test_other_runs_have_no_influence(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 3))
        base = ad.segment_mean(Tensor(x), [1, 3]).data
        x2 = x.copy()
        x2[:, 1:] = 1e9
        assert np.array_equal(base[:, 0], ad.segment_mean(Tensor(x2), [1, 3]).data[:, 0])

    def test_empty_run_raises(self):
        with pytest.raises(EmptyRunError):
            ad.segment_mean(Tensor(np.ones((2, 2))), [2, 0])

    def test_sizes_must_tile_the_rows(self):
        for sizes in ([1], [2, 1]):
            with pytest.raises(ShapeError):
                ad.segment_mean(Tensor(np.ones((2, 2))), sizes)


class TestRowMoves:
    def test_repeat_rows_values(self):
        out = rops.repeat_rows(Tensor([[1.0, 2.0], [3.0, 4.0]]), [1, 3])
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]] + [[3.0, 4.0]] * 3)
        with pytest.raises(ShapeError):
            rops.repeat_rows(Tensor(np.ones((2, 2))), [1, 1, 1])
        with pytest.raises(EmptyRunError):
            rops.repeat_rows(Tensor(np.ones((2, 2))), [1, 0])

    def test_permute_rows_values_and_contract(self):
        x = np.arange(8.0).reshape(4, 2)
        out = ad.permute_rows(Tensor(x), [2, 0, 3, 1])
        np.testing.assert_array_equal(out.data, x[[2, 0, 3, 1]])
        for order in ([0, 1, 2], [0, 0, 1, 2]):
            with pytest.raises(ContractError):
                ad.permute_rows(Tensor(x), order)


def chain_fuse(y, s, sizes, w):
    """The three-op chain ad.fuse replaces."""
    return ad.matmul(rops.concat([y, rops.repeat_rows(s, sizes)], axis=-1), w)


def closure_arrays(fn):
    """The arrays fn's closure cells hold, at any depth: the items of lists
    and tuples, and the closures of the functions among them."""
    seen, stack = set(), [fn]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif callable(value):
            stack.extend(cell.cell_contents for cell in getattr(value, "__closure__", None) or ())


class TestFuse:
    SIZES = [3, 1, 2, 1]  # ragged runs over 7 rows; y is 4 wide and s 3

    def _run(self, fn, lead, seed):
        """[out, dy, ds, dw], the forward's FLOP count and the count after
        the backward as well."""
        rng = np.random.default_rng(seed)
        y = Tensor(rng.standard_normal(lead + (7, 4)), requires_grad=True)
        s = Tensor(rng.standard_normal(lead + (4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
        weights = rng.standard_normal(lead + (7, 5))
        before = ad.flops.total()
        with ad.flops.counting():
            out = fn(y, s, self.SIZES, w)
            forward = ad.flops.total() - before
            rops.tensor_sum(rops.mul(out, Tensor(weights))).backward()
            after = ad.flops.total() - before
        return [out.data, y.grad, s.grad, w.grad], forward, after

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["unbatched", "one-axis", "two-axes"])
    def test_matches_unfused_chain_bit_for_bit(self, lead):
        chain, chain_flops, _ = self._run(chain_fuse, lead, 60 + len(lead))
        fused, fused_flops, after = self._run(ad.fuse, lead, 60 + len(lead))
        assert all(np.array_equal(a, b) for a, b in zip(fused, chain))
        assert fused_flops == chain_flops and after == fused_flops

    def test_tape_keeps_the_inputs_not_the_concat(self):
        y, s, w = (Tensor(np.ones(shape), requires_grad=True)
                   for shape in ((2, 7, 4), (2, 4, 3), (7, 5)))
        out = ad.fuse(y, s, self.SIZES, w)
        held = list(closure_arrays(out._backward))
        assert any(a is y.data for a in held) and any(a is s.data for a in held)
        assert max(a.nbytes for a in held) < 8 * 2 * 7 * 7  # the (2, 7, 7) concat

    def test_bad_shapes_raise(self):
        y, s, w = (Tensor(np.ones(shape)) for shape in ((7, 4), (4, 3), (7, 5)))
        for args in ((y, s, [3, 1, 2], w), (y, Tensor(np.ones((3, 3))), self.SIZES, w),
                     (y, s, self.SIZES, Tensor(np.ones((6, 5)))),
                     (y, s, self.SIZES, Tensor(np.ones((1, 7, 5))))):
            with pytest.raises(ShapeError, match="fuse"):
                ad.fuse(*args)
        with pytest.raises(EmptyRunError):
            ad.fuse(y, s, [3, 0, 3, 1], w)


class TestLayerNorm:
    """The layer norm kernel of `layer`, through its reference op."""

    def test_constant_row_goes_to_beta(self):
        out = rops.layer_norm(Tensor([3.0, 3.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized(self):
        # variance 1: only eps = 1e-5 moves the row
        out = rops.layer_norm(Tensor([-1.0, 1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, np.array([-1.0, 1.0]) / np.sqrt(1 + 1e-5),
                                   atol=1e-12)

    def test_scalar_oracle_value(self):
        out = rops.layer_norm(Tensor([0.0, 2.0, 4.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(
            out.data, [-1.2247425750014138, 0.0, 1.2247425750014138], atol=1e-12
        )


class TestGelu:
    def test_zero(self):
        assert rops.gelu(Tensor(np.array([0.0]))).data[0] == 0.0

    def test_asymptotes(self):
        out = rops.gelu(Tensor(np.array([30.0, -30.0]))).data
        np.testing.assert_allclose(out[0], 30.0, atol=1e-9)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-9)

    def test_value_at_one(self):
        np.testing.assert_allclose(
            rops.gelu(Tensor(np.array([1.0]))).data[0], 0.8411919906082768, atol=1e-3
        )

    def test_matches_power_cube_oracle(self):
        from test_model import oracle_gelu

        x = np.linspace(-30.0, 30.0, 200001)
        np.testing.assert_allclose(rops.gelu(Tensor(x)).data, oracle_gelu(x), rtol=1e-13, atol=1e-14)

    def test_input_and_incoming_gradient_untouched(self):
        x0 = np.random.default_rng(17).standard_normal((4, 5)) * 3
        x = Tensor(x0.copy(), requires_grad=True)
        out = rops.gelu(x)
        g = np.random.default_rng(18).standard_normal(x0.shape)
        g.flags.writeable = False  # as tensor_sum's broadcast view is
        (gx,) = out._backward(g)
        assert np.array_equal(x.data, x0) and gx is not g
        # add hands one grad to both parents; each branch must see it intact
        rops.tensor_sum(ad.add(rops.gelu(x), rops.gelu(x))).backward()
        assert np.array_equal(x.data, x0)
        np.testing.assert_array_equal(x.grad, 2.0 * rops.gelu(x)._backward(np.ones(x0.shape))[0])


def unfused_ffn(x, w1, w2):
    """matmul -> gelu -> matmul, the FFN of the chain ad.layer replaces."""
    return ad.matmul(rops.gelu(ad.matmul(x, w1)), w2)


def chain_ffn_sublayer(x, gamma, beta, w1, w2):
    """The second half of the chain ad.layer replaces: layer norm, the FFN,
    residual add."""
    return ad.add(x, unfused_ffn(rops.layer_norm(x, gamma, beta), w1, w2))


def chain_attn_sublayer(x, gamma, beta, wq, wk, wv, sizes, heads):
    """The first half of the chain ad.layer replaces: layer norm, three
    projections, attention, residual add."""
    h = rops.layer_norm(x, gamma, beta)
    return ad.add(x, rops.attention(*(ad.matmul(h, w) for w in (wq, wk, wv)), sizes, heads))


def chain_layer(x, gamma1, beta1, wq, wk, wv, gamma2, beta2, w1, w2, sizes, heads):
    """The chain ad.layer replaces: chain_attn_sublayer, then chain_ffn_sublayer."""
    u = chain_attn_sublayer(x, gamma1, beta1, wq, wk, wv, sizes, heads)
    return chain_ffn_sublayer(u, gamma2, beta2, w1, w2)


def layer_arrays(rng, lead, rows, d, hidden):
    """(x, gamma1, beta1, wq, wk, wv, gamma2, beta2, w1, w2) of a layer over
    lead + (rows, d) input with an FFN `hidden` wide."""
    return (rng.standard_normal(lead + (rows, d)),
            1.0 + 0.1 * rng.standard_normal(d), 0.1 * rng.standard_normal(d),
            *(rng.standard_normal((d, d)) / 3 for _ in range(3)),
            1.0 + 0.1 * rng.standard_normal(d), 0.1 * rng.standard_normal(d),
            rng.standard_normal((d, hidden)) / 2, rng.standard_normal((hidden, d)) / 2)


def reference_weights(arrays, sizes, heads):
    """Each run's attention weights of a layer over `arrays`: the reference
    softmax of its layer-normed projections, run by run."""
    h = rops.layer_norm(*(Tensor(a) for a in arrays[:3]))
    q, k = (ad.matmul(h, Tensor(w)).data for w in arrays[3:5])
    runs = [(..., slice(a, a + s), slice(None)) for a, s in zip(np.cumsum(sizes) - sizes, sizes)]
    return [unfused_attention(Tensor(q[r]), Tensor(k[r]), Tensor(k[r]), heads)[1].data
            for r in runs]


def run_with_grads(fn, arrays, weights):
    """[out, the grad of every input] of fn over leaves of `arrays`, with a
    sum weighted by `weights` as the loss; the forward's FLOP count; and the
    count after the backward as well."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    before = ad.flops.total()
    with ad.flops.counting():
        out = fn(*leaves)
        forward = ad.flops.total() - before
        rops.tensor_sum(rops.mul(out, Tensor(weights))).backward()
        after = ad.flops.total() - before
    return [out.data] + [t.grad for t in leaves], forward, after


def traced_held(fn):
    """fn's result and the traced bytes still held once it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def ffn_calls(monkeypatch, arrays) -> list:
    """A list that collects the output shape of each counted product by
    w1 or w2 of a layer over `arrays`."""
    calls, ffn = [], {arrays[8].shape, arrays[9].shape}
    monkeypatch.setattr(ad, "_count_matmul",
                        lambda a, b, out: calls.append(out.shape) if b.shape in ffn else None)
    return calls


def ffn_bands(windows, rows, row_bytes) -> list:
    """The FFN forward's sub-tiles of a tile of `windows` windows of `rows`
    rows, each row's hidden layer taking row_bytes, at the current budgets."""
    return ad._cover((windows, rows), row_bytes, (ad._WINDOW_TILE_BYTES, ad._FFN_BAND_BYTES), 2)


def cover_faults(lead, item, budgets, least) -> list:
    """The index tuples of ad._cover(lead, item, budgets, least) that break
    its rule, or one tuple-less fault when they do not cover the leading
    axes exactly once, in order. A tuple selects single items of every axis
    but the one it cuts; what it holds there fits that axis's budget or is
    one item, and on the last axis it holds `least` items or more (all of
    the axis when it is shorter), with at most least - 1 over its budget in
    the axis's last slice, which a shorter remainder joined."""
    cover = ad._cover(lead, item, budgets, least)
    index = np.arange(math.prod(lead)).reshape(lead)
    if [i for c in cover for i in index[c].ravel().tolist()] != list(range(index.size)):
        return ["not an exact cover in order"]
    faults = []
    for c in cover:
        axis, (start, stop, _) = len(c) - 1, c[-1].indices(lead[len(c) - 1])
        held, inner = stop - start, item * math.prod(lead[axis + 1:])
        fits = held * inner <= budgets[axis] or held == 1
        if axis == len(lead) - 1:
            spare = least - 1 if stop == lead[axis] else 0
            fits = (held - spare) * inner <= budgets[axis] or held - spare <= least
            fits = fits and held >= min(least, lead[axis])
        if any(s.indices(n)[1] - s.indices(n)[0] != 1 for s, n in zip(c[:-1], lead)) or not fits:
            faults.append(c)
    return faults


class TestFfn:
    """The FFN half of ad.layer against its unfused chain."""

    D, H = 4, 12  # one (5, 4) window's hidden layer is 5 * 12 * 8 = 480 bytes

    def _case(self, shape, seed):
        """The layer's arrays over (shape, 5, D) and the output's weights."""
        rng = np.random.default_rng(seed)
        arrays = layer_arrays(rng, shape, 5, self.D, self.H)
        return arrays, rng.standard_normal(arrays[0].shape)

    @staticmethod
    def _fused(*args):
        return ad.layer(*args, [2, 3], 2)[0]

    @staticmethod
    def _chain(*args):
        return chain_layer(*args, [2, 3], 2)

    @pytest.mark.parametrize("shape", [(), (7,), (2, 3)], ids=["unbatched", "one-axis", "two-axes"])
    @pytest.mark.parametrize("budget", [1, 3 * 480 + 7, 1 << 30], ids=["1", "3", "all"])
    def test_matches_unfused_chain_bit_for_bit(self, monkeypatch, shape, budget):
        # FFN sub-tiles of one window, of three (7 windows end in a ragged
        # tile of one) and of every window; at "1" the forward also runs
        # each window's 5 rows in bands of 2 and 3
        arrays, weights = self._case(shape, 40 + len(shape))
        chain, chain_flops, _ = run_with_grads(self._chain, arrays, weights)
        monkeypatch.setattr(ad, "_FFN_BAND_BYTES", budget)
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", budget)  # 9 windows at "3"
        fused, fused_flops, after = run_with_grads(self._fused, arrays, weights)
        assert len(fused) == 11 and all(np.array_equal(a, b) for a, b in zip(fused, chain))
        assert fused_flops == chain_flops and after == fused_flops

    def test_tiles_cover_the_windows(self, monkeypatch):
        arrays, _ = self._case((7,), 44)
        calls = ffn_calls(monkeypatch, arrays)
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", 3 * 480 + 7)
        ad.layer(*(Tensor(a) for a in arrays), [2, 3], 2)
        # x @ w1 then gelu @ w2, per sub-tile of whole windows, all 7 in one
        # tile of (5, 4) rows
        assert [shape[0] for shape in calls] == [3, 3, 3, 3, 1, 1]

    @pytest.mark.parametrize("rows, bands", [(2, [2, 3]), (3, [3, 2]), (4, [5])])
    def test_bands_cover_each_window(self, monkeypatch, rows, bands):
        # bands of 2, 3 and 4 rows' hidden layer over a window of 5 rows,
        # which is over the sub-tile budget too: a last band of one row
        # joins the band before it
        arrays, _ = self._case((3,), 45)
        calls = ffn_calls(monkeypatch, arrays)
        monkeypatch.setattr(ad, "_FFN_BAND_BYTES", rows * 8 * self.H)
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", rows * 8 * self.H)
        ad.layer(*(Tensor(a) for a in arrays), [2, 3], 2)
        per_window = [s for b in bands for s in ((1, b, self.H), (1, b, self.D))]
        assert calls == per_window * 3

    def test_leaves_without_grad_get_none(self):
        arrays, weights = self._case((3,), 45)
        leaves = [Tensor(a) for a in arrays[:9]]
        w2 = Tensor(arrays[9].copy(), requires_grad=True)
        rops.tensor_sum(rops.mul(self._fused(*leaves, w2), Tensor(weights))).backward()
        ref = Tensor(arrays[9].copy(), requires_grad=True)
        rops.tensor_sum(rops.mul(self._chain(*leaves, ref), Tensor(weights))).backward()
        assert all(t.grad is None for t in leaves)
        assert np.array_equal(w2.grad, ref.grad)

    def test_overflowing_hidden_layer_names_ffn(self):
        # attention maps x to x, the second layer norm maps it to beta2,
        # and beta2 @ w1 overflows
        d, h = self.D, self.H
        args = [np.ones((2, 3, d)), np.ones(d), np.zeros(d), *([np.zeros((d, d))] * 3),
                np.ones(d), np.full(d, 1e200), np.full((d, h), -1e200), np.zeros((h, d))]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="ffn"):
            ad.layer(*(Tensor(a) for a in args), [3], 2)

    def test_bad_shapes_raise(self):
        x, g, w, w1, w2 = (np.ones(s) for s in ((5, 4), (4,), (4, 4), (4, 12), (12, 4)))
        good = [x, g, g, w, w, w, g, g, w1, w2]
        for i, bad in [(0, np.ones(4)), (8, np.ones((3, 12))), (9, np.ones((11, 4))),
                       (8, np.ones((1, 4, 12))), (9, np.ones((12, 5))), (6, np.ones(3)),
                       (7, np.ones((1, 4)))]:
            args = [Tensor(bad if j == i else a) for j, a in enumerate(good)]
            with pytest.raises(ShapeError, match="layer expects"):
                ad.layer(*args, [5], 2)


class TestAttnSublayer:
    """The attention half of ad.layer, and the whole op, against its unfused chain."""

    SIZES = [3, 1, 2, 1]  # ragged runs over 7 rows, 2 heads of width 4
    WINDOW = 8 * 7 * 8  # one window's (7, 8) rows

    def _case(self, lead, seed):
        """The layer's arrays over (lead, 7, 8) and the output's weights."""
        rng = np.random.default_rng(seed)
        arrays = layer_arrays(rng, lead, 7, 8, 16)
        return arrays, rng.standard_normal(arrays[0].shape)

    def _fused(self, *args):
        return ad.layer(*args, self.SIZES, 2)[0]

    def _chain(self, *args):
        return chain_layer(*args, self.SIZES, 2)

    @pytest.mark.parametrize("lead", [(), (7,), (2, 3)], ids=["unbatched", "one-axis", "two-axes"])
    @pytest.mark.parametrize("budget", [1, 3 * WINDOW + 7, 1 << 30], ids=["1", "3", "all"])
    def test_matches_unfused_chain_bit_for_bit(self, monkeypatch, lead, budget):
        # tiles of one window, of three (7 windows end in a ragged tile of
        # one) and of every window; attention chunks of one window as well
        arrays, weights = self._case(lead, 80 + len(lead))
        chain, chain_flops, _ = run_with_grads(self._chain, arrays, weights)
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", budget)
        monkeypatch.setattr(ad, "_ATTN_TILE_BYTES", min(budget, 1 << 18))
        fused, fused_flops, after = run_with_grads(self._fused, arrays, weights)
        assert len(fused) == 11 and all(np.array_equal(a, b) for a, b in zip(fused, chain))
        assert fused_flops == chain_flops and after == fused_flops

    @pytest.mark.parametrize("lead", [(0,), (2, 0)])
    def test_empty_window_axis_matches_the_chain(self, lead):
        # no windows: the forward and the backward run no tile
        arrays, weights = self._case(lead, 87)
        chain, chain_flops, _ = run_with_grads(self._chain, arrays, weights)
        fused, fused_flops, after = run_with_grads(self._fused, arrays, weights)
        assert len(fused) == 11 and all(np.array_equal(a, b) for a, b in zip(fused, chain))
        assert fused_flops == chain_flops == after == 0

    def test_weights_are_whole_runs_at_any_budget(self, monkeypatch):
        arrays, _ = self._case((5,), 84)
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", 1)
        out, weights = ad.layer(*(Tensor(a) for a in arrays), self.SIZES, 2,
                                return_weights=True)
        with ad.no_grad():
            chain = self._chain(*(Tensor(a) for a in arrays))
        assert np.array_equal(out.data, chain.data)
        assert [w.shape for w in weights] == [(5, 2, s, s) for s in self.SIZES]
        ref = reference_weights(arrays, self.SIZES, 2)
        assert all(np.array_equal(a, b) for a, b in zip(weights, ref))

    def test_tiles_cover_the_windows(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ad, "_count_matmul", lambda a, b, out: calls.append(out.shape[0]))
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", 3 * self.WINDOW + 7)
        arrays, _ = self._case((7,), 85)
        ad.layer(*(Tensor(a) for a in arrays), [7], 2)
        # per tile: three projections and the run's scores and output, then
        # the FFN's two products a window at a time, since one window's
        # (7, 16) hidden layer takes 896 of the same budget
        assert calls == ([3] * 5 + [1] * 6) * 2 + [1] * 7

    def test_tape_keeps_x_and_the_weights(self):
        arrays, _ = self._case((4,), 86)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out, _ = ad.layer(*leaves, self.SIZES, 2)
        held = list(closure_arrays(out._backward))
        assert all(any(a is t.data for a in held) for t in leaves)
        # x and u are the only activation-sized arrays: no layer-norm
        # output, q, k, v or hidden layer, and not the output
        big = [a for a in held if a.nbytes >= arrays[0].nbytes]
        assert len(big) == 2 and any(a is leaves[0].data for a in big)
        assert not any(np.shares_memory(a, out.data) for a in held)

    def test_bad_shapes_raise(self):
        x, g, w, w1 = (np.ones(s) for s in ((7, 8), (8,), (8, 8), (8, 16)))
        good = [x, g, g, w, w, w, g, g, w1, w1.T]
        for i, bad in [(0, np.ones(8)), (1, np.ones(7)), (2, np.ones((1, 8))),
                       (3, np.ones((8, 4))), (5, np.ones((2, 8, 8)))]:
            args = [Tensor(bad if j == i else a) for j, a in enumerate(good)]
            with pytest.raises(ShapeError, match="layer expects"):
                ad.layer(*args, self.SIZES, 2)
        args = [Tensor(a) for a in good]
        with pytest.raises(ShapeError, match="layer"):
            ad.layer(*args, [3, 3], 2)
        with pytest.raises(ShapeError, match="width 8 into 3 heads"):
            ad.layer(*args, self.SIZES, 3)
        with pytest.raises(EmptyRunError):
            ad.layer(*args, [3, 0, 4], 2)


class TestLayerBands:
    """The FFN forward's bands give the chain's bits. numpy sends a one-row
    product to gemv, whose bits differ from gemm's, so no band may hold one
    row of a window of more."""

    def test_no_band_holds_one_row_of_a_larger_window(self, monkeypatch):
        for step in range(1, 9):
            monkeypatch.setattr(ad, "_FFN_BAND_BYTES", 8 * step)
            monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", 8 * step)
            for rows in range(1, 41):
                bands = ffn_bands(2, rows, 8)
                if rows <= step:  # a window within budget goes whole
                    assert all(len(b) == 1 for b in bands)
                    continue
                assert [b[0] for b in bands] == [slice(w, w + 1) for w in (0, 1)
                                                 for _ in range(len(bands) // 2)]
                spans = [(b[1].start, b[1].stop) for b in bands[: len(bands) // 2]]
                assert spans[0][0] == 0 and spans[-1][1] == rows
                assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
                assert all(2 <= hi - lo <= max(2, step) + 1 for lo, hi in spans)
        # the cover rule over empty, short and long axes, items and budgets
        # below, at and above one item of each axis, and one, two and three
        # items at least on the last axis
        for lead in [(0,), (1,), (7,), (2, 0), (0, 3), (3, 1), (5, 7), (2, 3, 4), (1, 41)]:
            for item in (1, 8, 24):
                for budgets in itertools.product((1, 8, 40, 200, 1 << 40), repeat=len(lead)):
                    for least in (1, 2, 3):
                        assert cover_faults(lead, item, budgets, least) == [], (
                            lead, item, budgets, least)

    def test_shipped_budgets_keep_the_benchmark_working_sets(self):
        # the tiles, bands and chunks the shipped budgets give on the two
        # benchmark shapes, as literals. A window is banded once it is over
        # its sub-tile budget, so the band budget must not be below it.
        assert ad._FFN_BAND_BYTES >= ad._WINDOW_TILE_BYTES
        tile = ad._WINDOW_TILE_BYTES
        # e2e (n=64, d=32, batch 16, hidden 128): 4-window tiles, FFN
        # sub-tiles of one window
        assert ad._cover((16,), 8 * 64 * 32, (tile,)) == [
            (slice(lo, lo + 4),) for lo in range(0, 16, 4)]
        assert ffn_bands(4, 64, 8 * 128) == [(slice(w, w + 1),) for w in range(4)]
        assert ad._cover((4,), 8 * 64 * 128, (tile,)) == [(slice(w, w + 1),) for w in range(4)]
        # forecast_grid576 (n=576, d=64, 4 heads, hidden 256): one-window
        # tiles, two 288-row FFN bands a window, and a level-2 run of 182
        # rows a head at a time, where one of 79 goes whole
        assert ad._cover((16,), 8 * 576 * 64, (tile,)) == [(slice(w, w + 1),) for w in range(16)]
        assert ffn_bands(1, 576, 8 * 256) == [(slice(0, 1), slice(0, 288)),
                                              (slice(0, 1), slice(288, 576))]
        runs = [(..., slice(0, 182), slice(None)), (..., slice(182, 261), slice(None))]
        assert ad._pieces((1, 4), np.array([182, 79]), np.array([0, 182]), False) == [
            (slice(0, 1), slice(h, h + 1)) + runs[0] for h in range(4)] + [
            (slice(0, 1),) + runs[1]]

    # 1 B: every budget at 1 byte, so 7-row windows run in bands of 2, 2
    # and 3 rows; last-row: bands of 3 rows, whose last band would hold
    # one row of 7; one-row: windows of one row, as the inter branch at
    # p=1 has, at 1 B budgets
    CASES = {"1B": (7, [2, 5], None), "last-row": (7, [7], 3), "one-row": (1, [1], None)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_chain_bit_for_bit(self, monkeypatch, case):
        rows, sizes, band_rows = self.CASES[case]
        rng = np.random.default_rng(90)
        arrays = layer_arrays(rng, (3,), rows, 8, 32)
        weights = rng.standard_normal(arrays[0].shape)
        chain, chain_flops, _ = run_with_grads(lambda *a: chain_layer(*a, sizes, 2), arrays,
                                               weights)
        with ad.no_grad():
            chain_off = chain_layer(*(Tensor(a) for a in arrays), sizes, 2).data
        for name in ("_FFN_BAND_BYTES", "_WINDOW_TILE_BYTES", "_ATTN_TILE_BYTES"):
            monkeypatch.setattr(ad, name, 1)
        if band_rows:
            monkeypatch.setattr(ad, "_FFN_BAND_BYTES", band_rows * 8 * 32)
        fused, fused_flops, after = run_with_grads(lambda *a: ad.layer(*a, sizes, 2)[0], arrays,
                                                   weights)
        with ad.no_grad():
            fused_off = ad.layer(*(Tensor(a) for a in arrays), sizes, 2)[0].data
        assert len(fused) == 11 and all(np.array_equal(a, b) for a, b in zip(fused, chain))
        assert np.array_equal(fused_off, chain_off)
        assert fused_flops == chain_flops and after == fused_flops
        bands = ffn_bands(3, rows, 8 * 32)
        assert [b[-1].stop - b[-1].start for b in bands[:len(bands) // 3]] == (
            {"1B": [2, 2, 3], "last-row": [3, 4], "one-row": [1]}[case])


class TestSizing:
    """`layer` sizes its working sets once per call, before its loops, and
    every op returns empty results over zero windows."""

    @pytest.mark.parametrize("tile, tiles", [(1, 16), (4, 4)])
    def test_layer_sizes_its_working_sets_once_per_call(self, monkeypatch, tile, tiles):
        # 16 windows of (5, 8) rows in runs of 2 and 3, hidden width 8: no
        # item of any cover is over its budget, so each cover is one call.
        # The tiles are sized once, and their one length once: its two
        # runs' attention chunks, its FFN bands and its FFN sub-tiles.
        arrays = layer_arrays(np.random.default_rng(91), (16,), 5, 8, 8)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        covers, pieces = [], []
        cover, chunker = ad._cover, ad._pieces
        monkeypatch.setattr(ad, "_cover", lambda *a: covers.append(a[0]) or cover(*a))
        monkeypatch.setattr(ad, "_pieces", lambda *a: pieces.append(a[0]) or chunker(*a))
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", tile * 8 * 5 * 8)
        out = ad.layer(*leaves, [2, 3], 2)[0]
        assert len(cover((16,), 8 * 5 * 8, (ad._WINDOW_TILE_BYTES,))) == tiles
        assert covers == [(16,), (tile, 2), (tile, 2), (tile, 5), (tile,)]
        assert pieces == [(tile, 2)]
        rops.tensor_sum(out).backward()
        assert len(covers) == 5 and len(pieces) == 1
        assert all(t.grad is not None for t in leaves)

    @pytest.mark.parametrize("budget", ["shipped", "1B"])
    @pytest.mark.parametrize("lead", [(0,), (2, 0)])
    def test_zero_windows_give_empty_results(self, monkeypatch, budget, lead):
        if budget == "1B":
            for name in ("_FFN_BAND_BYTES", "_WINDOW_TILE_BYTES", "_ATTN_TILE_BYTES"):
                monkeypatch.setattr(ad, name, 1)
        rng = np.random.default_rng(92)
        arrays = layer_arrays(rng, lead, 7, 8, 16)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = ad.layer(*leaves, [3, 4], 2)[0]
        rops.tensor_sum(out).backward()
        assert out.shape == leaves[0].grad.shape == lead + (7, 8)
        assert all(t.grad.shape == a.shape and not t.grad.any()
                   for t, a in zip(leaves[1:], arrays[1:]))
        y, s, w = (Tensor(np.ones(shape), requires_grad=True)
                   for shape in (lead + (7, 4), lead + (2, 3), (7, 5)))
        out = ad.fuse(y, s, [3, 4], w)
        rops.tensor_sum(out).backward()
        assert out.shape == lead + (7, 5)
        assert (y.grad.shape, s.grad.shape) == (y.shape, s.shape)
        assert w.grad.shape == (7, 5) and not w.grad.any()


class TestLayerNormRebuild:
    """`layer` reruns both layer norms in the backward, tile by tile, where
    the unfused chain's tape keeps their outputs: for the q, k and v
    matmuls, or for the FFN."""

    CONSUMERS = {  # the weights that need a gradient besides x
        "matmul": (3, 4, 5),  # wq, wk and wv: the chain keeps the first norm's output
        "ffn": (8, 9),  # w1 and w2: the chain keeps the second norm's output
    }

    @pytest.mark.parametrize("consumer", sorted(CONSUMERS))
    def test_rebuild_keeps_every_bit_and_frees_the_output(self, monkeypatch, consumer):
        # 2 heads over runs of 7 and 9 rows, hidden width 48
        rng = np.random.default_rng(70)
        arrays = layer_arrays(rng, (4, 3), 16, 16, 48)
        weights = rng.standard_normal(arrays[0].shape)
        chain, _, _ = run_with_grads(lambda *a: chain_layer(*a, [7, 9], 2), arrays, weights)
        # with the tape on, the chain holds a layer-norm output and more
        # beyond its own output; the fused op holds u and row statistics,
        # two values a row for each layer norm and two a head for attention
        leaves = [Tensor(a, requires_grad=i == 0 or i in self.CONSUMERS[consumer])
                  for i, a in enumerate(arrays)]
        unit = arrays[0].nbytes
        _, chain_held = traced_held(lambda: chain_layer(*leaves, [7, 9], 2))
        _, fused_held = traced_held(lambda: ad.layer(*leaves, [7, 9], 2)[0])
        assert fused_held - 2 * unit < unit and chain_held - unit >= 4 * unit
        # the backward's rerun gives the chain's bits in tiles of one window
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", 1)
        fused, _, _ = run_with_grads(lambda *a: ad.layer(*a, [7, 9], 2)[0], arrays, weights)
        assert all(np.array_equal(a, b) for a, b in zip(fused, chain))


class TestMatmulRebuild:
    """`layer` reruns its q, k and v matmuls in the backward, tile by
    tile, where the unfused chain's attention keeps q, k and v; attention
    over leaves keeps their arrays."""

    def test_attention_over_leaves_keeps_their_arrays(self):
        q, k, v = np.random.default_rng(73).standard_normal((3, 2, 5, 8))
        weights = np.random.default_rng(74).standard_normal(q.shape)
        qt, kt, vt = (Tensor(a.copy(), requires_grad=True) for a in (q, k, v))
        out = rops.attention(qt, kt, vt, [5], 2)
        held = list(closure_arrays(out._backward))
        assert all(any(np.shares_memory(a, t.data) for a in held) for t in (qt, kt, vt))
        assert max(a.nbytes for a in held) == q.nbytes
        rops.tensor_sum(rops.mul(out, Tensor(weights))).backward()
        qc, kc, vc = (Tensor(a.copy(), requires_grad=True) for a in (q, k, v))
        chain, _ = unfused_attention(qc, kc, vc, 2)
        rops.tensor_sum(rops.mul(chain, Tensor(weights))).backward()
        assert all(np.array_equal(a, b) for a, b in zip(
            [out.data, qt.grad, kt.grad, vt.grad], [chain.data, qc.grad, kc.grad, vc.grad]))

    def test_rebuilt_qkv_keep_every_bit_and_free_the_arrays(self, monkeypatch):
        # one window a tile: the backward reruns the projections window by
        # window, and the forward leaves no q, k or v on the tape
        rng = np.random.default_rng(75)
        arrays = layer_arrays(rng, (2,), 5, 8, 8)  # w1 and w2 smaller than x
        weights = rng.standard_normal(arrays[0].shape)
        chain, _, _ = run_with_grads(lambda *a: chain_layer(*a, [2, 3], 2), arrays, weights)
        monkeypatch.setattr(ad, "_WINDOW_TILE_BYTES", 1)
        fused, _, _ = run_with_grads(lambda *a: ad.layer(*a, [2, 3], 2)[0], arrays, weights)
        assert all(np.array_equal(a, b) for a, b in zip(fused, chain))
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        h = rops.layer_norm(*leaves[:3])
        qkv = [ad.matmul(h, w) for w in leaves[3:6]]
        arrays_alive = [weakref.ref(t.data) for t in qkv]
        out = rops.attention(*qkv, [2, 3], 2)
        del h, qkv
        assert all(a() is not None for a in arrays_alive)  # the chain keeps them
        out = ad.layer(*leaves, [2, 3], 2)[0]
        big = [a for a in closure_arrays(out._backward) if a.nbytes >= arrays[0].nbytes]
        assert len(big) == 2 and any(a is leaves[0].data for a in big)  # x and u


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        rops.tensor_sum(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_quadratic_gives_w(self):
        w = Tensor(np.arange(4.0).reshape(2, 2) - 1.5, requires_grad=True)
        loss = rops.mul(rops.tensor_sum(rops.mul(w, w)), 0.5)
        loss.backward()
        np.testing.assert_allclose(w.grad, w.data, atol=1e-12)

    def test_repeated_calls_accumulate(self):
        # two tapes, one forward and backward each: the grads add up
        w = Tensor(np.ones(3), requires_grad=True)
        for _ in range(2):
            rops.tensor_sum(rops.mul(w, 2.0)).backward()
        np.testing.assert_array_equal(w.grad, 4.0 * np.ones(3))

    def test_second_backward_on_one_tape_raises(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = rops.tensor_sum(rops.mul(w, 2.0))
        loss.backward()
        with pytest.raises(ContractError, match="backward already ran on this tape"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, 2.0 * np.ones(3))  # the second call added nothing

    def test_backward_frees_what_a_layer_saved(self):
        # x is an op output, so only the layer's node holds its array once
        # the caller drops it; u never leaves the node
        rng = np.random.default_rng(87)
        arrays = layer_arrays(rng, (4,), 7, 8, 16)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        x = ad.add(leaves[0], leaves[0])
        out, _ = ad.layer(x, *leaves[1:], [3, 1, 2, 1], 2)
        big = [a for a in closure_arrays(out._backward) if a.nbytes >= arrays[0].nbytes]
        assert len(big) == 2 and any(a is x.data for a in big)  # x and u
        saved = [weakref.ref(a) for a in big]
        del x, big
        loss = rops.tensor_sum(rops.mul(out, Tensor(rng.standard_normal(arrays[0].shape))))
        assert all(a() is not None for a in saved)  # the tape holds them
        loss.backward()
        assert all(a() is None for a in saved)  # the root is still referenced
        assert out._backward is ad._spent and loss._backward is ad._spent

    def test_non_scalar_root_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            rops.mul(w, 2.0).backward()

    def test_no_grad_suppresses_tape(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = rops.tensor_sum(rops.mul(w, 2.0))
        assert not out.requires_grad and out._backward is None

    def test_no_grad_holds_only_on_its_own_thread(self):
        # a predict on one thread must not take a training step's tape on
        # another off the record
        w = Tensor(np.ones(3), requires_grad=True)
        entered, release, inside = threading.Event(), threading.Event(), []

        def hold():
            with ad.no_grad():
                inside.append(rops.mul(w, 2.0).requires_grad)
                entered.set()
                release.wait(10)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(10)
            out = rops.tensor_sum(rops.mul(w, 2.0))
        finally:
            release.set()
            thread.join()
        assert inside == [False]
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])


class TestGradientSoundness:
    """Analytic vs central finite differences on randomized shapes up to 16x16."""

    CASES = {
        "matmul": lambda x, aux: ad.matmul(x, Tensor(aux)),
        "matmul_batched": lambda x, aux: ad.matmul(x, Tensor(aux)),
        "add_broadcast": lambda x, aux: ad.add(x, Tensor(aux[:1])),
        "mul": lambda x, aux: rops.mul(x, Tensor(aux)),
        "div": lambda x, aux: rops.div(x, Tensor(np.abs(aux) + 1.0)),
        "gelu": lambda x, aux: rops.gelu(x),
        # x (a, b) feeds the rows of a layer and the weights of one half of
        # it, or of both, so every gradient of that half reaches dx
        "ffn": lambda x, aux: layer_case(x, aux, ("ffn",)),
        "attn_sublayer": lambda x, aux: layer_case(x, aux, ("attn",)),
        "layer": lambda x, aux: layer_case(x, aux, ("attn", "ffn")),
        "layer_norm": lambda x, aux: rops.layer_norm(
            x, Tensor(aux[0] + 2.0), Tensor(aux[1])
        ),
        "softmax": lambda x, aux: rops.softmax(x),
        "segment_mean": lambda x, aux: ad.segment_mean(x, uneven_runs(x.shape[-2])),
        "repeat_rows": lambda x, aux: rops.repeat_rows(
            rops.mul(x, x), [1 + i % 3 for i in range(x.shape[-2])]
        ),
        "permute_rows": lambda x, aux: ad.permute_rows(rops.mul(x, x), np.argsort(aux[:, 0])),
        "concat": lambda x, aux: rops.concat([x, rops.mul(x, Tensor(aux))], axis=-1),
        # x (a, b) feeds the rows, the run means and the (2b, a) weight
        "fuse": lambda x, aux: ad.fuse(
            x, ad.segment_mean(rops.mul(x, x), uneven_runs(x.shape[-2])),
            uneven_runs(x.shape[-2]),
            rops.swapaxes(rops.concat([x, rops.mul(x, Tensor(aux))], axis=-1), -1, -2),
        ),
        "swapaxes": lambda x, aux: rops.swapaxes(rops.mul(x, x), -1, -2),
        "reshape": lambda x, aux: ad.reshape(rops.mul(x, x), x.shape[::-1]),
        "mae": lambda x, aux: ad.mae(x, Tensor(aux)),
        "attention": lambda x, aux: attention_case(x, aux, [x.shape[-2]]),
        "attention_runs": lambda x, aux: attention_case(x, aux, uneven_runs(x.shape[-2])),
    }

    @staticmethod
    def _inputs(name, rng):
        """(x, aux) of a random shape for case `name`."""
        if name == "matmul_batched":
            shape = (2, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            aux = rng.standard_normal((shape[-1], 4))
        elif name == "matmul":
            shape = tuple(int(v) for v in rng.integers(2, 17, size=2))
            aux = rng.standard_normal((shape[-1], int(rng.integers(2, 9))))
        else:
            shape = tuple(int(v) for v in rng.integers(2, 17, size=2))
            aux = rng.standard_normal(shape)
        return rng.standard_normal(shape), aux

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_op_gradient(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for trial in range(3):
            x0, aux = self._inputs(name, rng)
            weights = rng.standard_normal(self.CASES[name](Tensor(x0), aux).shape)

            def scalar_fn(arr):
                with ad.no_grad():
                    out = self.CASES[name](Tensor(arr), aux)
                return float((out.data * weights).sum())

            x = Tensor(x0.copy(), requires_grad=True)
            out = self.CASES[name](x, aux)
            rops.tensor_sum(rops.mul(out, Tensor(weights))).backward()
            assert_grads_close(x.grad, numeric_grad(scalar_fn, x0.copy()))

    def test_every_tape_op_has_a_case(self, monkeypatch):
        # each autodiff function that records a tape node through _from_op
        # must run in some case above, so every backward is FD-checked
        tree = ast.parse(Path(ad.__file__).read_text())
        ops = {
            fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and any(getattr(node, "id", None) == "_from_op" for node in ast.walk(fn))
        }
        covered = set()
        from_op = ad._from_op

        def recording(*args):
            covered.add(sys._getframe(1).f_code.co_name)
            return from_op(*args)

        monkeypatch.setattr(ad, "_from_op", recording)
        for name, case in self.CASES.items():
            x0, aux = self._inputs(name, np.random.default_rng(0))
            case(Tensor(x0), aux)
        assert "layer" in ops and sorted(ops - covered) == []

    def test_permute_roundtrip_gradient(self):
        rng = np.random.default_rng(11)
        order = np.array([3, 1, 0, 2, 4])
        x0 = rng.standard_normal((5, 3))
        weights = rng.standard_normal((5, 3))

        def roundtrip(t):
            mid = ad.permute_rows(t, order)
            return ad.permute_rows(rops.gelu(mid), np.argsort(order))

        def scalar_fn(arr):
            with ad.no_grad():
                out = roundtrip(Tensor(arr))
            return float((out.data * weights).sum())

        x = Tensor(x0.copy(), requires_grad=True)
        out = roundtrip(x)
        assert np.array_equal(out.data, rops.gelu(Tensor(x0)).data)
        rops.tensor_sum(rops.mul(out, Tensor(weights))).backward()
        assert_grads_close(x.grad, numeric_grad(scalar_fn, x0.copy()))


class TestNumericGuards:
    def test_nan_detected_in_debug_mode(self):
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            rops.div(Tensor([1.0]), Tensor([0.0]))

    def test_debug_off_lets_values_through(self):
        prev = ad.set_debug_checks(False)
        try:
            with np.errstate(divide="ignore"):
                out = rops.div(Tensor([1.0]), Tensor([0.0]))
            assert np.isinf(out.data[0])
        finally:
            ad.set_debug_checks(prev)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        y = rops.softmax(ad.matmul(rops.gelu(x), Tensor(rng.standard_normal((6, 6)))))
        loss = ad.mae(y, np.zeros(y.shape))
        loss.backward()
        return y.data.copy(), x.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2) and np.array_equal(g1, g2)
