"""Model blocks against independent dense oracles, plus structural invariants."""
import contextlib
import json
import math
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from sbaformer import autodiff as ad
from sbaformer import model as md
from sbaformer import partition as pt
from sbaformer.autodiff import Tensor
from sbaformer.data import make_grid_graph
from sbaformer.errors import ConfigError, ContractError, NumericError, ShapeError
from sbaformer.graph import laplacian_pe
from sbaformer.partition import build_scale_series, plan_from_assign, uniform_plan

import reference_ops as rops
from test_graph import random_connected_graph


# --------------------------------------------------------------------------
# independent full-attention oracle: plain numpy, no shared code with the model


def oracle_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def oracle_gelu(x):
    u = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + np.tanh(u))


def oracle_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def oracle_dense_attention_branch(x, prm, heads):
    """Pre-norm attention + FFN sublayers on an (s, d) block, all keys valid."""
    s, d = x.shape
    dh = d // heads
    h = oracle_layer_norm(x, prm.ln1_gamma.data, prm.ln1_beta.data)
    q, k, v = h @ prm.wq.data, h @ prm.wk.data, h @ prm.wv.data
    att = np.zeros_like(x)
    weights = np.zeros((heads, s, s))
    for i in range(heads):
        qs, ks, vs = (m[:, i * dh : (i + 1) * dh] for m in (q, k, v))
        w = oracle_softmax(qs @ ks.T / math.sqrt(dh))
        weights[i] = w
        att[:, i * dh : (i + 1) * dh] = w @ vs
    u = x + att
    h2 = oracle_layer_norm(u, prm.ln2_gamma.data, prm.ln2_beta.data)
    y = u + oracle_gelu(h2 @ prm.ffn_w1.data) @ prm.ffn_w2.data
    return y, weights


def branch_params(d, ffn_mult, rng):
    def mat(a, b):
        return Tensor(rng.standard_normal((a, b)) / math.sqrt(a), True)

    return md.AttnParams(
        wq=mat(d, d),
        wk=mat(d, d),
        wv=mat(d, d),
        ln1_gamma=Tensor(1.0 + 0.1 * rng.standard_normal(d), True),
        ln1_beta=Tensor(0.1 * rng.standard_normal(d), True),
        ffn_w1=mat(d, ffn_mult * d),
        ffn_w2=mat(ffn_mult * d, d),
        ln2_gamma=Tensor(1.0 + 0.1 * rng.standard_normal(d), True),
        ln2_beta=Tensor(0.1 * rng.standard_normal(d), True),
    )


def tiny_model(rng, n=9, t=4, c=1, f=3, d=8, l=2, heads=2, p0=3, k_pe=3, seed=0):
    g = random_connected_graph(n, rng)
    series = build_scale_series(g, p0, l, seed=seed)
    pe = laplacian_pe(g, k_pe)
    config = md.ModelConfig(n=n, t=t, c=c, f=f, d_model=d, l=l, heads=heads, p0=p0, k_pe=k_pe)
    return md.SbaTransformer(config, series, pe.vectors, seed=seed), g


class TestIntraAttention:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_single_subgraph_equals_dense_oracle(self, n):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            d, heads = 8, 2
            prm = branch_params(d, 2, rng)
            x = rng.standard_normal((n, d))
            plan = uniform_plan(n, 1)
            xp = pt.apply_plan(Tensor(x), plan)
            y, _ = md.intra_attention(xp, plan.mask, prm, heads)
            expected, _ = oracle_dense_attention_branch(x, prm, heads)
            np.testing.assert_allclose(y.data, expected, atol=1e-10)

    def test_single_node_subgraphs(self):
        rng = np.random.default_rng(1)
        d = 6
        prm = branch_params(d, 2, rng)
        x = rng.standard_normal((5, d))
        plan = uniform_plan(5, 5)
        xp = pt.apply_plan(Tensor(x), plan)
        y, alpha = md.intra_attention(xp, plan.mask, prm, 2, return_weights=True)
        np.testing.assert_allclose(np.stack(alpha), 1.0, atol=1e-15)
        for node in range(5):
            expected, _ = oracle_dense_attention_branch(x[node : node + 1], prm, 2)
            np.testing.assert_allclose(y.data[node], expected[0], atol=1e-10)

    def test_identical_nodes_identical_rows(self):
        rng = np.random.default_rng(2)
        d = 8
        prm = branch_params(d, 2, rng)
        row = rng.standard_normal(d)
        x = np.stack([row, row, rng.standard_normal(d)])
        plan = uniform_plan(3, 1)
        y, _ = md.intra_attention(pt.apply_plan(Tensor(x), plan), plan.mask, prm, 2)
        np.testing.assert_allclose(y.data[0], y.data[1], atol=1e-14)

    def test_non_prefix_mask_rejected(self):
        prm = branch_params(8, 2, np.random.default_rng(3))
        valid = np.array([[True, True, True], [False, True, True]])
        with pytest.raises(ContractError, match="prefix"):
            md.intra_attention(Tensor(np.zeros((5, 8))), valid, prm, 2)


class TestInterAttention:
    def test_single_summary_is_sublayer_of_self(self):
        rng = np.random.default_rng(4)
        d = 8
        prm = branch_params(d, 2, rng)
        s = rng.standard_normal((1, d))
        out, alpha = md.inter_attention(Tensor(s), prm, 2, return_weights=True)
        np.testing.assert_allclose(alpha[0], 1.0, atol=1e-15)
        expected, _ = oracle_dense_attention_branch(s, prm, 2)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_identical_summaries_uniform_weights(self):
        rng = np.random.default_rng(5)
        d = 8
        prm = branch_params(d, 2, rng)
        s = np.tile(rng.standard_normal(d), (6, 1))
        _, alpha = md.inter_attention(Tensor(s), prm, 2, return_weights=True)
        np.testing.assert_allclose(alpha[0], 1.0 / 6.0, atol=1e-12)

    def test_matches_dense_oracle_for_singleton_pooling(self):
        for seed in range(4):
            rng = np.random.default_rng(seed + 10)
            d, heads, n = 8, 2, 7
            prm = branch_params(d, 2, rng)
            s = rng.standard_normal((n, d))
            out, _ = md.inter_attention(Tensor(s), prm, heads)
            expected, _ = oracle_dense_attention_branch(s, prm, heads)
            np.testing.assert_allclose(out.data, expected, atol=1e-10)


class TestPoolAndFuse:
    # a (2, 3) table with subgraph sizes 3 and 1: rows 0-2 are part 0, row 3 part 1
    VALID = np.array([[True, True, True], [True, False, False]])
    PART_OF_ROW = [0, 0, 0, 1]

    def test_pool_single_node_identity(self):
        plan = plan_from_assign(np.array([0, 1, 1]), 2)
        y = np.arange(9.0).reshape(3, 3)
        s = md.pool_subgraphs(Tensor(y), plan.mask)
        np.testing.assert_array_equal(s.data[0], y[0])

    def test_pool_mean_of_equal_rows(self):
        row = np.array([1.0, 2.0, 3.0])
        y = np.tile(row, (4, 1))
        s = md.pool_subgraphs(Tensor(y), np.ones((1, 4), dtype=bool))
        np.testing.assert_allclose(s.data[0], row, atol=1e-15)

    def test_fuse_projection_selects_branches(self):
        rng = np.random.default_rng(6)
        d = 4
        y = rng.standard_normal((4, d))
        s = rng.standard_normal((2, d))
        w_local = Tensor(np.vstack([np.eye(d), np.zeros((d, d))]))
        np.testing.assert_allclose(
            md.fuse(Tensor(y), Tensor(s), w_local, self.VALID).data, y, atol=1e-14
        )
        w_global = Tensor(np.vstack([np.zeros((d, d)), np.eye(d)]))
        out = md.fuse(Tensor(y), Tensor(s), w_global, self.VALID).data
        np.testing.assert_allclose(out, s[self.PART_OF_ROW], atol=1e-14)

    def test_fuse_matches_scalar_concat_oracle(self):
        rng = np.random.default_rng(7)
        d = 4
        y = rng.standard_normal((4, d))
        s = rng.standard_normal((2, d))
        w = rng.standard_normal((2 * d, d))
        out = md.fuse(Tensor(y), Tensor(s), Tensor(w), self.VALID).data
        for row, part in enumerate(self.PART_OF_ROW):
            np.testing.assert_allclose(
                out[row], np.concatenate([y[row], s[part]]) @ w, atol=1e-12
            )


class TestEmbed:
    def test_zero_input_zero_encoding(self):
        rng = np.random.default_rng(8)
        config = md.ModelConfig(n=3, t=2, c=1, f=1, d_model=4, l=1, heads=2, p0=1, k_pe=2)
        params = md.init_params(config, seed=0)
        out = md.embed(Tensor(np.zeros((3, 2, 1))), params, np.zeros((3, 2)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_scalar_broadcast_with_ones_map(self):
        config = md.ModelConfig(n=3, t=1, c=1, f=1, d_model=4, l=1, heads=2, p0=1, k_pe=2)
        params = md.init_params(config, seed=0)
        params.embed.data = np.ones((1, 4))
        params.pe_proj.data = np.zeros((2, 4))
        x = np.array([2.0, -1.0, 3.0]).reshape(3, 1, 1)
        out = md.embed(Tensor(x), params, np.zeros((3, 2)))
        np.testing.assert_allclose(out.data, x[:, 0] * np.ones((3, 4)), atol=1e-15)

    def test_matches_explicit_loop_oracle(self):
        rng = np.random.default_rng(9)
        config = md.ModelConfig(n=4, t=3, c=2, f=1, d_model=6, l=1, heads=2, p0=1, k_pe=3)
        params = md.init_params(config, seed=1)
        x = rng.standard_normal((4, 3, 2))
        pe = rng.standard_normal((4, 3))
        out = md.embed(Tensor(x), params, pe).data
        for node in range(4):
            flat = x[node].reshape(-1)
            expected = flat @ params.embed.data + pe[node] @ params.pe_proj.data
            np.testing.assert_allclose(out[node], expected, atol=1e-12)


class TestSbaBlock:
    def test_residual_identity_at_zeroed_value_paths(self):
        rng = np.random.default_rng(10)
        model, _ = tiny_model(rng)
        blk = model.params.blocks[0]
        for side in (blk.intra, blk.inter):
            side.wv.data = np.zeros_like(side.wv.data)
            side.ffn_w2.data = np.zeros_like(side.ffn_w2.data)
        blk.fuse.data = np.zeros_like(blk.fuse.data)
        x = rng.standard_normal((model.config.n, model.config.d_model))
        out = md.sba_block(Tensor(x), model.series.plans[0], blk, model.config.heads)
        np.testing.assert_array_equal(out.data, x)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        d, heads, n = 8, 2, 9
        blk = md.SbaBlockParams(
            intra=branch_params(d, 2, rng),
            inter=branch_params(d, 2, rng),
            fuse=Tensor(rng.standard_normal((2 * d, d)), True),
        )
        assign = np.array([0, 0, 1, 1, 1, 2, 2, 0, 2])
        plan = plan_from_assign(assign, 3)
        x = rng.standard_normal((n, d))
        base = md.sba_block(Tensor(x), plan, blk, heads).data

        perm = rng.permutation(n)
        plan_p = plan_from_assign(assign[perm], 3)
        out_p = md.sba_block(Tensor(x[perm]), plan_p, blk, heads).data
        np.testing.assert_allclose(out_p, base[perm], atol=1e-12)

    def test_captured_p1_attention_equals_oracle_map(self):
        rng = np.random.default_rng(30)
        d, heads, n = 8, 2, 6
        blk = md.SbaBlockParams(
            intra=branch_params(d, 2, rng),
            inter=branch_params(d, 2, rng),
            fuse=Tensor(rng.standard_normal((2 * d, d)), True),
        )
        plan = uniform_plan(n, 1)
        x = rng.standard_normal((n, d))
        capture = []
        with ad.no_grad():
            md.sba_block(Tensor(x), plan, blk, heads, capture=capture)
        _, weights = oracle_dense_attention_branch(x, blk.intra, heads)
        np.testing.assert_allclose(
            capture[0]["intra"][0], weights.mean(axis=0), atol=1e-12
        )

    @pytest.mark.parametrize("lead", [(2,), (0,)])
    def test_capture_of_a_batch_or_of_no_window_is_contract_error(self, lead):
        rng = np.random.default_rng(13)
        model, _ = tiny_model(rng)
        x = rng.standard_normal(lead + (model.config.n, model.config.t, 1))
        with ad.no_grad(), pytest.raises(ContractError, match="single unbatched window"):
            model.forward(Tensor(x), capture=[])

    def test_block_diagonal_intra_weights(self):
        rng = np.random.default_rng(12)
        model, _ = tiny_model(rng, n=12, p0=4, l=1)
        capture = []
        x = rng.standard_normal((12, model.config.t, 1))
        with ad.no_grad():
            model.forward(Tensor(x), capture=capture)
        plan = model.series.plans[0]
        assembled = np.zeros((12, 12))
        subgraphs = np.split(plan.order, np.cumsum(plan.sizes)[:-1])
        for nodes, mat in zip(subgraphs, capture[0]["intra"]):
            assembled[np.ix_(nodes, nodes)] = mat
        for i in range(12):
            for j in range(12):
                if plan.assign[i] != plan.assign[j]:
                    assert assembled[i, j] == 0.0
        np.testing.assert_allclose(assembled.sum(axis=1), 1.0, atol=1e-9)


class TestForward:
    def test_output_shape_contract(self):
        rng = np.random.default_rng(13)
        model, _ = tiny_model(rng, n=10, t=5, c=2, f=4, p0=2, l=2)
        x = rng.standard_normal((10, 5, 2))
        assert model.predict(x).shape == (10, 4, 2)

    def test_batched_forward_matches_window_loop(self):
        rng = np.random.default_rng(14)
        model, _ = tiny_model(rng)
        xs = rng.standard_normal((3, model.config.n, model.config.t, 1))
        batched = model.predict(xs)
        for i in range(3):
            assert np.array_equal(batched[i], model.predict(xs[i]))

    def test_l1_p1_end_to_end_matches_dense_composition_oracle(self):
        # a one-block single-subgraph model is embed -> dense attention branch
        # -> mean summary -> single-token exchange -> fuse -> residual -> head,
        # reproduced here step by step in plain numpy
        rng = np.random.default_rng(29)
        n, t, c, f, d, heads = 7, 4, 1, 3, 8, 2
        series = pt.ScaleSeries(plans=[uniform_plan(n, 1)])
        config = md.ModelConfig(n=n, t=t, c=c, f=f, d_model=d, l=1, heads=heads, p0=1, k_pe=2)
        pe = rng.standard_normal((n, 2))
        model = md.SbaTransformer(config, series, pe, seed=4)
        x = rng.standard_normal((n, t, c))
        out = model.predict(x)

        p = model.params
        blk = p.blocks[0]
        xe = x.reshape(n, t * c) @ p.embed.data + pe @ p.pe_proj.data
        y, _ = oracle_dense_attention_branch(xe, blk.intra, heads)
        s = y.mean(axis=0, keepdims=True)
        s2, _ = oracle_dense_attention_branch(s, blk.inter, heads)
        fused = np.concatenate([y, np.tile(s2, (n, 1))], axis=1) @ blk.fuse.data
        expected = ((fused + xe) @ p.head.data).reshape(n, f, c)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_duplicated_node_gets_identical_forecast(self):
        # two nodes with the same history sharing a subgraph at every scale
        rng = np.random.default_rng(15)
        d, heads = 8, 2
        n, t, c, f = 6, 4, 1, 3
        assign = np.array([0, 0, 0, 1, 1, 1])
        plan = plan_from_assign(assign, 2)
        series = pt.ScaleSeries(plans=[plan, plan_from_assign(np.zeros(n, dtype=np.int64), 1)])
        config = md.ModelConfig(n=n, t=t, c=c, f=f, d_model=d, l=2, heads=heads, p0=2, k_pe=2)
        pe = np.zeros((n, 2))
        model = md.SbaTransformer(config, series, pe, seed=3)
        x = rng.standard_normal((n, t, c))
        x[1] = x[0]  # duplicate history; same subgraph, same (zero) encoding
        out = model.predict(x)
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_plans_for_another_node_count_rejected(self):
        # a series partitioning 16 nodes cannot drive a 12-node model
        rng = np.random.default_rng(16)
        model, _ = tiny_model(rng, n=12, p0=4, l=1)
        series = build_scale_series(random_connected_graph(16, rng), 4, 1)
        with pytest.raises(ContractError, match="config.n=12"):
            md.SbaTransformer(model.config, series, model.pe_vectors)


class TestTiledPredict:
    """predict runs batches in tiles of windows on worker threads; the bits
    must not move. Tiles may start in any order, so call lists are sorted."""

    def _recorded(self, model, monkeypatch):
        """Window counts of each forward call that predict makes."""
        calls = []
        forward = model.forward

        def recording(x, capture=None):
            calls.append(x.shape[0] if x.ndim == 4 else None)
            return forward(x, capture)

        monkeypatch.setattr(model, "forward", recording)
        return calls

    def _whole_batch(self, model, xs):
        with ad.no_grad():
            return model.forward(Tensor(xs)).data

    def _force_tile(self, monkeypatch, tile):
        """Tiles of `tile` windows on any machine, whatever its CPU count:
        predict's cover of the windows at a budget of `tile` of them."""
        monkeypatch.setattr(md, "_cover", lambda lead, item_bytes, budgets:
                            ad._cover(lead, item_bytes, (tile * item_bytes,)))

    # window_bytes is one window's (n, d_model) activation; zero windows
    # give no tile, so no forward runs
    @pytest.mark.parametrize("windows, workers, window_bytes, tile", [
        (16, 2, 8 * 576 * 64, 4),    # forecast_grid576: two tiles per worker
        (64, 2, 8 * 64 * 32, 16),    # the e2e validation batch
        (64, 2, 8 * 576 * 64, 5),    # n=576 at batch 64: the cap binds
        (16, 2, 8 * 8649 * 64, 1),   # CA size: one window is over the cap
        (1, 2, 8 * 64 * 32, 1),
        (0, 2, 8 * 64 * 32, 1),
        (7, 1, 8 * 64 * 32, 4),      # one worker: tiles of 4 and 3
    ])
    def test_tile_is_two_per_worker_under_the_memory_cap(self, monkeypatch, windows, workers,
                                                         window_bytes, tile):
        # predict itself, on a stand-in model of n = window_bytes / (8 * 64)
        # nodes at d_model=64 whose forward records each tile's window count
        n = window_bytes // (8 * 64)
        calls = []

        def forward(x):
            calls.append(x.shape[0])
            return Tensor(np.zeros(x.shape[:2] + (1, 1)))

        stand_in = types.SimpleNamespace(
            config=types.SimpleNamespace(n=n, d_model=64, f=1, c=1), forward=forward)
        monkeypatch.setattr(md, "_usable_cpus", lambda: workers)
        out = md.SbaTransformer.predict(stand_in, np.zeros((windows, n, 1, 1)))
        assert out.shape == (windows, n, 1, 1)
        assert sorted(calls, reverse=True) == [tile] * (windows // tile) + (
            [windows % tile] if windows % tile else [])

    @pytest.mark.parametrize("budget", ["shipped", "1B"])
    def test_zero_windows_run_no_tile(self, monkeypatch, budget):
        if budget == "1B":
            for module, name in ((md, "_TILE_BYTES"), (ad, "_WINDOW_TILE_BYTES"),
                                 (ad, "_FFN_BAND_BYTES"), (ad, "_ATTN_TILE_BYTES")):
                monkeypatch.setattr(module, name, 1)
        model, _ = tiny_model(np.random.default_rng(40))
        mc = model.config
        calls = self._recorded(model, monkeypatch)
        for lead in ((0,), (3, 0)):
            out = model.predict(np.zeros(lead + (mc.n, mc.t, 1)))
            assert out.shape == lead + (mc.n, mc.f, 1)
        assert calls == []

    def test_tile_working_set_is_a_few_window_units(self):
        # e2e config at the rule's tile for a 64-window batch on 2 workers:
        # the 16-window tape-off forward peaks at 5.1 k window activations
        # (tracemalloc), 7.5 k before the sublayers walked window tiles
        g = make_grid_graph(8, 8)
        config = md.ModelConfig(n=64, t=24, c=1, f=12, d_model=32, l=3, heads=4, p0=8, k_pe=8)
        model = md.SbaTransformer(config, build_scale_series(g, 8, 3, seed=0),
                                  laplacian_pe(g, 8).vectors)
        unit = 8 * config.n * config.d_model
        tile = 16  # predict's tile of a 64-window batch on 2 workers
        xs = np.random.default_rng(38).standard_normal((tile, 64, 24, 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            self._whole_batch(model, xs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 6 * tile * unit

    @pytest.mark.parametrize("tile, counts", [(1, [1] * 7), (3, [1, 3, 3]), (7, [7])])
    def test_tiles_equal_one_whole_batch_forward(self, monkeypatch, tile, counts):
        rng = np.random.default_rng(31)
        model, _ = tiny_model(rng)
        xs = rng.standard_normal((7, model.config.n, model.config.t, 1))
        whole = self._whole_batch(model, xs)
        self._force_tile(monkeypatch, tile)
        calls = self._recorded(model, monkeypatch)
        assert np.array_equal(model.predict(xs), whole)
        assert sorted(calls) == counts

    def test_more_leading_axes_tile_over_all_windows(self, monkeypatch):
        # 6 windows in tiles of 4, and two empty batches that run no tile
        rng = np.random.default_rng(32)
        model, _ = tiny_model(rng)
        mc = model.config
        for lead, counts in (((2, 3), [2, 4]), ((0,), []), ((2, 0), [])):
            xs = rng.standard_normal(lead + (mc.n, mc.t, 1))
            whole = self._whole_batch(model, xs)
            # the rule's own tiles on this machine's CPUs, then tiles of 4
            assert np.array_equal(model.predict(xs), whole)
            with monkeypatch.context() as mp:
                self._force_tile(mp, 4)
                calls = self._recorded(model, mp)
                out = model.predict(xs)
            assert out.shape == lead + (mc.n, mc.f, 1)
            assert np.array_equal(out, whole)
            assert sorted(calls) == counts

    def test_unbatched_window_runs_whole(self, monkeypatch):
        rng = np.random.default_rng(33)
        model, _ = tiny_model(rng)
        x = rng.standard_normal((model.config.n, model.config.t, 1))
        whole = self._whole_batch(model, x)
        calls = self._recorded(model, monkeypatch)
        assert np.array_equal(model.predict(x), whole)
        assert calls == [1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_count_never_changes_bits(self, monkeypatch, workers):
        rng = np.random.default_rng(36)
        model, _ = tiny_model(rng)
        xs = rng.standard_normal((7, model.config.n, model.config.t, 1))
        whole = self._whole_batch(model, xs)
        monkeypatch.setattr(md, "_TILE_BYTES", 1)
        monkeypatch.setattr(md, "_usable_cpus", lambda: workers)
        caller, threads = threading.get_ident(), set()
        caller_ran = threading.Event()
        forward = model.forward

        def recording(x, capture=None):
            threads.add(threading.get_ident())
            if threading.get_ident() == caller:
                caller_ran.set()
            else:  # so that the scheduler cannot let a helper take all 7 tiles
                caller_ran.wait(5.0)
            return forward(x, capture)

        monkeypatch.setattr(model, "forward", recording)
        assert np.array_equal(model.predict(xs), whole)
        assert 1 <= len(threads) <= workers
        if workers == 1:  # no thread starts
            assert threads == {caller}
        else:
            assert caller in threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_tile_raises_cancels_the_rest_and_leaves_no_thread(self, monkeypatch, workers):
        rng = np.random.default_rng(37)
        model, _ = tiny_model(rng)
        xs = rng.standard_normal((7, model.config.n, model.config.t, 1))
        xs[0, 2, 1, 0] = np.nan
        monkeypatch.setattr(md, "_TILE_BYTES", 1)
        monkeypatch.setattr(md, "_usable_cpus", lambda: workers)
        calls = []
        forward = model.forward

        def slow_after_the_first(x, capture=None):
            calls.append(x.shape[0])
            if len(calls) > 1:  # time for predict to cancel the tiles not started
                threading.Event().wait(0.5)
            return forward(x, capture)

        monkeypatch.setattr(model, "forward", slow_after_the_first)
        before = threading.active_count()
        with pytest.raises(NumericError):
            model.predict(xs)
        assert threading.active_count() == before
        assert ad._GRAD_ENABLED
        # the failed tile, and on each worker at most one tile started before
        # the failure was seen; the other tiles of 7 never ran
        assert len(calls) <= 1 + workers

    def test_flop_count_is_exact_under_threads(self, monkeypatch):
        # e2e config, 64 one-window tiles on more workers than cores, with the
        # interpreter switching threads as often as it can: a lost update
        # in the counter would show as a short count
        g = make_grid_graph(8, 8)
        config = md.ModelConfig(n=64, t=24, c=1, f=12, d_model=32, l=3, heads=4, p0=8, k_pe=8)
        model = md.SbaTransformer(config, build_scale_series(g, 8, 3, seed=0),
                                  laplacian_pe(g, 8).vectors)
        xs = np.random.default_rng(39).standard_normal((64, 64, 24, 1))
        # the reference: the same 64 one-window tiles, one after another on
        # this thread. Each tile projects the encoding once (64 x 8 @ 8 x 32,
        # 30720 FLOPs), which a whole-batch forward does once in all.
        before = ad.flops.total()
        with ad.flops.counting(), ad.no_grad():
            for i in range(len(xs)):
                model.forward(Tensor(xs[i : i + 1]))
        serial = ad.flops.total() - before
        assert serial == 383_436_288 + 63 * 64 * 32 * 15
        monkeypatch.setattr(md, "_TILE_BYTES", 1)
        monkeypatch.setattr(md, "_usable_cpus", lambda: 4)
        counts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                before = ad.flops.total()
                with ad.flops.counting():
                    model.predict(xs)
                counts.append(ad.flops.total() - before)
        finally:
            sys.setswitchinterval(interval)
        assert counts == [serial] * 4

    def test_fewer_than_three_axes_is_shape_error(self):
        model, _ = tiny_model(np.random.default_rng(34))
        with pytest.raises(ShapeError, match=r"predict expects \(\.\.\., n, t, c\)"):
            model.predict(np.zeros((model.config.n, model.config.t)))

    def test_wrong_node_count_is_shape_error(self):
        model, _ = tiny_model(np.random.default_rng(35), n=16, t=6, p0=4)
        with pytest.raises(ShapeError, match="history has 15 nodes; the model has 16"):
            model.predict(np.zeros((2, 15, 6, 1)))


class TestAttentionPeakBytes:
    def test_counts_one_run_of_weights_per_op(self):
        # n=10 in runs of 6 and 4, then one run of 10; 2 heads of width 4.
        # An op over r rows with largest run s holds 2 * (4*r*4 + 2*r + s*s)
        # values: q, k, v, the output, each run's row max and sum, one run's
        # weights. Level 0: intra 2 * (160 + 20 + 36) = 432, inter (p=2)
        # 2 * (32 + 4 + 4) = 80. Level 1: intra 2 * (160 + 20 + 100) = 560,
        # inter (p=1) 2 * (16 + 2 + 1) = 38. The largest block is level 1.
        config = md.ModelConfig(n=10, t=1, c=1, f=1, d_model=8, l=2, heads=2, p0=2, k_pe=1)
        series = pt.ScaleSeries(plans=[plan_from_assign([0] * 6 + [1] * 4, 2),
                                       uniform_plan(10, 1)])
        assert md.attention_peak_bytes(config, series) == 8 * (560 + 38)
        level0 = pt.ScaleSeries(plans=series.plans[:1])
        assert md.attention_peak_bytes(config, level0) == 8 * (432 + 80)


class TestAttentionWorkingSet:
    def test_attention_returns_the_row_buffer_it_wrote(self):
        # the op writes each head through a view of one (..., n, d) buffer
        # and returns that buffer, so no head merge copies it; its input
        # gradients are row buffers too
        rng = np.random.default_rng(39)
        q, k, v = (Tensor(a, requires_grad=True) for a in rng.standard_normal((3, 3, 7, 8)))
        for tape in (True, False):
            with contextlib.nullcontext() if tape else ad.no_grad():
                att = rops.attention(q, k, v, [3, 4], 2)
            assert att.shape == (3, 7, 8)
            assert att.data.flags.c_contiguous and att.data.flags.owndata
            if tape:
                for g in att._backward(np.ones(att.shape)):
                    assert g.shape == (3, 7, 8) and g.flags.c_contiguous and g.flags.owndata

    def test_tape_off_forward_holds_a_chunk_of_scores(self):
        # one run of 128 rows, 4 heads, 8 windows: the batch's scores are
        # 4 MiB (16 units), over the 256 KiB attention budget, and so are
        # one window's (2 units), so a chunk of two heads (1 unit) is all
        # that exists at once. 5.4 units measured (6.4 with chunks of one
        # window, 8.5 before the sublayers walked window tiles); holding
        # the whole batch's scores peaks at 25.0
        b, n, d = 8, 128, 32
        config = md.ModelConfig(n=n, t=4, c=1, f=2, d_model=d, l=1, heads=4, p0=1, k_pe=2)
        model = md.SbaTransformer(config, pt.ScaleSeries(plans=[uniform_plan(n, 1)]),
                                  np.zeros((n, 2)))
        x = np.random.default_rng(40).standard_normal((b, n, 4, 1))
        unit = 8 * b * n * d  # one (batch, n, d_model) float64 array
        assert 8 * b * config.heads * n * n > ad._ATTN_TILE_BYTES
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with ad.no_grad():
                model.forward(Tensor(x))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 6 * unit

    def test_tape_off_forward_of_forecast_grid576_in_units(self):
        # the forecast_grid576 benchmark config (24x24 grid, p0=16, l=3,
        # d=64, 4 heads) on 16 windows: the block input, two activations
        # and one window's temporaries at a time, 3.54 units measured.
        # A batch-sized branch output u and a whole window's hidden layer
        # peaked at 3.85; whole-batch q, k, v and layer-norm outputs at 7.06
        g = make_grid_graph(24, 24)
        config = md.ModelConfig(n=576, t=24, c=1, f=12, d_model=64, l=3, heads=4, p0=16, k_pe=8)
        model = md.SbaTransformer(config, build_scale_series(g, 16, 3, seed=0), np.zeros((576, 8)))
        x = np.random.default_rng(41).standard_normal((16, 576, 24, 1))
        unit = 8 * 16 * 576 * 64  # one (batch, n, d_model) float64 array
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with ad.no_grad():
                model.forward(Tensor(x))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * unit

    def test_tape_off_intra_attention_holds_its_output_and_a_tile(self):
        # intra attention of 16 windows at each level of the forecast_grid576
        # config: the output and one window tile's temporaries (the layer
        # norms, q, k, v, a chunk of scores, a band of the hidden layer),
        # 8.5 window units measured over the output. With u and a whole
        # window's hidden layer it peaked at 29.6 window units over it
        g = make_grid_graph(24, 24)
        config = md.ModelConfig(n=576, t=24, c=1, f=12, d_model=64, l=3, heads=4, p0=16, k_pe=8)
        model = md.SbaTransformer(config, build_scale_series(g, 16, 3, seed=0), np.zeros((576, 8)))
        xp = Tensor(np.random.default_rng(42).standard_normal((16, 576, 64)))
        window = 8 * 576 * 64  # one window's (n, d_model) float64 rows
        for plan, blk in zip(model.series.plans, model.params.blocks):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                with ad.no_grad():
                    y, _ = md.intra_attention(xp, plan.mask, blk.intra, 4)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= y.data.nbytes + 9 * window


class TestMaeLoss:
    def test_zero_when_equal(self):
        x = Tensor(np.ones((2, 3, 1)))
        assert md.mae_loss(x, np.ones((2, 3, 1))).item() == 0.0

    def test_constant_offset(self):
        pred = Tensor(np.full((2, 3, 1), 3.0))
        assert md.mae_loss(pred, np.full((2, 3, 1), 2.0)).item() == 1.0

    def test_scalar_oracle_random(self):
        rng = np.random.default_rng(17)
        pred, target = rng.standard_normal((2, 3, 1)), rng.standard_normal((2, 3, 1))
        expected = float(np.abs(pred - target).sum() / 6.0)
        np.testing.assert_allclose(
            md.mae_loss(Tensor(pred), target).item(), expected, atol=1e-15
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            md.mae_loss(Tensor(np.ones((2, 3, 1))), np.ones((2, 3, 2)))


class TestFlopsEstimate:
    def _series(self, n, p):
        return pt.ScaleSeries(plans=[uniform_plan(n, p)])

    def _config(self, n, p, d=64, heads=4):
        return md.ModelConfig(n=n, t=1, c=1, f=1, d_model=d, l=1, heads=heads, p0=p, k_pe=1)

    def test_single_subgraph_equals_dense_estimate(self):
        # p=1 degenerates to one n-token dense attention plus a trivial
        # single-summary exchange; spell out the closed form by hand
        n, h, dh = 64, 4, 16
        sba = md.flops_estimate(self._config(n, 1), self._series(n, 1))
        dense_mults = h * 2 * n * n * dh
        dense_adds = h * (n * n * (dh - 1) + n * dh * (n - 1))
        inter = h * 2 * dh + h * (dh - 1)  # p=1 summary attention
        assert sba["closed_total"] == dense_mults + dense_adds + inter

    def test_doubling_m_quadruples_intra_term(self):
        a = md.flops_estimate(self._config(256, 16), self._series(256, 16))  # m=16
        b = md.flops_estimate(self._config(512, 16), self._series(512, 16))  # m=32
        intra_a = sum(blk["intra"] for blk in a["per_block"])
        intra_b = sum(blk["intra"] for blk in b["per_block"])
        # p fixed at 16 while m doubles: quadratic in m up to the (dh-1) adds
        assert 3.8 < intra_b / intra_a < 4.05

    def test_dense_quadruples_and_fixed_m_doubles_with_n(self):
        # n = 64, 128 and 256 at d=32 and 2 heads: dense (p=1, so m doubles
        # with n) quadruples per doubling; at m=32 only p doubles
        for m, least, most in ((None, 3.9, math.inf), (32, 0.0, 3.0)):
            totals = []
            for n in (64, 128, 256):
                p = 1 if m is None else n // m
                est = md.flops_estimate(self._config(n, p, d=32, heads=2), self._series(n, p))
                assert abs(est["ratio"] - 1.0) <= 0.01
                totals.append(est["measured_total"])
            assert all(least <= b / a < most for a, b in zip(totals, totals[1:]))

    def test_sba_beats_dense_by_8x_at_1024(self):
        sba = md.flops_estimate(self._config(1024, 32), self._series(1024, 32))
        dense = md.flops_estimate(self._config(1024, 1), self._series(1024, 1))
        assert dense["closed_total"] / sba["closed_total"] >= 8.0
        assert abs(sba["ratio"] - 1.0) <= 0.01
        assert abs(dense["ratio"] - 1.0) <= 0.01

    def test_fused_attention_counts_equal_closed_form(self):
        rng = np.random.default_rng(22)
        p, h, m, dh = 3, 2, 7, 5
        q, k, v = rng.standard_normal((3, p, m, h * dh))
        before = ad.flops.total()
        with ad.flops.counting():
            rops.attention(Tensor(q), Tensor(k), Tensor(v), [m], h)
        assert ad.flops.total() - before == md._attention_flops(p * h, m, dh)

    def test_subgraph_attention_counts_each_part_at_its_size(self):
        rng = np.random.default_rng(23)
        h, dh = 2, 5
        sizes = [7, 1, 4]
        q, k, v = rng.standard_normal((3, sum(sizes), h * dh))
        before = ad.flops.total()
        with ad.flops.counting():
            rops.attention(Tensor(q), Tensor(k), Tensor(v), sizes, h)
        assert ad.flops.total() - before == sum(md._attention_flops(h, s, dh) for s in sizes)

    def test_uneven_parts_cost_their_squared_sizes(self):
        # the e2e config: 8x8 grid, p0=8, l=3, d=32, 4 heads; uneven parts
        series = build_scale_series(make_grid_graph(8, 8), 8, 3, seed=0)
        config = md.ModelConfig(n=64, t=1, c=1, f=1, d_model=32, l=3, heads=4, p0=8, k_pe=1)
        est = md.flops_estimate(config, series)
        h, dh = 4, 8
        for plan, blk in zip(series.plans, est["per_block"]):
            sizes = plan.sizes
            assert sizes.min() < plan.m
            sq = int((sizes**2).sum())
            assert blk["intra"] == h * (2 * dh * sq + (dh - 1) * sq + dh * (sq - int(sizes.sum())))
            assert blk["intra"] < md._attention_flops(plan.p * h, plan.m, dh)
        assert est["measured_total"] == est["closed_total"] == 477752
        assert est["per_block"] == [
            {"p": 8, "m": 10, "intra": 72104, "inter": 7680},
            {"p": 4, "m": 20, "intra": 131624, "inter": 1856},
            {"p": 2, "m": 39, "intra": 264056, "inter": 432},
        ]

    def test_flop_columns_are_pinned(self):
        # uniform sba plans of m=16 and dense plans, d=64 and 4 heads
        counts = []
        for mode in ("sba", "dense"):
            for n in (64, 128, 256):
                p = 1 if mode == "dense" else n // 16
                est = md.flops_estimate(self._config(n, p), self._series(n, p))
                counts.append((mode, n, est["measured_total"], est["closed_total"]))
        assert counts == [
            ("sba", 64, 257728, 257728),
            ("sba", 128, 523520, 523520),
            ("sba", 256, 1079296, 1079296),
            ("dense", 64, 1028284, 1028284),
            ("dense", 128, 4120764, 4120764),
            ("dense", 256, 16498876, 16498876),
        ]

    def test_caller_count_survives(self, monkeypatch):
        config, series = self._config(64, 4), self._series(64, 4)
        monkeypatch.setattr(ad.flops, "count", 0)
        fresh = md.flops_estimate(config, series)
        ad.flops.count = 1234 + 567
        est = md.flops_estimate(config, series)
        assert ad.flops.total() == 1234 + 567
        assert est == fresh

    def test_measured_equals_closed_form(self):
        rng = np.random.default_rng(18)
        for _ in range(3):
            n = int(rng.choice([32, 64, 128]))
            p = int(rng.choice([1, 2, 4, 8]))
            est = md.flops_estimate(self._config(n, p, d=32, heads=2), self._series(n, p))
            assert est["measured_total"] == est["closed_total"]
        # three plans under a one-block config, as demo 05 and c08 build
        # their configs: every plan is measured, not one per block
        series = build_scale_series(make_grid_graph(8, 8), 8, 3, seed=0)
        est = md.flops_estimate(self._config(64, 8, d=32, heads=2), series)
        assert len(est["per_block"]) == 3
        assert est["measured_total"] == est["closed_total"]

    def test_measured_side_runs_the_model_layer(self, monkeypatch):
        # the e2e series: each plan runs its intra and its inter branch
        # through `ad.layer`, and whatever layer counts reaches the total
        series = build_scale_series(make_grid_graph(8, 8), 8, 3, seed=0)
        config = md.ModelConfig(n=64, t=1, c=1, f=1, d_model=32, l=3, heads=4, p0=8, k_pe=1)
        calls = []
        layer = ad.layer

        def counted(x, *args):
            calls.append(x.shape)
            ad.flops.add(1)
            return layer(x, *args)

        monkeypatch.setattr(ad, "layer", counted)
        est = md.flops_estimate(config, series)
        assert calls == [shape for plan in series.plans for shape in ((plan.n, 32), (plan.p, 32))]
        assert est["measured_total"] == est["closed_total"] + 6


class TestModelConfig:
    SIZES = dict(n=8, t=6, c=2, f=3, d_model=16, l=2, heads=4, p0=2, k_pe=4, ffn_mult=4)

    @pytest.mark.parametrize("name, value", [(name, 0) for name in SIZES] + [("heads", -2)])
    def test_size_below_one_is_config_error(self, name, value):
        with pytest.raises(ConfigError, match=f"must be >= 1: {name}$"):
            md.ModelConfig(**{**self.SIZES, name: value})

    @pytest.mark.parametrize("name, value", [("d_model", 16.0), ("heads", True), ("n", "8"),
                                             ("l", np.int64(2)), ("t", None)])
    def test_size_that_is_not_an_int_is_config_error(self, name, value):
        with pytest.raises(ConfigError, match=f"must be integers: {name}$"):
            md.ModelConfig(**{**self.SIZES, name: value})


class TestParamsAndCheckpoint:
    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(19)
        model, _ = tiny_model(rng)
        stem = tmp_path / "ckpt"
        md.save_checkpoint(stem, model.params, model.config, seed=5)
        params, config, seed = md.load_checkpoint(stem)
        assert config == model.config and seed == 5
        for (na, ta), (nb, tb) in zip(model.params.named(), params.named()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_checkpoint_rewrite_byte_identical(self, tmp_path):
        rng = np.random.default_rng(20)
        model, _ = tiny_model(rng)
        stem = tmp_path / "ckpt"
        md.save_checkpoint(stem, model.params, model.config, seed=1)
        first = (stem.with_suffix(".bin").read_bytes(), stem.with_suffix(".json").read_bytes())
        md.save_checkpoint(stem, model.params, model.config, seed=1)
        assert first == (
            stem.with_suffix(".bin").read_bytes(),
            stem.with_suffix(".json").read_bytes(),
        )

    def test_manifest_order_pinned(self, tmp_path):
        # the checkpoint format: these names, in this order, at running offsets
        expected = [
            "embed", "pe_proj",
            "block0.intra.wq", "block0.intra.wk", "block0.intra.wv",
            "block0.intra.ln1_gamma", "block0.intra.ln1_beta",
            "block0.intra.ffn_w1", "block0.intra.ffn_w2",
            "block0.intra.ln2_gamma", "block0.intra.ln2_beta",
            "block0.inter.wq", "block0.inter.wk", "block0.inter.wv",
            "block0.inter.ln1_gamma", "block0.inter.ln1_beta",
            "block0.inter.ffn_w1", "block0.inter.ffn_w2",
            "block0.inter.ln2_gamma", "block0.inter.ln2_beta",
            "block0.fuse",
            "block1.intra.wq", "block1.intra.wk", "block1.intra.wv",
            "block1.intra.ln1_gamma", "block1.intra.ln1_beta",
            "block1.intra.ffn_w1", "block1.intra.ffn_w2",
            "block1.intra.ln2_gamma", "block1.intra.ln2_beta",
            "block1.inter.wq", "block1.inter.wk", "block1.inter.wv",
            "block1.inter.ln1_gamma", "block1.inter.ln1_beta",
            "block1.inter.ffn_w1", "block1.inter.ffn_w2",
            "block1.inter.ln2_gamma", "block1.inter.ln2_beta",
            "block1.fuse",
            "head",
        ]
        model, _ = tiny_model(np.random.default_rng(21), l=2)
        assert [name for name, _ in model.params.named()] == expected
        stem = tmp_path / "ckpt"
        md.save_checkpoint(stem, model.params, model.config)
        sidecar = json.loads(stem.with_suffix(".json").read_text())
        assert [e["name"] for e in sidecar["tensors"]] == expected
        offset = 0
        for entry in sidecar["tensors"]:
            assert entry["offset"] == offset, entry["name"]
            offset += math.prod(entry["shape"])
        assert sidecar["total"] == offset == model.params.count()


class TestFullModelGradients:
    def test_grads_only_on_leaves(self):
        rng = np.random.default_rng(23)
        model, _ = tiny_model(rng)
        x = rng.standard_normal((2, 9, 4, 1))
        loss = md.mae_loss(model.forward(Tensor(x)), rng.standard_normal((2, 9, 3, 1)))
        loss.backward()
        params = model.params.tensors()
        assert all(t.grad is not None and t.grad.shape == t.shape for t in params)
        leaves = {id(t) for t in params}
        seen, stack, inner = {id(loss)}, [loss], 0
        while stack:
            node = stack.pop()
            if id(node) not in leaves:
                assert node.grad is None
                inner += node._backward is not None
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        # 7 ops a block (one layer a branch, 2 row permutations,
        # segment_mean, fuse and the residual add), 3 in the embedding, 2 in
        # the head and the loss: 2 * 7 + 3 + 2 + 1
        assert inner == 20

    def test_gradcheck_against_finite_differences(self):
        from test_autodiff import assert_grads_close

        rng = np.random.default_rng(21)
        model, _ = tiny_model(rng, n=6, t=3, c=1, f=2, d=4, l=1, heads=2, p0=2, k_pe=2)
        x = rng.standard_normal((6, 3, 1))
        target = rng.standard_normal((6, 2, 1))

        def loss_value():
            with ad.no_grad():
                return md.mae_loss(model.forward(Tensor(x)), target).item()

        model.params.zero_grad()
        md.mae_loss(model.forward(Tensor(x)), target).backward()
        h = 1e-5
        for name, t in model.params.named():
            if "block0" not in name and name not in ("embed", "head"):
                continue
            flat = t.data.ravel()
            num = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                num[i] = (up - down) / (2 * h)
            assert_grads_close(t.grad.ravel(), num)

    @staticmethod
    def _tape_run(model, x, target):
        """Bytes the tape holds after the forward, the output and the grads,
        and the FLOP count of the forward and the backward."""
        model.params.zero_grad()
        counted = ad.flops.total()
        with ad.flops.counting():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = model.forward(Tensor(x))
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            md.mae_loss(out, target).backward()
        return held, [out.data] + [t.grad for t in model.params.tensors()], ad.flops.total() - counted

    def test_fused_ffn_keeps_every_bit_and_shrinks_the_tape(self, monkeypatch):
        rng = np.random.default_rng(24)
        b, n, d = 4, 16, 16
        model, _ = tiny_model(rng, n=n, t=4, d=d, l=2, heads=2, p0=4)
        x = rng.standard_normal((b, n, 4, 1))
        target = rng.standard_normal((b, n, 3, 1))
        fused_bytes, fused, _ = self._tape_run(model, x, target)
        monkeypatch.setattr(ad, "layer", self._chain_layer(rops.attention))
        chain_bytes, chain, _ = self._tape_run(model, x, target)
        assert all(np.array_equal(a, b) for a, b in zip(fused, chain))
        # the intra hidden layer, its GELU tanh and the GELU output, per block
        hidden = 8 * b * n * model.config.ffn_mult * d
        assert chain_bytes - fused_bytes >= 3 * model.config.l * hidden

    @staticmethod
    def _chain_layer(attention):
        """ad.layer as the unfused chain over `attention`: layer norm, three
        matmuls, attention and the residual add, then layer norm, matmul,
        gelu, matmul and the residual add."""
        def layer(x, g1, b1, wq, wk, wv, g2, b2, w1, w2, sizes, heads, return_weights):
            assert not return_weights
            h = rops.layer_norm(x, g1, b1)
            u = ad.add(x, attention(*(ad.matmul(h, w) for w in (wq, wk, wv)), sizes, heads))
            h = rops.layer_norm(u, g2, b2)
            return ad.add(u, ad.matmul(rops.gelu(ad.matmul(h, w1)), w2)), None

        return layer

    def test_attention_rebuild_keeps_every_bit_and_shrinks_the_tape(self, monkeypatch):
        from test_autodiff import unfused_attention

        def rows(x, a, s):
            """Rows a..a+s of x (..., n, d) as a tape op, zero gradient elsewhere."""
            def backward(g):
                gx = np.zeros(x.shape)
                gx[..., a : a + s, :] = g
                return (gx,)

            return ad._from_op(x.data[..., a : a + s, :], "rows", (x,), backward)

        def chain_attention(q, k, v, sizes, heads):
            """The weight-keeping chain run by run, joined along the rows."""
            outs = [
                unfused_attention(rows(q, a, s), rows(k, a, s), rows(v, a, s), heads)[0]
                for a, s in zip(np.cumsum(sizes) - sizes, sizes)
            ]
            return rops.concat(outs, axis=-2)

        rng = np.random.default_rng(25)
        b, h = 4, 2
        # d_head=6: the scale 1/sqrt(6) is inexact, so any change of op order shows
        model, _ = tiny_model(rng, n=16, t=4, d=12, l=2, heads=h, p0=2)
        x = rng.standard_normal((b, 16, 4, 1))
        target = rng.standard_normal((b, 16, 3, 1))
        fused_bytes, fused, fused_flops = self._tape_run(model, x, target)
        monkeypatch.setattr(ad, "layer", self._chain_layer(chain_attention))
        chain_bytes, chain, chain_flops = self._tape_run(model, x, target)
        assert all(np.array_equal(a, b) for a, b in zip(fused, chain))
        assert fused_flops == chain_flops  # the rebuild's q k^T is not counted
        # each run's weights, over the intra and inter runs of every block
        weights = sum(8 * b * h * (int((plan.sizes**2).sum()) + plan.p**2)
                      for plan in model.series.plans)
        assert chain_bytes - fused_bytes >= weights

    def test_qkv_rebuild_keeps_every_bit_and_shrinks_the_tape(self, monkeypatch):
        # the chain's attention keeps q, k and v, and its matmuls the
        # layer-norm output; the layer op reruns them in its backward
        rng = np.random.default_rng(27)
        b, n, d = 4, 16, 12
        model, _ = tiny_model(rng, n=n, t=4, d=d, l=2, heads=2, p0=2)
        x = rng.standard_normal((b, n, 4, 1))
        target = rng.standard_normal((b, n, 3, 1))
        rebuilt_bytes, rebuilt, rebuilt_flops = self._tape_run(model, x, target)
        monkeypatch.setattr(ad, "layer", self._chain_layer(rops.attention))
        kept_bytes, kept, kept_flops = self._tape_run(model, x, target)
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt, kept))
        assert rebuilt_flops == kept_flops  # the projections' rerun is not counted
        # the layer-norm output and q, k and v of every block's intra attention
        assert kept_bytes - rebuilt_bytes >= 4 * model.config.l * 8 * b * n * d


class TestTapeKeepsWhatBackwardReads:
    """The e2e config's tape holds only the arrays its backward closures read."""

    @staticmethod
    def _e2e_inputs():
        # the e2e config: 8x8 grid, p0=8, l=3, d=32, 4 heads, t=24, f=12, batch 16
        g = make_grid_graph(8, 8)
        config = md.ModelConfig(n=64, t=24, c=1, f=12, d_model=32, l=3, heads=4, p0=8, k_pe=8)
        model = md.SbaTransformer(config, build_scale_series(g, 8, 3, seed=0),
                                  laplacian_pe(g, 8).vectors)
        rng = np.random.default_rng(26)
        x = rng.standard_normal((16, 64, 24, 1))
        return model, x, rng.standard_normal((16, 64, 12, 1))

    def test_tape_after_one_forward_in_activation_units(self):
        model, x, _ = self._e2e_inputs()
        unit = 8 * 16 * 64 * 32  # one (batch, n, d_model) float64 array
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = model.forward(Tensor(x))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # 12.5 units measured, output included: each layer keeps its input,
        # its branch output u and the row statistics, fuse its y and
        # summaries. Keeping attention's q, k and v holds 22.0; keeping
        # each layer-norm output and the fuse concat as well, 31.25; a tape
        # that keeps every op output alive through its parent links, 63.6
        assert held <= 13 * unit

    def test_backward_peak_in_activation_units(self):
        model, x, target = self._e2e_inputs()
        unit = 8 * 16 * 64 * 32
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            md.mae_loss(model.forward(Tensor(x)), target).backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # what is left of the tape plus the backward's temporaries at their
        # largest, in the last block's intra layer, the first the backward
        # reaches: 19.04 units measured. A tape whose nodes keep what they
        # saved until the whole backward returns peaked at 21.55.
        # Rebuilding the whole batch's q, k and v peaked at 25.7, keeping
        # them at 32.3; keeping the layer-norm outputs and the fuse concat
        # as well, with per-window ffn weight-gradient partials and 1 MiB
        # attention chunks, at 46.1
        assert peak <= 20 * unit

    def test_backward_peak_of_forecast_grid576_in_activation_units(self):
        # the forecast_grid576 benchmark config (24x24 grid, p0=16, l=3,
        # d=64, 4 heads) trained at batch 4: 19.74 units measured, 23.31
        # with every node's saved arrays held until the backward returns
        g = make_grid_graph(24, 24)
        config = md.ModelConfig(n=576, t=24, c=1, f=12, d_model=64, l=3, heads=4, p0=16, k_pe=8)
        model = md.SbaTransformer(config, build_scale_series(g, 16, 3, seed=0), np.zeros((576, 8)))
        rng = np.random.default_rng(43)
        x = rng.standard_normal((4, 576, 24, 1))
        target = rng.standard_normal((4, 576, 12, 1))
        unit = 8 * 4 * 576 * 64
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            md.mae_loss(model.forward(Tensor(x)), target).backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 21 * unit

    def test_backward_spends_every_op_node(self):
        # once backward returns, every op node holds ad._spent and so none
        # of the arrays its backward saved; leaves keep no backward
        model, x, target = self._e2e_inputs()
        loss = md.mae_loss(model.forward(Tensor(x)), target)
        loss.backward()
        nodes = ad._toposort(loss._node)
        ops = sum(isinstance(node, ad._Node) for node in nodes)
        assert ops == 27  # as in test_no_backward_closure_holds_a_tensor
        assert all(node._backward is (ad._spent if isinstance(node, ad._Node) else None)
                   for node in nodes)

    def test_no_backward_closure_holds_a_tensor(self):
        def held(fn):
            """What fn's closure cells hold, at any depth: the items of the
            sequences and the closures of the functions among them (saved
            operands and the helpers a backward calls)."""
            seen, stack = set(), [fn]
            while stack:
                value = stack.pop()
                if id(value) in seen:
                    continue
                seen.add(id(value))
                yield value
                if isinstance(value, (tuple, list)):
                    stack.extend(value)
                else:
                    stack.extend(cell.cell_contents
                                 for cell in getattr(value, "__closure__", None) or ())

        model, x, target = self._e2e_inputs()
        root = md.mae_loss(model.forward(Tensor(x)), target)._node
        seen, stack, ops = {id(root)}, [root], 0
        while stack:
            node = stack.pop()
            if node._backward is not None:  # an op node; leaves have no backward
                ops += 1
                fn = node._backward
                assert not any(isinstance(v, Tensor) for v in held(fn)), fn.__qualname__
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        # a branch is 1 op, `layer`. A block is 2 branches and 5 more: 2
        # row permutations, segment_mean, fuse and the residual add. 3
        # blocks, the embedding's 2 matmuls and add (the input's reshape
        # needs no grad), the head's matmul and reshape, and the loss:
        # 3 * 7 + 3 + 2 + 1. With a branch of two sublayer ops the tape was
        # 3 * 9 + 6 = 33; before the sublayers were ops, a branch was 9 ops
        # (layer norm, 3 matmuls, attention, add, then layer norm, ffn,
        # add) and the tape 3 * 23 + 6 = 75
        assert ops == 27
