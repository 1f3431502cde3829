"""Optimizer contracts, the training loop, and evaluation reports."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sbaformer import autodiff as ad
from sbaformer import model as md
from sbaformer import training
from sbaformer.autodiff import Tensor
from sbaformer.data import (
    Normalizer,
    chrono_split,
    make_windows,
    metrics,
    split_setup,
    synth_diffusion,
    window_arrays,
)
from sbaformer.errors import ConfigError, NumericError
from sbaformer.graph import laplacian_pe
from sbaformer.model import ModelConfig, SbaTransformer, mae_loss
from sbaformer.partition import build_scale_series
from sbaformer.training import (
    TrainConfig,
    TrainState,
    adam_step,
    evaluate,
    persistence_forecast,
    train,
)


def scalar_param_model(value=1.0):
    """A ModelParams stand-in with one scalar weight for optimizer math."""
    config = ModelConfig(n=2, t=1, c=1, f=1, d_model=2, l=1, heads=1, p0=1, k_pe=1)
    params = md.init_params(config, seed=0)
    return params


def small_setup(n=8, steps=120, t=6, f=3, d=8, l=2, p0=2, seed=0, noise=0.0):
    ds = synth_diffusion(n=n, steps=steps, noise_std=noise, period=24.0, seed=seed)
    series = build_scale_series(ds.graph, p0, l, seed=seed)
    pe = laplacian_pe(ds.graph, k=2)
    config = ModelConfig(n=n, t=t, c=1, f=f, d_model=d, l=l, heads=2, p0=p0, k_pe=2)
    model = SbaTransformer(config, series, pe.vectors, seed=seed)
    return model, ds


class TestAdamStep:
    @pytest.mark.parametrize("field, value", [
        ("grad_clip", -1.0), ("grad_clip", 0.0), ("eps", 0.0), ("eps", -1e-8),
    ])
    def test_config_rejects_values_that_break_training(self, field, value):
        # a negative clip flips the step's sign; eps = 0 turns a zero gradient into 0/0
        message = f"train.{field} must be a finite number > 0, got {value}"
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
    def test_config_rejects_lr_that_is_not_a_finite_number_at_least_zero(self, value):
        # a NaN lr aborts at the first step and would save untrained parameters
        with pytest.raises(ConfigError, match=f"lr must be a finite number >= 0, got {value}"):
            TrainConfig(lr=value)

    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 0), ("max_epochs", -1), ("patience", 0), ("patience", -2),
    ])
    def test_config_rejects_epoch_counts_below_one(self, field, value):
        # max_epochs = 0 would save an untrained model; patience = 0 would act as 1
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("betas", [(0.9,), ("a", "b"), (0.9, 0.99, 0.999)])
    def test_config_rejects_betas_that_are_not_two_numbers(self, betas):
        with pytest.raises(ConfigError, match="betas must be two numbers"):
            TrainConfig(betas=betas)

    def test_zero_gradients_leave_params_unchanged(self):
        params = scalar_param_model()
        state = TrainState.for_params(params)
        before = {name: t.data.copy() for name, t in params.named()}
        for _, t in params.named():
            t.grad = np.zeros_like(t.data)
        adam_step(params, state, TrainConfig(lr=0.1))
        for name, t in params.named():
            np.testing.assert_array_equal(t.data, before[name])

    def test_first_step_matches_closed_form(self):
        # one step with constant gradient g: bias corrections cancel and the
        # update is -lr * g / (|g| + eps)
        params = scalar_param_model()
        state = TrainState.for_params(params)
        cfg = TrainConfig(lr=0.01)
        g = 0.37
        before = {name: t.data.copy() for name, t in params.named()}
        for _, t in params.named():
            t.grad = np.full_like(t.data, g)
        adam_step(params, state, cfg)
        expected_delta = -cfg.lr * g / (abs(g) + cfg.eps)
        for name, t in params.named():
            np.testing.assert_allclose(t.data - before[name], expected_delta, atol=1e-12)

    def test_clipping_rescales_proportionally(self):
        params = scalar_param_model()
        total = sum(t.data.size for t in params.tensors())
        for _, t in params.named():
            t.grad = np.ones_like(t.data)  # global norm = sqrt(total)
        norm = np.sqrt(total)
        clip = norm / 2.0
        state = TrainState.for_params(params)
        cfg = TrainConfig(lr=0.01, grad_clip=clip)
        before = {name: t.data.copy() for name, t in params.named()}
        adam_step(params, state, cfg)
        g_eff = 1.0 * (clip / norm)
        expected_delta = -cfg.lr * g_eff / (g_eff + cfg.eps)
        for name, t in params.named():
            np.testing.assert_allclose(t.data - before[name], expected_delta, atol=1e-10)

    def test_nan_gradient_aborts_with_name(self):
        params = scalar_param_model()
        state = TrainState.for_params(params)
        for _, t in params.named():
            t.grad = np.zeros_like(t.data)
        params.head.grad = np.full_like(params.head.data, np.nan)
        with pytest.raises(NumericError, match="head"):
            adam_step(params, state, TrainConfig())


class TestTrainLoop:
    def test_lr_zero_changes_nothing(self):
        model, ds = small_setup()
        before = {name: t.data.copy() for name, t in model.params.named()}
        best, history, _ = train(model, ds, TrainConfig(lr=0.0, max_epochs=3, patience=10))
        for name, t in model.params.named():
            np.testing.assert_array_equal(t.data, before[name])
        maes = [h["val_mae"] for h in history]
        assert len(set(maes)) == 1

    def test_seeded_determinism_identical_history(self):
        cfg = TrainConfig(lr=1e-3, max_epochs=3, batch_size=8, seed=4)
        model_a, ds_a = small_setup(seed=2)
        _, hist_a, _ = train(model_a, ds_a, cfg)
        model_b, ds_b = small_setup(seed=2)
        _, hist_b, _ = train(model_b, ds_b, cfg)
        assert hist_a == hist_b

    def test_overfits_tiny_window_set(self):
        # 32 train windows of a noiseless process; a small model must memorize
        model, ds = small_setup(n=8, steps=68, t=6, f=3, d=16, l=1, p0=2, noise=0.0)
        assert len(make_windows(chrono_split(68)[0], 6, 3)) == 32
        cfg = TrainConfig(lr=3e-3, max_epochs=200, patience=200, batch_size=16, seed=0)
        _, history, _ = train(model, ds, cfg)
        assert min(h["train_loss"] for h in history) < 0.05

    def test_early_stopping_returns_best_checkpoint(self):
        model, ds = small_setup(seed=3, noise=0.05)
        cfg = TrainConfig(lr=5e-3, max_epochs=12, patience=2, seed=1)
        best, history, _ = train(model, ds, cfg)
        best_val = min(h["val_mae"] for h in history)
        # evaluate the returned checkpoint on val: must reproduce the best epoch
        eval_model = SbaTransformer(model.config, model.series, model.pe_vectors, params=best)
        splits = chrono_split(ds.steps, min_len=model.config.t + model.config.f)
        norm = Normalizer.fit(ds.series[:, splits[0][0] : splits[0][1]])
        series_norm = norm.apply(ds.series)
        ws = make_windows(splits[1], model.config.t, model.config.f, split="val")
        xs, ys = window_arrays(series_norm, ws)
        with ad.no_grad():
            pred = eval_model.forward(Tensor(xs)).data
        np.testing.assert_allclose(np.abs(pred - ys).mean(), best_val, atol=1e-12)

    def test_reported_loss_matches_offline_recompute(self):
        model, ds = small_setup(seed=5)
        init = model.params.clone()
        cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=4, seed=6)
        _, history, _ = train(model, ds, cfg)
        # replay the first batch from the recorded seed and initial params
        splits = chrono_split(ds.steps, min_len=9)
        norm = Normalizer.fit(ds.series[:, splits[0][0] : splits[0][1]])
        series_norm = norm.apply(ds.series)
        ws = make_windows(splits[0], model.config.t, model.config.f)
        order = np.random.default_rng(cfg.seed).permutation(len(ws))
        replay = SbaTransformer(model.config, model.series, model.pe_vectors, params=init)
        losses = []
        state = TrainState.for_params(replay.params)
        for lo in range(0, len(order), cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            xs, ys = window_arrays(series_norm, ws, at=sel)
            replay.params.zero_grad()
            loss = mae_loss(replay.forward(Tensor(xs)), Tensor(ys))
            loss.backward()
            adam_step(replay.params, state, cfg)
            losses.append(loss.item())
        np.testing.assert_allclose(history[0]["train_loss"], np.mean(losses), atol=1e-12)

    def test_divergence_aborts_preserving_checkpoint(self):
        model, ds = small_setup(seed=7)
        cfg = TrainConfig(lr=1e6, max_epochs=6, patience=10, seed=0)
        best, history, _ = train(model, ds, cfg)
        assert any(h.get("aborted") for h in history) or len(history) == 6
        for _, t in best.named():
            assert np.all(np.isfinite(t.data))

    def test_numeric_error_mid_epoch_aborts_and_keeps_best(self, monkeypatch):
        # NumericError from the second step of epoch 1 ends training with an
        # abort record; the params returned are those of epoch 0
        cfg = TrainConfig(lr=1e-3, max_epochs=4, patience=10, batch_size=8, seed=0)
        model, ds = small_setup(seed=7)
        _, windows = split_setup(ds, model.config.t, model.config.f)
        per_epoch = -(-len(windows["train"]) // cfg.batch_size)
        assert per_epoch > 2
        calls = []
        step = training._train_step

        def failing_step(*args):
            calls.append(None)
            if len(calls) == per_epoch + 2:
                raise NumericError("injected")
            return step(*args)

        monkeypatch.setattr(training, "_train_step", failing_step)
        best, history, timings = train(model, ds, cfg)
        monkeypatch.undo()
        assert history[-1] == {"epoch": 1, "aborted": True}
        assert len(history) == 2 and len(timings) == len(history)

        model_ref, ds_ref = small_setup(seed=7)
        reference, _, _ = train(model_ref, ds_ref, replace(cfg, max_epochs=1))
        for (name, t), (_, ref) in zip(best.named(), reference.named()):
            assert np.array_equal(t.data, ref.data), name

    def test_epoch_peak_holds_one_tape_at_a_time(self):
        # a step's tape must be freed before the next batch builds its own
        def traced_peak(fn):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        model, ds = small_setup(n=64, steps=300, t=12, f=6, d=16, l=2, p0=4)
        cfg = TrainConfig(batch_size=16, max_epochs=1)
        normalizer, windows = split_setup(ds, model.config.t, model.config.f)
        assert len(windows["train"]) > 8 * cfg.batch_size
        batch = range(cfg.batch_size)
        xs, ys = map(normalizer.apply, window_arrays(ds.series, windows["train"], at=batch))
        # the batch train gathers, bit for bit the gather from a normalized series
        for got, old in zip((xs, ys), window_arrays(normalizer.apply(ds.series),
                                                    windows["train"], at=batch)):
            assert np.array_equal(got, old)

        def one_step():
            mae_loss(model.forward(Tensor(xs)), Tensor(ys)).backward()

        step = traced_peak(one_step)
        epoch = traced_peak(lambda: train(model, ds, cfg))
        assert epoch < 1.5 * step


class TestEvaluate:
    def test_persistence_forecast_shape_and_values(self):
        xs = np.arange(24.0).reshape(2, 2, 3, 2)
        out = persistence_forecast(xs, f=4)
        assert out.shape == (2, 2, 4, 2)
        np.testing.assert_array_equal(out[..., 0, :], xs[..., -1, :])
        np.testing.assert_array_equal(out[..., 3, :], xs[..., -1, :])

    def test_report_layout_and_persistence_row(self):
        model, ds = small_setup(seed=8)
        report = evaluate(model, ds, "test")
        assert report["split"] == "test" and report["windows"] > 0
        for row in (report["model"], report["persistence"]):
            assert set(row) >= {"mae", "rmse", "mape_pct", "excluded", "horizon_breakdown"}
            assert len(row["horizon_breakdown"]) == model.config.f
            assert row["rmse"] >= row["mae"]

    def test_denormalization_consistency(self):
        # evaluating an untrained model, one gather per batch, must equal bit
        # for bit forecasting on gathers from the normalized series by hand,
        # de-normalizing, and scoring raw targets and persistence
        model, ds = small_setup(n=9, steps=400, seed=9)
        report = evaluate(model, ds, "val")
        splits = chrono_split(ds.steps, min_len=9)
        norm = Normalizer.fit(ds.series[:, splits[0][0] : splits[0][1]])
        ws = make_windows(splits[1], model.config.t, model.config.f, split="val")
        assert len(ws) > 64  # more than one batch
        xs_n, _ = window_arrays(norm.apply(ds.series), ws)
        xs_raw, ys_raw = window_arrays(ds.series, ws)
        pred = norm.invert(model.predict(xs_n))
        assert report["model"] == metrics(pred, ys_raw)
        naive = persistence_forecast(xs_raw, model.config.f)
        assert report["persistence"] == metrics(naive, ys_raw)

    def test_lr_zero_training_equals_initialization_eval(self):
        model, ds = small_setup(seed=10)
        init_report = evaluate(model, ds, "test")
        best, _, _ = train(model, ds, TrainConfig(lr=0.0, max_epochs=2, patience=5))
        trained = SbaTransformer(model.config, model.series, model.pe_vectors, params=best)
        trained_report = evaluate(trained, ds, "test")
        assert init_report["model"]["mae"] == trained_report["model"]["mae"]

    def test_tiled_predict_leaves_scores_unchanged(self, monkeypatch):
        # the whole-batch tape-off forward on gathers from the normalized
        # series, as both scores ran before predict took tiles and batches
        # were normalized as they are gathered, against one-window tiles
        model, ds = small_setup(n=9, steps=400, seed=11)
        normalizer, windows = split_setup(ds, model.config.t, model.config.f)
        series_norm = normalizer.apply(ds.series)
        val = windows["val"]
        assert len(val) > 64
        total = 0.0
        with ad.no_grad():
            for lo in range(0, len(val), 64):
                sel = range(lo, min(lo + 64, len(val)))
                xs, ys = window_arrays(series_norm, val, at=sel)
                total += float(np.abs(model.forward(Tensor(xs)).data - ys).mean()) * len(sel)
        # predict's cover of the windows in one tile, then in tiles of one
        monkeypatch.setattr(md, "_cover", lambda lead, item_bytes, budgets:
                            ad._cover(lead, item_bytes, (lead[0] * item_bytes,)))
        whole = evaluate(model, ds, "val")
        monkeypatch.setattr(md, "_cover", lambda lead, item_bytes, budgets:
                            ad._cover(lead, item_bytes, (item_bytes,)))
        # lr = 0 keeps the initial weights, so the first epoch scores them
        _, history, _ = train(model, ds, TrainConfig(lr=0.0, max_epochs=1))
        assert history[0]["val_mae"] == total / len(val)
        assert evaluate(model, ds, "val") == whole
