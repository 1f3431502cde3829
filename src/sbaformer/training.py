"""Adam optimization loop with early stopping, plus evaluation.

Training is bit-for-bit reproducible under a fixed seed: shuffling is a
seeded permutation per epoch, batches run in order, and the history file
carries only deterministic fields (wall times go to a separate timing list
so re-runs produce byte-identical histories).
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_section
from .data import SPLITS, Dataset, metrics, split_setup, window_arrays
from .errors import ConfigError, ContractError, NumericError
from .model import ModelParams, SbaTransformer, mae_loss

log = logging.getLogger(__name__)

_EVAL_BATCH = 64  # windows gathered per predict call when scoring a split


@dataclass
class TrainConfig:
    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 10
    grad_clip: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_section("train", vars(self))


@dataclass
class TrainState:
    """Optimizer moments keyed like the parameter manifest, plus progress."""

    epoch: int = 0
    step: int = 0
    best_val_mae: float = float("inf")
    epochs_since_improve: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ModelParams) -> "TrainState":
        state = cls()
        for name, t in params.named():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def adam_step(params: ModelParams, state: TrainState, cfg: TrainConfig):
    """Standard Adam with bias correction; optional global-norm clipping first."""
    named = list(params.named())
    grads = []
    for name, t in named:
        if t.grad is None:
            raise ContractError(f"missing gradient for {name}")
        if not np.all(np.isfinite(t.grad)):
            raise NumericError(f"non-finite gradient in {name}")
        grads.append(t.grad)
    if cfg.grad_clip is not None:
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        if norm > cfg.grad_clip:
            scale = cfg.grad_clip / norm
            grads = [g * scale for g in grads]
    state.step += 1
    b1, b2 = cfg.betas
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for (name, t), g in zip(named, grads):
        m = state.m[name] = b1 * state.m[name] + (1 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        t.data = t.data - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def _train_step(model: SbaTransformer, state: TrainState, cfg: TrainConfig, xs, ys) -> float:
    """One Adam step on one batch; returns the batch loss.

    The tape lives only in this frame, so it is freed before the next
    batch's forward builds another one.
    """
    model.params.zero_grad()
    loss = mae_loss(model.forward(Tensor(xs)), Tensor(ys))
    loss.backward()
    adam_step(model.params, state, cfg)
    return loss.item()


def _forecasts(model: SbaTransformer, series, normalizer, windows):
    """(normalized forecast, raw inputs, raw targets) per batch of _EVAL_BATCH
    windows, each gathered once from the raw series: the loop of validation and
    `evaluate`. `model.predict` runs with the tape off in tiles of windows, two
    per worker under a memory cap, one worker per usable CPU, the calling thread
    among them; neither the tile size nor the worker count changes the bits.
    """
    for lo in range(0, len(windows), _EVAL_BATCH):
        xs, ys = window_arrays(series, windows, at=range(lo, min(lo + _EVAL_BATCH, len(windows))))
        yield model.predict(normalizer.apply(xs)), xs, ys


def train(model: SbaTransformer, dataset: Dataset, cfg: TrainConfig):
    """Optimize on the train split, early-stop on validation MAE.

    Returns (best_params, history, timings): history is one dict per epoch
    with deterministic fields only; timings is the per-epoch wall seconds.
    On divergence the loop aborts and the best checkpoint so far survives.
    """
    mc = model.config
    if dataset.n != mc.n or dataset.c != mc.c:
        raise ContractError(
            f"dataset ({dataset.n} nodes, {dataset.c} ch) does not match the model config"
        )
    normalizer, windows = split_setup(dataset, mc.t, mc.f)
    train_ws, val_ws = windows["train"], windows["val"]
    if not len(train_ws) or not len(val_ws):
        raise ConfigError("train/val splits yield no complete windows")

    rng = np.random.default_rng(cfg.seed)
    state = TrainState.for_params(model.params)
    best_params = model.params.clone()
    history, timings = [], []

    for epoch in range(cfg.max_epochs):
        tic = time.perf_counter()
        order = rng.permutation(len(train_ws))
        losses = []
        flops_before = ad.flops.total()
        aborted = False
        with ad.flops.counting():
            for lo in range(0, len(order), cfg.batch_size):
                sel = order[lo : lo + cfg.batch_size]
                xs, ys = map(normalizer.apply, window_arrays(dataset.series, train_ws, at=sel))
                try:
                    losses.append(_train_step(model, state, cfg, xs, ys))
                except NumericError as exc:
                    log.error("aborting training at epoch %d: %s", epoch, exc)
                    aborted = True
                    break
        if aborted:
            history.append({"epoch": epoch, "aborted": True})
            timings.append(time.perf_counter() - tic)
            break
        val_mae = sum(
            float(np.abs(pred - normalizer.apply(ys)).mean()) * len(ys)
            for pred, _, ys in _forecasts(model, dataset.series, normalizer, val_ws)
        ) / len(val_ws)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_mae": val_mae,
                "flops": ad.flops.total() - flops_before,
            }
        )
        timings.append(time.perf_counter() - tic)
        state.epoch = epoch
        if val_mae < state.best_val_mae:
            state.best_val_mae = val_mae
            state.epochs_since_improve = 0
            best_params = model.params.clone()
        else:
            state.epochs_since_improve += 1
            if state.epochs_since_improve >= cfg.patience:
                break
    return best_params, history, timings


def persistence_forecast(xs: np.ndarray, f: int) -> np.ndarray:
    """Repeat each window's last observation across the horizon."""
    return np.repeat(xs[..., -1:, :], f, axis=-2)


def evaluate(model: SbaTransformer, dataset: Dataset, split: str = "test") -> dict:
    """Metric report on de-normalized forecasts, with a persistence reference row.

    Forecasts come from the loop that validation uses (`_forecasts`: each
    batch gathered once from the raw series and normalized before
    `model.predict`) and are inverted back to the raw scale before scoring
    against the raw targets; the persistence row repeats the same raw
    inputs and goes through the exact same metric path.
    """
    mc = model.config
    if dataset.n != mc.n or dataset.c != mc.c:
        raise ContractError("checkpoint config does not match the dataset shapes")
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    normalizer, by_split = split_setup(dataset, mc.t, mc.f)
    windows = by_split[split]
    if not len(windows):
        raise ConfigError(f"{split} split yields no complete windows")

    preds, targets, naive = [], [], []
    for pred, xs, ys in _forecasts(model, dataset.series, normalizer, windows):
        preds.append(normalizer.invert(pred))
        targets.append(ys)
        naive.append(persistence_forecast(xs, mc.f))
    pred = np.concatenate(preds)
    target = np.concatenate(targets)
    return {
        "split": split,
        "windows": len(windows),
        "model": metrics(pred, target),
        "persistence": metrics(np.concatenate(naive), target),
    }
