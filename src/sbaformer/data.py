"""Data ingestion, normalization, windowing, synthetic generation, metrics.

Series live as (n, steps, c) float64 arrays. Two interchangeable on-disk
encodings: CSV rows `node,step,c0[,c1...]` and raw little-endian f64 with a
JSON sidecar {n, t, c, freq_minutes, name}. Loading rejects NaN and ±inf.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_blob, read_csv, write_blob, write_csv
from .errors import (
    ConfigError,
    ContractError,
    HeaderMismatchError,
    InputError,
    NanPayloadError,
    NodeCountError,
    ShapeError,
)
from .graph import SpatialGraph, build_epsilon_graph, connected_components

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")
_NULL_THRESHOLD = 1e-4  # MAPE skips targets of smaller magnitude


@dataclass
class Dataset:
    series: np.ndarray  # (n, steps, c)
    graph: SpatialGraph
    freq_minutes: int = 15
    name: str = "dataset"

    def __post_init__(self):
        if self.series.ndim != 3:
            raise ShapeError(f"series must be (n, steps, c), got {self.series.shape}")
        if self.series.shape[0] != self.graph.n:
            raise NodeCountError(
                f"series has {self.series.shape[0]} nodes, graph has {self.graph.n}"
            )
        if not np.isfinite(self.series).all():
            raise NanPayloadError("series contains non-finite values")

    @property
    def n(self):
        return self.series.shape[0]

    @property
    def steps(self):
        return self.series.shape[1]

    @property
    def c(self):
        return self.series.shape[2]


@dataclass
class Normalizer:
    """Per-channel affine z-score; fit on the training range only."""

    mean: np.ndarray  # (c,)
    std: np.ndarray  # (c,)

    @classmethod
    def fit(cls, series: np.ndarray) -> "Normalizer":
        mean = series.mean(axis=(0, 1))
        std = series.std(axis=(0, 1))
        if (std <= 0).any():
            raise InputError("a channel is constant over the fit range; std would be 0")
        return cls(mean=mean, std=std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass
class WindowSet:
    """Forecast windows (start, t, f): input [start, start+t), target next f steps."""

    indices: list
    split: str

    def __len__(self):
        return len(self.indices)


def chrono_split(total_steps: int, ratios=(0.6, 0.2, 0.2), min_len: int | None = None):
    """Contiguous (start, end) ranges; floor boundaries, remainder to test."""
    ratios = tuple(float(r) for r in ratios)
    if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must be positive and sum to 1, got {ratios}")
    n_train = math.floor(ratios[0] * total_steps)
    n_val = math.floor(ratios[1] * total_steps)
    bounds = (
        (0, n_train),
        (n_train, n_train + n_val),
        (n_train + n_val, total_steps),
    )
    if min_len is not None:
        for (lo, hi), label in zip(bounds, SPLITS):
            if hi - lo < min_len:
                raise ConfigError(
                    f"{label} split has {hi - lo} steps, need at least {min_len}"
                )
    return bounds


def make_windows(step_range, t: int, f: int, stride: int = 1, split: str = "train") -> WindowSet:
    """All windows whose input and horizon lie fully inside the range."""
    lo, hi = step_range
    if t < 1 or f < 1 or stride < 1:
        raise ConfigError("t, f, and stride must be >= 1")
    if hi - lo < t + f:
        log.warning("range %s too short for t=%d f=%d; empty window set", step_range, t, f)
    starts = range(lo, hi - t - f + 1, stride)  # empty when the range is too short
    return WindowSet(indices=[(s, t, f) for s in starts], split=split)


def split_setup(dataset: Dataset, t: int, f: int):
    """Chronological splits of a dataset and a normalizer fit on the train range only.

    Returns (normalizer, {split name: WindowSet}). No normalized copy of the
    series is made: callers gather raw windows with
    `window_arrays(dataset.series, ...)` and apply the normalizer to each
    batch. The op is elementwise, so every bit equals a gather from a
    normalized copy of the whole series.
    """
    bounds = chrono_split(dataset.steps, min_len=t + f)
    train_lo, train_hi = bounds[0]
    normalizer = Normalizer.fit(dataset.series[:, train_lo:train_hi])
    return normalizer, {name: make_windows(b, t, f, split=name) for name, b in zip(SPLITS, bounds)}


def window_arrays(series: np.ndarray, windows, at=None):
    """Stack (inputs, targets) for the given windows: (w, n, t, c) and (w, n, f, c)."""
    idx = windows.indices
    if at is not None:
        idx = [idx[i] for i in at]
    xs = np.stack([series[:, s : s + t, :] for s, t, f in idx])
    ys = np.stack([series[:, s + t : s + t + f, :] for s, t, f in idx])
    return xs, ys


# ---------------------------------------------------------------------------
# synthetic data


def make_grid_graph(rows: int, cols: int) -> SpatialGraph:
    """8-neighbour (king's move) grid with unit spacing: a distance-threshold
    graph with epsilon=1.5, which also links the diagonals at sqrt(2)."""
    xs, ys = np.meshgrid(np.arange(cols), np.arange(rows))
    coords = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    return build_epsilon_graph(coords, epsilon=1.5)


def _grid_shape(n: int):
    rows = int(math.isqrt(n))
    while n % rows != 0:
        rows -= 1
    return rows, n // rows


def synth_diffusion(
    n: int = 64,
    steps: int = 2048,
    graph: SpatialGraph | None = None,
    gamma: float = 0.3,
    season_amp: float = 1.0,
    noise_std: float = 0.05,
    period: float = 64.0,
    seed: int = 0,
) -> Dataset:
    """Diffusion on a graph plus a spatially smooth seasonal drive plus noise.

    x[t+1] = (1-gamma) x[t] + gamma A_hat x[t] + amp sin(2 pi t/period + phi)
    + std eta[t], with A_hat the degree-normalized adjacency and phi a smooth
    per-node phase from the coordinates. Deterministic for a fixed seed.
    Neighbors end up more correlated than distant pairs by construction.
    gamma = 0 freezes the dynamics entirely (with amp = std = 0 the series
    stays at its initial state).
    """
    named = {"gamma": gamma, "season_amp": season_amp, "noise_std": noise_std, "period": period}
    for name, value in named.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if not 0 <= gamma < 1:
        raise ConfigError(f"gamma must lie in [0, 1), got {gamma}")
    if n < 1 or steps < 1:
        raise ConfigError(f"n and steps must be >= 1, got n={n}, steps={steps}")
    if not period > 0:
        raise ConfigError(f"period must be > 0, got {period}")
    if noise_std < 0:
        raise ConfigError(f"noise_std must be >= 0, got {noise_std}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if graph is None:
        graph = make_grid_graph(*_grid_shape(n))
    if graph.n != n:
        raise ConfigError(f"graph has {graph.n} nodes, requested n={n}")
    if len(connected_components(graph)) != 1:
        raise ConfigError("synthetic generator needs a connected graph")
    a = graph.dense_adjacency()
    deg = a.sum(axis=1)
    a_hat = np.divide(a, deg[:, None], out=np.zeros_like(a), where=deg[:, None] > 0)

    if graph.coords is not None:
        span = graph.coords.sum(axis=1)
        phi = 2.0 * np.pi * (span - span.min()) / (np.ptp(span) + 1.0)
    else:
        phi = 2.0 * np.pi * np.arange(n) / n

    rng = np.random.default_rng(seed)
    x = np.empty((n, steps, 1))
    state = np.sin(phi) + 0.1 * rng.standard_normal(n)
    x[:, 0, 0] = state
    for t in range(1, steps):
        forcing = season_amp * np.sin(2.0 * np.pi * (t - 1) / period + phi)
        state = (1.0 - gamma) * state + gamma * (a_hat @ state) + forcing
        if noise_std > 0:
            state = state + noise_std * rng.standard_normal(n)
        x[:, t, 0] = state
    return Dataset(series=x, graph=graph, name="synthetic")


# ---------------------------------------------------------------------------
# series files


def save_series(path, series: np.ndarray, fmt: str = "bin",
                freq_minutes: int = 15, name: str = "dataset"):
    """`bin` writes the blob pair for `path` (see artifacts.py); `csv` writes `path`."""
    n, t, c = series.shape
    if fmt == "bin":
        sidecar = {"n": n, "t": t, "c": c, "freq_minutes": freq_minutes, "name": name}
        write_blob(path, [series], sidecar)
    elif fmt == "csv":
        rows = ([node, step, *series[node, step].tolist()]
                for node in range(n) for step in range(t))
        write_csv(path, rows, header=["node", "step", *(f"c{i}" for i in range(c))])
    else:
        raise InputError(f"unknown series format {fmt!r}")


def load_series(path, fmt: str = "bin"):
    """Returns (series, meta dict or None). Raises distinct errors per failure."""
    if fmt == "bin":
        series, meta = read_blob(path, lambda m: (
            (m["n"], m["t"], m["c"]), {"freq_minutes": m["freq_minutes"], "name": m["name"]}
        ))
    elif fmt == "csv":
        meta = None

        def columns(header):
            if header[:2] != ["node", "step"]:
                raise ValueError("expected node,step,c0... header")
            return (int, int) + (float,) * (len(header) - 2)

        rows = {(node, step): vals for _, (node, step, *vals) in read_csv(path, columns)}
        if not rows:
            raise HeaderMismatchError(f"{path}: no data rows")
        n = max(k[0] for k in rows) + 1
        t = max(k[1] for k in rows) + 1
        if len(rows) != n * t or min(min(k) for k in rows) < 0:
            raise HeaderMismatchError(
                f"{path}: {len(rows)} rows do not cover the {n}x{t} grid"
            )
        c = len(next(iter(rows.values())))
        series = np.empty((n, t, c))
        for (node, step), vals in rows.items():
            series[node, step] = vals
    else:
        raise InputError(f"unknown series format {fmt!r}")
    if not np.isfinite(series).all():
        raise NanPayloadError(f"{path}: payload contains non-finite values")
    return series, meta


# ---------------------------------------------------------------------------
# evaluation metrics


def metrics(pred: np.ndarray, target: np.ndarray) -> dict:
    """MAE/RMSE over everything; MAPE in percent over |target| >= _NULL_THRESHOLD.

    The horizon axis is -2, and the report carries a per-step breakdown in
    the same three metrics. Excluded-entry counts make the MAPE masking
    auditable. RMSE >= MAE is asserted on the way out.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"metric shapes differ: {pred.shape} vs {target.shape}")
    err = pred - target

    def _one(e, t):
        mae = float(np.abs(e).mean())
        rmse = float(np.sqrt((e * e).mean()))
        keep = np.abs(t) >= _NULL_THRESHOLD
        excluded = int(t.size - keep.sum())
        mape = (
            float((np.abs(e[keep]) / np.abs(t[keep])).mean() * 100.0)
            if keep.any()
            else None
        )
        if rmse < mae - 1e-12:
            raise ContractError(f"rmse {rmse} < mae {mae}")
        return {"mae": mae, "rmse": rmse, "mape_pct": mape, "excluded": excluded}

    report = _one(err, target)
    horizon = []
    for step in range(pred.shape[-2]):
        horizon.append(_one(err[..., step, :], target[..., step, :]))
    report["horizon_breakdown"] = horizon
    return report
