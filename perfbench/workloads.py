"""The three benchmark workloads, driven through sbaformer's public functions.

Each workload is a closed loop with one caller: the next step or batch is
issued only after the previous one has returned. A run has three phases:

1. input generation from the seed (timed as ``data.synth_s``, excluded from
   ``setup_s``);
2. set-up, from the generated inputs to a ready model (or, for the sensor
   workload, to a ready partition series and encoding), repeated
   ``setups`` times untraced so ``setup_s`` is a median;
3. the measured loop, which runs for at least ``--seconds`` seconds.

Untraced runs call the library the way users do (``model.forward``,
``model.predict``, ``laplacian_pe``). Traced runs rebuild the forward pass
and the whole-graph encoding from the public stage functions, with a span
around each call, and report the per-layer metrics.
"""
from __future__ import annotations

import hashlib
import math
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sbaformer import autodiff as ad
from sbaformer.autodiff import Tensor
from sbaformer.data import (
    Normalizer,
    chrono_split,
    make_grid_graph,
    make_windows,
    synth_diffusion,
    window_arrays,
)
from sbaformer.graph import (
    PositionalEncoding,
    build_gaussian_graph,
    connected_components,
    laplacian,
    laplacian_pe,
    sym_eigen,
)
from sbaformer.model import (
    ModelConfig,
    SbaTransformer,
    attention_peak_bytes,
    embed,
    flops_estimate,
    fuse,
    inter_attention,
    intra_attention,
    mae_loss,
    pool_subgraphs,
)
from sbaformer.partition import apply_plan, build_scale_series, revert_plan
from sbaformer.training import TrainConfig, TrainState, adam_step

# Sizes per mode. "full" is the benchmark; "smoke" is a tiny copy with the
# same code paths (the forecast graph still exceeds its PE block limit, so
# the per-subgraph encoding runs), used by the benchmark's own tests.
SIZES = {
    "full": {
        "train_grid64": dict(
            rows=8, cols=8, steps=2048, p0=8, l=3, d_model=32, heads=4, t=24, f=12,
            k_pe=8, block_limit=2000, batch=16, lr=2e-3, val_batch=64, warmup=3, setups=5,
        ),
        "forecast_grid576": dict(
            rows=24, cols=24, steps=1024, p0=16, l=3, d_model=64, heads=4, t=24, f=12,
            k_pe=8, block_limit=96, batch=16, warmup=1, min_ops=3, setups=3,
        ),
        "setup_sensors256": dict(
            n=256, cols=8, box=10.0, gap=1.4, sigma=0.8, threshold=0.1, p0=8, l=3,
            k_pe=8, block_limit=2000, min_ops=3,
        ),
    },
    "smoke": {
        "train_grid64": dict(
            rows=4, cols=4, steps=256, p0=4, l=3, d_model=8, heads=2, t=6, f=3,
            k_pe=4, block_limit=2000, batch=8, lr=2e-3, val_batch=16, warmup=1, setups=2,
        ),
        "forecast_grid576": dict(
            rows=6, cols=6, steps=192, p0=4, l=3, d_model=8, heads=2, t=6, f=3,
            k_pe=4, block_limit=12, batch=4, warmup=1, min_ops=3, setups=2,
        ),
        "setup_sensors256": dict(
            n=40, cols=4, box=4.0, gap=1.4, sigma=0.8, threshold=0.1, p0=4, l=3,
            k_pe=4, block_limit=2000, min_ops=3,
        ),
    },
}

# The run config's partition defaults. The partition seed stays fixed so
# that, on the grid workloads, every data seed meets the same plans: the
# partitioner's run time swings by tens of percent from one seed to another.
BALANCE = 1.3
PARTITION_SEED = 0
ORTHO_TOL = 1e-9  # PE gate: max |V^T V - I|
RESIDUAL_TOL = 1e-9  # PE gate: max ||Lv - (v^T L v) v|| / ||L||
FLOPS_TOL = 0.01  # measured vs closed-form attention FLOPs, as in `bench`


class Tracer:
    """Named spans, summed per operation; ``commit`` closes one operation.

    Each span name gets one sample per committed operation, so a metric is
    the median over operations of the time that layer took within one.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.current = defaultdict(float)
        self.samples = defaultdict(list)
        self.depth = 0
        self.top = 0.0  # seconds in outermost spans of the open operation

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self.depth += 1
        tic = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - tic
            self.depth -= 1
            self.current[name] += seconds
            if self.depth == 0:
                self.top += seconds

    def commit(self) -> float:
        """Store the open operation's spans; returns its outermost spans' seconds."""
        total, self.top = self.top, 0.0
        for name, seconds in self.current.items():
            self.samples[name].append(seconds)
        self.current.clear()
        return total


class Run:
    """Metrics plus the attempt/failure ledger of one workload run.

    Set-up stages, steps, batches and correctness gates each count as one
    attempt; an exception or a failed gate counts as one failure.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.tracer = Tracer(trace)
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.inputs = hashlib.sha256()

    def put(self, name: str, value, unit: str):
        self.metrics[name] = {"value": value, "unit": unit}

    def gate(self, what: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"gate failed: {what} {detail}".strip())

    def op(self, what: str, fn, *args):
        """Run one closed-loop operation; a raised error counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a benchmark boundary: record and keep going
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def stage(self, fn, *args):
        """One set-up stage; set-up cannot continue past a failure."""
        self.attempted += 1
        return fn(*args)

    def timing(self, name: str, seconds: list):
        """In ms: median, the highest percentile with >= 10 samples beyond it, count."""
        vals = sorted(s * 1000.0 for s in seconds)
        self.put(f"{name}.p50", float(np.median(vals)), "ms")
        self.put(f"{name}.samples", len(vals), "count")
        if len(vals) >= 20:  # below 20 samples that percentile is under the median
            self.put(f"{name}.tail", vals[len(vals) - 11], "ms")
            self.put(f"{name}.tail_pct", 100.0 * (len(vals) - 10) / len(vals), "%")

    def layer(self, name: str):
        """Per-layer seconds: median over operations of the span named `name`."""
        self.put(name, float(np.median(self.tracer.samples[name])), "s")

    def finish(self):
        self.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        self.put("error_rate", self.failed / max(1, self.attempted), "failed/attempted")


# ---------------------------------------------------------------------------
# stage functions shared by the workloads


def staged_forward(model: SbaTransformer, x: Tensor, tracer: Tracer) -> Tensor:
    """SbaTransformer.forward rebuilt from its public stages, one span each.

    Makes the same calls in the same order as ``model.forward`` with no
    capture, so its output is bit-identical; the gates check that.
    """
    cfg, params, span = model.config, model.params, tracer.span
    with span("model.embed_s"):
        h = embed(x, params, model.pe_vectors)
    for plan, blk in zip(model.series.plans, params.blocks):
        with span("partition.layout_s"):
            xp = apply_plan(h, plan)
        with span("model.intra_s"):
            y, _ = intra_attention(xp, plan.mask, blk.intra, cfg.heads)
        with span("model.pool_s"):
            s = pool_subgraphs(y, plan.mask)
        with span("model.inter_s"):
            s2, _ = inter_attention(s, blk.inter, cfg.heads)
        with span("model.fuse_s"):
            fused = fuse(y, s2, blk.fuse, plan.mask)
        with span("partition.layout_s"):
            back = revert_plan(fused, plan)
        with span("model.fuse_s"):  # the block residual
            h = ad.add(back, h)
    with span("model.head_s"):
        out = ad.matmul(h, params.head)
        out = ad.reshape(out, out.shape[:-1] + (cfg.f, cfg.c))
    return out


def staged_pe(g, k: int, tracer: Tracer) -> PositionalEncoding:
    """The whole-graph branch of ``laplacian_pe`` from ``laplacian`` and ``sym_eigen``."""
    with tracer.span("graph.laplacian_s"):
        lap = laplacian(g)
    with tracer.span("graph.eigen_s"):
        _, vectors = sym_eigen(lap, min(k, g.n))
    if vectors.shape[1] < k:
        vectors = np.pad(vectors, ((0, 0), (0, k - vectors.shape[1])))
    return PositionalEncoding(k=k, vectors=vectors, source="whole-graph")


def tape_nodes(root: Tensor) -> int:
    """Count the tensors reachable from `root` through the tape links."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _series_and_pe(run: Run, g, cfg: dict):
    """build_scale_series then laplacian_pe; traced runs split the whole-graph PE."""
    span = run.tracer.span
    with span("partition.series_s"):
        series = run.stage(build_scale_series, g, cfg["p0"], cfg["l"], BALANCE, PARTITION_SEED)
    with span("graph.pe_s"):
        if run.trace and g.n <= cfg["block_limit"]:
            pe = run.stage(staged_pe, g, cfg["k_pe"], run.tracer)
        else:
            pe = run.stage(laplacian_pe, g, cfg["k_pe"], cfg["block_limit"])
    return series, pe


def _grid_inputs(run: Run, cfg: dict, seed: int):
    with run.tracer.span("graph.build_s"):
        g = make_grid_graph(cfg["rows"], cfg["cols"])
    with run.tracer.span("data.synth_s"):
        dataset = synth_diffusion(n=g.n, steps=cfg["steps"], graph=g, seed=seed)
    run.inputs.update(dataset.series.tobytes())
    return dataset


def _model_config(cfg: dict, n: int) -> ModelConfig:
    return ModelConfig(
        n=n, t=cfg["t"], c=1, f=cfg["f"], d_model=cfg["d_model"], l=cfg["l"],
        heads=cfg["heads"], p0=cfg["p0"], k_pe=cfg["k_pe"],
    )


def _model_setup(run: Run, dataset, cfg: dict, seed: int):
    """Everything from the generated series to a ready model, as `train` does it."""
    mc = _model_config(cfg, dataset.n)
    series, pe = _series_and_pe(run, dataset.graph, cfg)
    splits = run.stage(chrono_split, dataset.steps, (0.6, 0.2, 0.2), mc.t + mc.f)
    normalizer = run.stage(Normalizer.fit, dataset.series[:, splits[0][0] : splits[0][1]])
    series_norm = normalizer.apply(dataset.series)
    windows = [
        run.stage(make_windows, bounds, mc.t, mc.f, 1, name)
        for bounds, name in zip(splits, ("train", "val", "test"))
    ]
    model = run.stage(SbaTransformer, mc, series, pe.vectors, None, seed)
    return model, series_norm, windows


def _timed_setups(run: Run, cfg: dict, setup):
    """Untraced: median of `setups` repeats. Traced: one set-up under spans."""
    repeats = 1 if run.trace else cfg["setups"]
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        ready = setup()
        times.append(time.perf_counter() - tic)
    run.tracer.commit()
    if not run.trace:
        run.put("setup_s", float(np.median(times)), "s")
        run.put("setup_s.samples", len(times), "count")
    return ready


def _graph_metrics(run: Run, g, series, mc: ModelConfig | None):
    plan0 = series.plans[0]
    run.put("cut_frac", plan0.edge_cut / g.total_edge_weight(), "ratio")
    if not run.trace:
        return
    run.put("graph.edges", sum(1 for _ in g.edges()), "count")
    run.put("graph.components", len(connected_components(g)), "count")
    for level, plan in enumerate(series.plans):
        run.put(f"partition.padding_ratio.l{level}", plan.p * plan.m / plan.n, "ratio")
    for name in ("graph.build_s", "data.synth_s", "graph.pe_s", "partition.series_s"):
        run.layer(name)
    if mc is not None:
        run.put("model.score_bytes", attention_peak_bytes(mc, series), "bytes")


def _check_pe(run: Run, g, pe):
    """Orthonormal columns, and each column an eigenvector of L to tolerance."""
    lap = laplacian(g)
    v = pe.vectors
    ortho = float(np.abs(v.T @ v - np.eye(v.shape[1])).max())
    run.gate("pe orthonormal", ortho <= ORTHO_TOL, f"max |VtV-I| = {ortho:.3e}")
    lv = lap @ v
    rayleigh = (v * lv).sum(axis=0)
    resid = np.linalg.norm(lv - v * rayleigh, axis=0).max() / np.linalg.norm(lap, 2)
    run.gate("pe residual", resid <= RESIDUAL_TOL, f"max residual/||L|| = {resid:.3e}")


def _closed_loop(run: Run, seconds: float, min_ops: int, op):
    """Call `op(i)` until `seconds` have passed and at least `min_ops` ran.

    Returns the per-op wall seconds, the per-op sum of stage spans (traced
    runs) and the loop's elapsed seconds.
    """
    times, span_totals = [], []
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        tic = time.perf_counter()
        op(len(times))
        times.append(time.perf_counter() - tic)
        span_totals.append(run.tracer.commit())
    return times, span_totals, time.perf_counter() - start


def _trace_cover(run: Run, times: list, span_totals: list):
    """The share of each traced op that its stage spans account for, median."""
    cover = np.array(span_totals) / np.array(times)
    run.put("trace.span_cover", float(np.median(cover)), "ratio")


# ---------------------------------------------------------------------------
# workloads


def train_grid64(run: Run, cfg: dict, seed: int, seconds: float):
    """Optimizer steps on the e2e config, then one validation pass.

    The loop makes the calls of `training.train`'s inner loop, in its order,
    with the FLOP counter on, over seeded shuffled epochs. The first `warmup`
    steps are not timed. The loop never stops before the first epoch ends:
    `val_mae` is the validation MAE of the parameters after exactly one
    epoch, so it does not depend on machine speed.
    """
    dataset = _grid_inputs(run, cfg, seed)

    def setup():
        model, series_norm, windows = _model_setup(run, dataset, cfg, seed)
        state = run.stage(TrainState.for_params, model.params)
        return model, series_norm, windows, state

    model, series_norm, (train_ws, val_ws, _), state = _timed_setups(run, cfg, setup)
    b = cfg["batch"]
    tcfg = TrainConfig(lr=cfg["lr"], batch_size=b, seed=seed)
    epoch_len = math.ceil(len(train_ws) / b)

    def batches():
        rng = np.random.default_rng(seed)
        while True:
            order = rng.permutation(len(train_ws))
            for lo in range(0, len(order), b):
                yield order[lo : lo + b]

    stream = batches()
    xs, _ = window_arrays(series_norm, train_ws, at=range(b))
    with ad.no_grad():
        same = np.array_equal(
            staged_forward(model, Tensor(xs), Tracer(False)).data, model.forward(Tensor(xs)).data
        )
    run.gate("staged forward == SbaTransformer.forward", same)

    losses, flop_counts, windows_done = [], [], []
    snapshot = []  # the parameters after exactly one epoch
    span = run.tracer.span

    def step():
        sel = next(stream)
        with span("data.window_s"):
            xs, ys = window_arrays(series_norm, train_ws, at=sel)
        before = ad.flops.total()
        with span("training.adam_s"):
            model.params.zero_grad()
        if run.trace:
            pred = staged_forward(model, Tensor(xs), run.tracer)
            with span("model.loss_s"):
                loss = mae_loss(pred, Tensor(ys))
        else:
            loss = mae_loss(model.forward(Tensor(xs)), Tensor(ys))
        flop_counts.append(ad.flops.total() - before)
        if run.trace and not losses:
            run.put("autodiff.tape_nodes", tape_nodes(loss), "count")
        with span("autodiff.backward_s"):
            loss.backward()
        with span("training.adam_s"):
            adam_step(model.params, state, tcfg)
        losses.append(loss.item())
        windows_done.append(len(sel))
        if state.step == epoch_len:
            snapshot.append(model.params.clone())

    with ad.flops.counting():
        for _ in range(cfg["warmup"]):
            run.op("warm-up step", step)
        run.tracer.current.clear()
        flop_counts.clear()
        windows_done.clear()
        times, span_totals, elapsed = _closed_loop(
            run, seconds, epoch_len - cfg["warmup"], lambda i: run.op("train step", step)
        )
    bad = [x for x in losses if not math.isfinite(x)]
    run.gate("every loss finite", not bad, f"{len(bad)} non-finite of {len(losses)}")

    # One validation pass through predict, on the parameters after epoch one.
    val_model = SbaTransformer(model.config, model.series, model.pe_vectors, params=snapshot[0])
    total, n_val = 0.0, len(val_ws)
    tic = time.perf_counter()
    for lo in range(0, n_val, cfg["val_batch"]):
        sel = range(lo, min(lo + cfg["val_batch"], n_val))
        xs, ys = window_arrays(series_norm, val_ws, at=sel)
        pred = run.op("validation batch", val_model.predict, xs)
        if pred is not None:
            total += float(np.abs(pred - ys).mean()) * len(sel)
    val_seconds = time.perf_counter() - tic
    val_mae = total / n_val
    run.gate("val_mae finite", math.isfinite(val_mae))

    run.timing("train_step_ms", times)
    run.put("train_windows_per_s", sum(windows_done) / elapsed, "windows/s")
    run.put("forecast_windows_per_s", n_val / val_seconds, "windows/s")
    run.put("val_mae", val_mae, "norm")
    _graph_metrics(run, dataset.graph, model.series, model.config)
    if run.trace:
        for name in ("autodiff.backward_s", "training.adam_s", "model.loss_s", "data.window_s",
                     "partition.layout_s", "graph.laplacian_s", "graph.eigen_s"):
            run.layer(name)
        for name in ("embed", "intra", "pool", "inter", "fuse", "head"):
            run.layer(f"model.{name}_s")
        run.put("autodiff.matmul_flops", int(np.median(flop_counts)), "flops")
        run.put("model.attn_flops", flops_estimate(model.config, model.series)["closed_total"], "flops")
        _trace_cover(run, times, span_totals)


def forecast_grid576(run: Run, cfg: dict, seed: int, seconds: float):
    """Batched predict on fixed test windows with seeded random weights.

    The tape is off throughout. Batches cycle over the whole batches of the
    test split; the first `warmup` batches are not timed.
    """
    dataset = _grid_inputs(run, cfg, seed)
    model, series_norm, (_, _, test_ws) = _timed_setups(
        run, cfg, lambda: _model_setup(run, dataset, cfg, seed)
    )
    mc, b = model.config, cfg["batch"]
    batches = [range(lo, lo + b) for lo in range(0, len(test_ws) - b + 1, b)]

    est = flops_estimate(mc, model.series)
    run.gate("attention FLOPs within 1% of closed form", abs(est["ratio"] - 1.0) <= FLOPS_TOL,
             f"ratio {est['ratio']:.6f}")
    xs, _ = window_arrays(series_norm, test_ws, at=batches[0])
    with ad.no_grad():
        staged = staged_forward(model, Tensor(xs), Tracer(False)).data
    run.gate("staged forward == predict", np.array_equal(staged, model.predict(xs)))

    flop_counts = []
    span = run.tracer.span

    def batch(i):
        with span("data.window_s"):
            xs, _ = window_arrays(series_norm, test_ws, at=batches[i % len(batches)])
        if run.trace:
            before = ad.flops.total()
            with ad.flops.counting(), ad.no_grad():
                out = staged_forward(model, Tensor(xs), run.tracer).data
            flop_counts.append(ad.flops.total() - before)
        else:
            out = model.predict(xs)
        ok = out.shape == (b, mc.n, mc.f, mc.c) and bool(np.isfinite(out).all())
        run.gate("forecast shape and finite", ok, f"shape {out.shape}")

    for i in range(cfg["warmup"]):
        run.op("warm-up batch", batch, i)
    run.tracer.current.clear()
    flop_counts.clear()
    times, span_totals, elapsed = _closed_loop(
        run, seconds, cfg["min_ops"], lambda i: run.op("predict batch", batch, i)
    )

    run.timing("forecast_batch_ms", times)
    run.put("forecast_windows_per_s", len(times) * b / elapsed, "windows/s")
    _graph_metrics(run, dataset.graph, model.series, mc)
    if run.trace:
        for name in ("data.window_s", "partition.layout_s"):
            run.layer(name)
        for name in ("embed", "intra", "pool", "inter", "fuse", "head"):
            run.layer(f"model.{name}_s")
        run.put("autodiff.matmul_flops", int(np.median(flop_counts)), "flops")
        run.put("model.attn_flops", est["closed_total"], "flops")
        _trace_cover(run, times, span_totals)


def sensor_coords(cfg: dict, seed: int) -> np.ndarray:
    """`n` sensors in two districts of a square box, `gap` apart.

    Each district is a lattice of `cols` columns with one sensor placed
    uniformly at random in each cell: irregular, yet alike from seed to
    seed, so the graph's size and the set-up work vary little with the seed.
    The gap exceeds the Gaussian kernel's reach, so the graph always has
    exactly two components.
    """
    reach = cfg["sigma"] * math.sqrt(math.log(1.0 / cfg["threshold"]))
    if cfg["gap"] <= reach:
        raise ValueError(f"gap {cfg['gap']} must exceed the kernel reach {reach:.3f}")
    rng = np.random.default_rng(seed)
    cols, rows = cfg["cols"], cfg["n"] // (2 * cfg["cols"])
    width = (cfg["box"] - cfg["gap"]) / 2
    cell = np.array([width / cols, cfg["box"] / rows])
    ii, jj = np.meshgrid(np.arange(cols), np.arange(rows), indexing="ij")
    corners = np.stack([ii.ravel(), jj.ravel()], axis=1) * cell
    return np.concatenate([
        corners + rng.uniform(0.0, 1.0, size=corners.shape) * cell + [d * (width + cfg["gap"]), 0.0]
        for d in range(2)
    ])


def setup_sensors256(run: Run, cfg: dict, seed: int, seconds: float):
    """Coordinates to Gaussian graph to scale series to whole-graph PE; no model.

    Set-up is the workload, so its closed-loop operation is one whole
    set-up pass, and `setup_s` is the median of those passes. Every pass
    must reproduce the first one exactly.
    """
    with run.tracer.span("data.synth_s"):
        coords = sensor_coords(cfg, seed)
    run.inputs.update(coords.tobytes())
    run.tracer.commit()
    passes = []

    def one_pass(_):
        with run.tracer.span("graph.build_s"):
            g = run.stage(build_gaussian_graph, coords, cfg["sigma"], cfg["threshold"])
        series, pe = _series_and_pe(run, g, cfg)
        if passes:
            first = passes[0]
            same = np.array_equal(pe.vectors, first[2].vectors) and all(
                np.array_equal(a.assign, b.assign) for a, b in zip(series.plans, first[1].plans)
            )
            run.gate("set-up pass reproduces the first", same)
        else:
            passes.append((g, series, pe))

    times, span_totals, _ = _closed_loop(run, seconds, cfg["min_ops"], one_pass)
    g, series, pe = passes[0]
    run.op("series.validate(g)", series.validate, g)
    _check_pe(run, g, pe)

    run.timing("setup_pass_ms", times)
    if not run.trace:
        run.put("setup_s", float(np.median(times)), "s")
        run.put("setup_s.samples", len(times), "count")
    _graph_metrics(run, g, series, None)
    if run.trace:
        run.layer("graph.laplacian_s")
        run.layer("graph.eigen_s")
        _trace_cover(run, times, span_totals)


# name -> (workload, the record metric of its closed-loop operation)
WORKLOADS = {
    "train_grid64": (train_grid64, "train_step_ms"),
    "forecast_grid576": (forecast_grid576, "forecast_batch_ms"),
    "setup_sensors256": (setup_sensors256, "setup_pass_ms"),
}
