"""The two-level attention forecaster.

One block: reorder node rows so each subgraph's rows are consecutive, attend
within each subgraph over its own rows only, mean-pool each subgraph to a
summary token, attend across summaries, repeat each refreshed summary over
its subgraph's rows, fuse with the local representation through a 2D->D
linear map, restore node order and add a block-level residual. Blocks are
stacked over a coarsening partition series. Each attention branch, intra
and inter, is one op, `ad.layer`: a pre-norm attention sublayer (layer
norm, the q, k and v projections, attention over runs of rows and the
residual add) and a pre-norm GELU feed-forward sublayer with its residual.
It walks tiles of whole windows, so with the tape on or off its layer-norm
outputs, q, k, v and hidden layer exist only at tile size, and with the
tape off so does the branch output between its two sublayers.

A block holds exactly the n node rows, so there is no padding: intra
attention costs the sum of s_i^2 over the subgraph sizes s_i, and every
per-row stage costs n rows.
"""
from __future__ import annotations

import copy
import math
import os
import threading
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .artifacts import read_blob, write_blob
from .autodiff import Tensor, _cover
from .config import check_heads
from .errors import ConfigError, ContractError, InputError, ShapeError
from .partition import PartitionPlan, ScaleSeries, apply_plan, prefix_sizes, revert_plan


@dataclass
class ModelConfig:
    n: int  # nodes
    t: int  # look-back steps
    c: int  # channels
    f: int  # horizon steps
    d_model: int
    l: int  # block count
    heads: int = 4
    p0: int = 8
    k_pe: int = 8
    ffn_mult: int = 4

    def __post_init__(self):
        typed = [name for name, value in vars(self).items()
                 if not isinstance(value, int) or isinstance(value, bool)]
        if typed:
            raise ConfigError(f"model sizes must be integers: {', '.join(typed)}")
        small = [name for name, value in vars(self).items() if value < 1]
        if small:
            raise ConfigError(f"model sizes must be >= 1: {', '.join(small)}")
        check_heads(self.d_model, self.heads)

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads


@dataclass
class AttnParams:
    """One attention+FFN branch: projections, FFN pair, two layer-norm sets."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ffn_w1: Tensor
    ffn_w2: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor


@dataclass
class SbaBlockParams:
    intra: AttnParams
    inter: AttnParams
    fuse: Tensor  # (2D, D)


@dataclass
class ModelParams:
    embed: Tensor  # (T*C, D)
    pe_proj: Tensor  # (k_pe, D)
    blocks: list
    head: Tensor  # (D, F*C)

    def named(self):
        """Yield (name, tensor) in manifest order; this order IS the format."""
        yield "embed", self.embed
        yield "pe_proj", self.pe_proj
        branch = [fld.name for fld in fields(AttnParams)]
        for b, blk in enumerate(self.blocks):
            for side in ("intra", "inter"):
                prm = getattr(blk, side)
                for name in branch:
                    yield f"block{b}.{side}.{name}", getattr(prm, name)
            yield f"block{b}.fuse", blk.fuse
        yield "head", self.head

    def tensors(self):
        return [t for _, t in self.named()]

    def count(self) -> int:
        return sum(t.data.size for t in self.tensors())

    def zero_grad(self):
        for t in self.tensors():
            t.grad = None

    def clone(self) -> "ModelParams":
        """A copy of every tensor, with no gradients."""
        out = copy.deepcopy(self)
        out.zero_grad()
        return out


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) linear maps, unit layer norms."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    d = config.d_model

    def linear(fan_in, fan_out):
        bound = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), True)

    def branch():
        return AttnParams(
            wq=linear(d, d),
            wk=linear(d, d),
            wv=linear(d, d),
            ln1_gamma=Tensor(np.ones(d), True),
            ln1_beta=Tensor(np.zeros(d), True),
            ffn_w1=linear(d, config.ffn_mult * d),
            ffn_w2=linear(config.ffn_mult * d, d),
            ln2_gamma=Tensor(np.ones(d), True),
            ln2_beta=Tensor(np.zeros(d), True),
        )

    return ModelParams(
        embed=linear(config.t * config.c, d),
        pe_proj=linear(config.k_pe, d),
        blocks=[
            SbaBlockParams(intra=branch(), inter=branch(), fuse=linear(2 * d, d))
            for _ in range(config.l)
        ],
        head=linear(d, config.f * config.c),
    )


# ---------------------------------------------------------------------------
# forward graph


def intra_attention(xp: Tensor, valid, prm: AttnParams, heads: int, return_weights: bool = False):
    """Per-subgraph self-attention and FFN over node rows in subgraph order.

    xp is (..., n, d) as apply_plan lays it out; valid is the plan's (p, m)
    mask, whose row counts are the subgraph sizes and whose valid slots
    must come first in each row (ContractError otherwise). Returns
    (y, alpha). alpha is None unless return_weights is set; then it is a
    list of p arrays (..., heads, s_i, s_i), s_i the size of subgraph i.
    """
    return ad.layer(xp, prm.ln1_gamma, prm.ln1_beta, prm.wq, prm.wk, prm.wv, prm.ln2_gamma,
                    prm.ln2_beta, prm.ffn_w1, prm.ffn_w2, prefix_sizes(valid), heads,
                    return_weights)


def pool_subgraphs(y: Tensor, valid) -> Tensor:
    """Mean over each subgraph's rows: (..., n, d) -> (..., p, d)."""
    return ad.segment_mean(y, prefix_sizes(valid))


def inter_attention(s: Tensor, prm: AttnParams, heads: int, return_weights: bool = False):
    """Self-attention across all p subgraph summaries, same wrapping as intra.

    s is (..., p, d); the p rows form one run. Returns (y, alpha). alpha is
    None unless return_weights is set; then it is a one-element list
    holding the (..., heads, p, p) weights.
    """
    return ad.layer(s, prm.ln1_gamma, prm.ln1_beta, prm.wq, prm.wk, prm.wv, prm.ln2_gamma,
                    prm.ln2_beta, prm.ffn_w1, prm.ffn_w2, [s.shape[-2]], heads, return_weights)


def fuse(y: Tensor, s_prime: Tensor, w_fuse: Tensor, valid) -> Tensor:
    """Each row of y joined with its subgraph's summary, mapped 2D -> D.

    One `ad.fuse` op: the tape keeps y and the p summaries, not the
    (..., n, 2D) concat, which exists one window tile at a time.
    """
    return ad.fuse(y, s_prime, prefix_sizes(valid), w_fuse)


def sba_block(
    x: Tensor,
    plan: PartitionPlan,
    prm: SbaBlockParams,
    heads: int,
    capture: list | None = None,
) -> Tensor:
    """One block in node order: partition, attend, pool, exchange, fuse, residual.

    The attention weights are kept only when capture asks for them. With
    the tape off, each activation is freed as soon as the next one exists:
    the layout copy inside `intra_attention`, y once fused, and the fused
    rows once they are back in node order.
    """
    keep = capture is not None
    y, alpha = intra_attention(apply_plan(x, plan), plan.mask, prm.intra, heads, keep)
    s2, alpha2 = inter_attention(pool_subgraphs(y, plan.mask), prm.inter, heads, keep)
    if keep:
        capture.append(_capture_block(alpha, alpha2))
    fused = fuse(y, s2, prm.fuse, plan.mask)
    del y
    back = revert_plan(fused, plan)
    del fused
    return ad.add(back, x)


def _capture_block(alpha: list, alpha2: list) -> dict:
    """Head-averaged attention maps at valid sizes, for dump/inspection."""
    if [a.ndim for a in alpha2] != [3]:  # zero windows give no weights at all
        raise ContractError("attention capture expects a single unbatched window")
    return {
        "intra": [a.mean(axis=0) for a in alpha],  # each (h, s_i, s_i) -> (s_i, s_i)
        "inter": alpha2[0].mean(axis=0),
    }


def embed(x, params: ModelParams, pe_vectors) -> Tensor:
    """Flatten history to (..., n, t*c), map to width d, add projected encodings."""
    t = ad.as_tensor(x)
    if t.ndim < 3:
        raise ShapeError(f"embed expects (..., n, t, c), got {tuple(t.shape)}")
    n = len(pe_vectors)
    if t.shape[-3] != n:
        raise ShapeError(f"history has {t.shape[-3]} nodes; the model has {n}")
    flat = ad.reshape(t, t.shape[:-2] + (t.shape[-2] * t.shape[-1],))
    if flat.shape[-1] != params.embed.shape[0]:
        raise ShapeError(
            f"history width {flat.shape[-1]} does not match embedding "
            f"{tuple(params.embed.shape)}"
        )
    base = ad.matmul(flat, params.embed)
    return ad.add(base, ad.matmul(Tensor(pe_vectors), params.pe_proj))


def mae_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error over every element (sum |err| / (n*f*c) per window)."""
    tgt = ad.as_tensor(target)
    if tuple(pred.shape) != tuple(tgt.shape):
        raise ShapeError(f"loss shapes differ: {tuple(pred.shape)} vs {tuple(tgt.shape)}")
    return ad.mae(pred, tgt)


# Memory cap of one `predict` tile, in bytes of its (tile, n, d_model)
# activations: `ad.layer` and `ad.fuse` bound their own temporaries, so what
# grows with a tile is a few such arrays. 5 windows at n=576, d_model=64.
_TILE_BYTES = 3 << 19

# Windows over this many bytes of (n, d_model) f64 activations run their
# tiles on helper threads too; smaller ones run on the calling thread. It is
# the measured crossover: below it a second thread loses more to handing
# the GIL back and forth between short numpy calls than its core gives back
# (timings in the README).
_THREADED_WINDOW_BYTES = 64 << 10


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SbaTransformer:
    """Config, partition series, positional encoding, and parameters in one place."""

    def __init__(self, config: ModelConfig, series: ScaleSeries, pe_vectors,
                 params: ModelParams | None = None, seed: int = 0):
        if len(series.plans) != config.l:
            raise ContractError(
                f"series has {len(series.plans)} plans, config.l={config.l}"
            )
        if series.plans[0].p != config.p0:
            raise ContractError(
                f"series starts at p={series.plans[0].p}, config.p0={config.p0}"
            )
        if any(plan.n != config.n for plan in series.plans):
            raise ContractError(
                f"series plans cover {[plan.n for plan in series.plans]} nodes, "
                f"config.n={config.n}"
            )
        pe_vectors = np.asarray(pe_vectors, dtype=np.float64)
        if pe_vectors.shape != (config.n, config.k_pe):
            raise ContractError(
                f"encoding shape {pe_vectors.shape} != ({config.n}, {config.k_pe})"
            )
        self.config = config
        self.series = series
        self.pe_vectors = pe_vectors
        self.params = params if params is not None else init_params(config, seed)
        self.seed = seed

    def forward(self, x, capture: list | None = None) -> Tensor:
        """Full pipeline: embed, l blocks over the scale series, linear head."""
        h = embed(x, self.params, self.pe_vectors)
        for plan, blk in zip(self.series.plans, self.params.blocks):
            h = sba_block(h, plan, blk, self.config.heads, capture)
        out = ad.matmul(h, self.params.head)
        return ad.reshape(out, out.shape[:-1] + (self.config.f, self.config.c))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forecasts with the tape off, in tiles of windows run by the
        calling thread and, once a window is large, one more thread per
        further usable CPU.

        x is (..., n, t, c); one window (n, t, c) runs as a tile of one, and
        zero windows run none. The windows run through `forward` a tile at a
        time, two tiles per usable CPU within `_TILE_BYTES` of activations
        (the windows' `_cover`), and each tile writes its forecasts into its
        own slice of one preallocated output. The workers are the calling
        thread and threads that live only inside this call; each of them
        enters `ad.no_grad()`, whose mode is per thread, and takes tiles from
        one shared iterator. There is one worker per CPU the process may use
        (capped at the tile count; `taskset` limits it) when one window's
        (n, d_model) activations are over `_THREADED_WINDOW_BYTES`. Else the
        calling thread is the one worker and no thread starts: its numpy
        calls are then too short for a second core to win back the GIL
        handoffs between them. numpy's kernels release the GIL, so tiles on
        two workers overlap. Every op works on each window on its own, so
        the result equals one whole-batch forward bit for bit at any tile
        size and worker count. The first tile to fail stops the tiles not
        yet started, and its error is raised here once
        every thread has ended.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 3:
            raise ShapeError(f"predict expects (..., n, t, c), got {x.shape}")
        mc = self.config
        windows = x.reshape((-1,) + x.shape[-3:])
        out = np.empty((len(windows), x.shape[-3], mc.f, mc.c))
        cpus = _usable_cpus()
        unit = 8 * mc.n * mc.d_model  # one window's activation bytes
        per_tile = -(-len(windows) // (2 * cpus)) * unit  # two tiles a CPU
        tiles = _cover((len(windows),), unit, (min(_TILE_BYTES, per_tile),))
        workers = min(cpus, len(tiles)) if unit > _THREADED_WINDOW_BYTES else 1
        pending = iter(tiles)
        lock = threading.Lock()
        errors = []  # the first holds the error to raise; any stops the tiles

        def take():
            with lock:
                return None if errors else next(pending, None)

        def drain():
            try:
                with ad.no_grad():  # the tape mode is per thread
                    while (t := take()) is not None:
                        out[t] = self.forward(Tensor(windows[t])).data
            except BaseException as error:
                with lock:
                    errors.append(error)

        helpers = [threading.Thread(target=drain) for _ in range(workers - 1)]
        try:
            for thread in helpers:
                thread.start()
            drain()
        finally:
            for thread in helpers:
                if thread.ident is not None:  # started
                    thread.join()
        if errors:
            raise errors[0]
        return out.reshape(x.shape[:-3] + out.shape[1:])


# ---------------------------------------------------------------------------
# attention cost: closed form and instrumented measurement


def _attention_flops(batch: int, s: int, dh: int) -> int:
    """FLOPs, multiplies plus adds, of scores (s x dh by dh x s) plus
    weights-times-values (s x s by s x dh)."""
    return batch * (s * s * (2 * dh - 1) + s * dh * (2 * s - 1))


def flops_estimate(config: ModelConfig, series: ScaleSeries) -> dict:
    """Attention FLOPs per block: closed form next to an instrumented run.

    Only the two attention matmuls count (scores and weights-times-values).
    The intra term sums each subgraph at its exact size s_i, which is what
    the model computes; padding adds nothing. The measured pass runs the
    model's own branches with the counter on and the tape off: per plan,
    `intra_attention` over dummy (n, d_model) rows in the plan's subgraph
    runs and `inter_attention` over dummy (p, d_model) rows, one branch's
    weights serving every plan. From the count it takes the closed form of
    what a branch counts besides attention, the q, k and v projections and
    the FFN pair over each of its rows, so a miscount anywhere in `layer`
    moves `ratio` off 1. The pass is measured as the difference of
    `ad.flops`, which then holds the caller's count again.

    Returns `per_block` (p, m and the closed-form intra and inter FLOPs of
    each block), `closed_total`, `measured_total` and their `ratio`.
    """
    h, dh, d = config.heads, config.d_head, config.d_model
    hidden = config.ffn_mult * d
    per_row = 3 * d * (2 * d - 1) + hidden * (2 * d - 1) + d * (2 * hidden - 1)
    prm = init_params(config).blocks[0].intra
    rng = np.random.default_rng(0)
    per_block = []
    before = ad.flops.total()
    with ad.flops.counting(), ad.no_grad():
        for plan in series.plans:
            per_block.append(
                {
                    "p": plan.p,
                    "m": plan.m,
                    "intra": sum(_attention_flops(h, int(s), dh) for s in plan.sizes),
                    "inter": _attention_flops(h, plan.p, dh),
                }
            )
            intra_attention(Tensor(rng.standard_normal((plan.n, d))), plan.mask, prm, h)
            inter_attention(Tensor(rng.standard_normal((plan.p, d))), prm, h)
    counted, ad.flops.count = ad.flops.total() - before, before
    measured_total = counted - per_row * sum(plan.n + plan.p for plan in series.plans)
    closed_total = sum(blk["intra"] + blk["inter"] for blk in per_block)
    return {
        "per_block": per_block,
        "closed_total": closed_total,
        "measured_total": measured_total,
        "ratio": measured_total / closed_total,
    }


def attention_peak_bytes(config: ModelConfig, series: ScaleSeries) -> int:
    """Analytic peak working set of one block's attention, in bytes.

    The attention inside a `layer` over `rows` rows of one window holds q,
    k, v and its output, the row max and row sum of every run (kept for the
    backward), and the weights of one run at a time, the largest. A block
    counts its intra branch over the n node rows, whose largest run is m,
    and its inter branch over the p summaries, one run; the largest block
    wins, at f64 sizes. Deterministic by construction. Once a run's weights
    over all heads exceed `ad._ATTN_TILE_BYTES`, the op holds them a chunk
    of heads at a time, and this count is an upper bound.
    """
    h, dh = config.heads, config.d_head

    def held(rows, largest):
        return h * (4 * rows * dh + 2 * rows + largest * largest)

    return max(8 * (held(plan.n, plan.m) + held(plan.p, plan.p)) for plan in series.plans)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: ModelParams, config: ModelConfig, seed: int = 0):
    """Blob of every tensor in manifest order, with the manifest as its sidecar."""
    tensors = [t.data for _, t in params.named()]
    offsets = np.cumsum([0] + [t.size for t in tensors]).tolist()
    manifest = {
        "config": asdict(config),
        "seed": seed,
        "tensors": [
            {"name": name, "shape": list(t.data.shape), "offset": offset}
            for (name, t), offset in zip(params.named(), offsets)
        ],
        "total": offsets[-1],
    }
    write_blob(path, tensors, manifest)


def _parse_manifest(doc):
    """Checkpoint sidecar -> ((total,), (config, seed, [(name, shape, offset)]))."""
    tensors = [(e["name"], e["shape"], int(e["offset"])) for e in doc["tensors"]]
    return (doc["total"],), (ModelConfig(**doc["config"]), int(doc["seed"]), tensors)


def load_checkpoint(path):
    """Returns (params, config, seed). Only the manifest `save_checkpoint`
    writes is accepted: every parameter once, in manifest order, with its
    shape, at the running sum of the sizes before it."""
    flat, (config, seed, tensors) = read_blob(path, _parse_manifest)
    params = init_params(config, seed)
    named = list(params.named())
    offsets = np.cumsum([0] + [t.data.size for _, t in named]).tolist()
    if len(tensors) != len(named) or flat.size != offsets[-1]:
        raise InputError("checkpoint manifest does not match the parameter manifest")
    for (name, t), offset, entry in zip(named, offsets, tensors):
        if entry != (name, list(t.data.shape), offset):
            raise InputError(
                f"unexpected checkpoint tensor {entry[0]}: expected {name} at offset {offset}"
            )
        # a copy per tensor, so no parameter is a view into the shared blob
        t.data = flat[offset : offset + t.data.size].reshape(t.data.shape).copy()
    return params, config, seed
