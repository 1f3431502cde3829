"""Command-line entry point.

Subcommands: partition, synth, train, eval, dump-attention. Configs
are strict JSON (see config.py); flags only override scalar fields. Exit
codes: 0 success, 2 user/input error, 3 internal contract violation. All
artifacts are written deterministically, so re-runs are byte-identical
(wall-clock timings and the environment record live in separate files).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .artifacts import write_blob, write_json, write_jsonl
from .autodiff import Tensor
from .config import load_config
from .data import (
    SPLITS,
    Dataset,
    chrono_split,
    load_series,
    make_windows,
    save_series,
    split_setup,
    synth_diffusion,
    window_arrays,
)
from .errors import ContractError, InputError, SbaError
from .graph import (
    SpatialGraph,
    build_epsilon_graph,
    build_gaussian_graph,
    laplacian_pe,
    load_coords,
    load_graph,
    save_coords,
    save_graph,
    save_pe,
)
from .model import (
    ModelConfig,
    SbaTransformer,
    _usable_cpus,
    load_checkpoint,
    save_checkpoint,
)
from .partition import build_scale_series, save_plans
from .training import TrainConfig, evaluate, train


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sbaformer",
        description="Partition-structured attention forecasting toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="multilevel k-way partition + scale series")
    p.add_argument("--graph", required=True, help="edge-list file (src,dst,weight)")
    p.add_argument("--parts", required=True, type=int, help="initial subgraph count")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--balance", type=float, default=1.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="scale-series JSON path")

    p = sub.add_parser("synth", help="generate the synthetic diffusion dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--steps", type=int, default=2048)
    p.add_argument("--gamma", type=float, default=0.3)
    p.add_argument("--season-amp", type=float, default=1.0)
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--period", type=float, default=64.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")

    p = sub.add_parser("train", help="train per a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--max-epochs", type=int, default=None, help="override train.max_epochs")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")

    p = sub.add_parser("dump-attention", help="write per-block attention matrices")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out-dir", required=True)
    return top


# ---------------------------------------------------------------------------
# shared run assembly


def _build_graph(cfg, n: int):
    gc, dc = cfg["graph"], cfg["data"]
    if gc["builder"] == "file":
        graph = load_graph(dc["graph"], n=n)
        if dc["coords"] is None:
            return graph
        return SpatialGraph(graph.n, *graph.edge_arrays(), load_coords(dc["coords"], n))
    coords = load_coords(dc["coords"], n)
    if gc["builder"] == "epsilon":
        return build_epsilon_graph(coords, gc["epsilon"])
    return build_gaussian_graph(coords, gc["sigma"], gc["threshold"])


def _assemble(cfg, checkpoint=None, window=None):
    """Dataset, positional encoding and model of a validated run config.

    The cheap checks run first: the series shape and the model section give
    the ModelConfig, and a checkpoint's config must equal it field by field
    (InputError naming the fields that differ). Every split must hold t + f
    steps, and a `window` given as (split, index) must name a window of that
    split. Only then are the graph, the scale series and the encoding built,
    from the config alone: the copies `train` records beside a checkpoint
    are never read, so a bare checkpoint needs no run directory. Without a
    checkpoint the model is freshly initialized from train.seed.
    """
    dc, pc = cfg["data"], cfg["partition"]
    series, meta = load_series(dc["series"], dc["format"])
    mc = ModelConfig(
        n=series.shape[0], c=series.shape[2], p0=pc["p0"], k_pe=cfg["pe"]["k"], **cfg["model"]
    )
    params, seed = None, cfg["train"]["seed"]
    if checkpoint is not None:
        params, ck_config, seed = load_checkpoint(checkpoint)
        ours, theirs = asdict(mc), asdict(ck_config)
        differ = [f"{k} (checkpoint {theirs[k]}, run {ours[k]})"
                  for k in ours if theirs[k] != ours[k]]
        if differ:
            raise InputError(
                f"{checkpoint}: checkpoint config does not match the run config: "
                + ", ".join(differ)
            )
    bounds = chrono_split(series.shape[1], min_len=mc.t + mc.f)
    if window is not None:
        split, index = window
        count = len(make_windows(bounds[SPLITS.index(split)], mc.t, mc.f))
        if not 0 <= index < count:
            raise InputError(f"window {index} out of range; {split} has {count} windows")
    graph = _build_graph(cfg, mc.n)
    dataset = Dataset(
        series=series,
        graph=graph,
        freq_minutes=meta["freq_minutes"] if meta else dc["freq_minutes"],
        name=meta["name"] if meta else dc["name"],
    )
    plans = build_scale_series(graph, mc.p0, mc.l, pc["balance_factor"], pc["seed"])
    pe = laplacian_pe(graph, mc.k_pe, cfg["pe"]["block_limit"])
    return dataset, pe, SbaTransformer(mc, plans, pe.vectors, params=params, seed=seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_partition(args) -> int:
    graph = load_graph(args.graph)
    series = build_scale_series(graph, args.parts, args.levels, args.balance, args.seed)
    save_plans(args.out, series)
    for level, plan in enumerate(series.plans):
        print(
            f"level {level}: p={plan.p} m={plan.m} min={plan.sizes.min()} "
            f"split={plan.split_parts(graph)} edge_cut={plan.edge_cut:g} "
            f"balance={plan.achieved_factor:.3f}"
            + (" OVER" if plan.over_balance else "")
        )
    return 0


def cmd_synth(args) -> int:
    dataset = synth_diffusion(
        n=args.nodes,
        steps=args.steps,
        gamma=args.gamma,
        season_amp=args.season_amp,
        noise_std=args.noise_std,
        period=args.period,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    ext = "bin" if args.format == "bin" else "csv"
    series_path = os.path.join(args.out, f"series.{ext}")
    save_series(series_path, dataset.series, args.format, dataset.freq_minutes, dataset.name)
    save_graph(os.path.join(args.out, "graph.csv"), dataset.graph)
    save_coords(os.path.join(args.out, "coords.csv"), dataset.graph.coords)
    print(f"wrote {series_path} ({args.nodes} nodes, {args.steps} steps)")
    return 0


def _environment() -> dict:
    """What a run's bits depend on beyond the code: numpy and its BLAS. The
    CPU and predict worker counts ride along; they change timings, not bits."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "predict_workers": _usable_cpus(),
    }


def cmd_train(args) -> int:
    flags = {"seed": args.seed, "max_epochs": args.max_epochs}
    cfg = load_config(args.config, {"train": {k: v for k, v in flags.items() if v is not None}})
    train_config = TrainConfig(**cfg["train"])
    dataset, pe, model = _assemble(cfg)  # a bad config fails before out_dir exists
    out_dir = cfg["paths"]["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "effective_config.json"), cfg)
    save_pe(os.path.join(out_dir, "pe.bin"), pe, dataset.graph, cfg["pe"]["block_limit"])
    save_plans(os.path.join(out_dir, "scale_series.json"), model.series)
    best, history, timings = train(model, dataset, train_config)
    save_checkpoint(os.path.join(out_dir, "checkpoint"), best, model.config, model.seed)
    write_jsonl(os.path.join(out_dir, "history.jsonl"), history)
    write_jsonl(os.path.join(out_dir, "timing.jsonl"), ({"seconds": s} for s in timings))
    write_json(os.path.join(out_dir, "environment.json"), _environment())
    done = [h for h in history if "val_mae" in h]
    if done:
        best_epoch = min(done, key=lambda h: h["val_mae"])
        print(
            f"trained {len(history)} epochs; best val MAE {best_epoch['val_mae']:.6f} "
            f"at epoch {best_epoch['epoch']}"
        )
    return 0


def _horizon_table(report: dict) -> str:
    rows = []
    breakdown = report["horizon_breakdown"]
    picks = [h for h in (3, 6, 12) if h <= len(breakdown)]
    for h in picks:
        entry = breakdown[h - 1]
        mape = f"{entry['mape_pct']:.2f}" if entry["mape_pct"] is not None else "-"
        rows.append(f"  Horizon {h:<3d} MAE {entry['mae']:.4f}  RMSE {entry['rmse']:.4f}  MAPE% {mape}")
    mape = f"{report['mape_pct']:.2f}" if report["mape_pct"] is not None else "-"
    rows.append(f"  Average     MAE {report['mae']:.4f}  RMSE {report['rmse']:.4f}  MAPE% {mape}")
    return "\n".join(rows)


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    dataset, _, model = _assemble(cfg, args.checkpoint)
    report = evaluate(model, dataset, args.split)
    out_dir = cfg["paths"]["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, f"metrics_{args.split}.json"), report)
    print(f"{dataset.name} [{args.split}] model:")
    print(_horizon_table(report["model"]))
    print("persistence baseline:")
    print(_horizon_table(report["persistence"]))
    return 0


def cmd_dump_attention(args) -> int:
    cfg = load_config(args.config)
    dataset, _, model = _assemble(cfg, args.checkpoint, (args.split, args.window))
    normalizer, by_split = split_setup(dataset, model.config.t, model.config.f)
    xs, _ = window_arrays(dataset.series, by_split[args.split], at=[args.window])
    capture = []
    with ad.no_grad():
        model.forward(Tensor(normalizer.apply(xs[0])), capture=capture)

    os.makedirs(args.out_dir, exist_ok=True)
    for b, block in enumerate(capture):
        for name, mats in (("intra", block["intra"]), ("inter", [block["inter"]])):
            for mat in mats:
                if np.abs(mat.sum(axis=-1) - 1.0).max() > 1e-9:
                    raise ContractError(f"block {b} {name} attention rows are not stochastic")
            sidecar = {
                "block": b,
                "kind": name,
                "sizes": [list(m.shape) for m in mats],
                "offsets": np.cumsum([0] + [m.size for m in mats])[:-1].tolist(),
                "heads_averaged": True,
                "window": args.window,
                "split": args.split,
                "dtype": "<f8",
            }
            write_blob(os.path.join(args.out_dir, f"block{b}_{name}"), mats, sidecar)
    print(f"wrote attention maps for {len(capture)} blocks to {args.out_dir}")
    return 0


COMMANDS = {
    "partition": cmd_partition,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "dump-attention": cmd_dump_attention,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SbaError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
