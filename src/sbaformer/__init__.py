"""Partition-structured attention forecasting for spatiotemporal series.

A self-contained stack: a small autodiff tensor core, spatial graphs with
Laplacian-eigenvector positional encodings, a multilevel balanced graph
partitioner, intra/inter-subgraph attention blocks stacked over coarsening
partition scales, and the training/evaluation pipeline around them.
"""

from .autodiff import (
    FlopCounter,
    Tensor,
    flops,
    matmul,
    no_grad,
    set_debug_checks,
)
from .data import (
    Dataset,
    Normalizer,
    WindowSet,
    chrono_split,
    make_grid_graph,
    make_windows,
    metrics,
    split_setup,
    synth_diffusion,
)
from .errors import ConfigError, ContractError, InputError, NumericError, SbaError, ShapeError
from .graph import (
    PositionalEncoding,
    SpatialGraph,
    build_epsilon_graph,
    build_gaussian_graph,
    laplacian,
    laplacian_pe,
    sym_eigen,
)
from .model import (
    ModelConfig,
    ModelParams,
    SbaTransformer,
    embed,
    flops_estimate,
    fuse,
    init_params,
    inter_attention,
    intra_attention,
    load_checkpoint,
    mae_loss,
    pool_subgraphs,
    save_checkpoint,
    sba_block,
)
from .partition import (
    PartitionPlan,
    ScaleSeries,
    apply_plan,
    build_scale_series,
    partition_kway,
    plan_from_assign,
    revert_plan,
    uniform_plan,
)
from .training import TrainConfig, TrainState, adam_step, evaluate, persistence_forecast, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "Dataset",
    "FlopCounter",
    "InputError",
    "ModelConfig",
    "ModelParams",
    "Normalizer",
    "NumericError",
    "PartitionPlan",
    "PositionalEncoding",
    "SbaError",
    "SbaTransformer",
    "ScaleSeries",
    "ShapeError",
    "SpatialGraph",
    "Tensor",
    "TrainConfig",
    "TrainState",
    "WindowSet",
    "adam_step",
    "apply_plan",
    "build_epsilon_graph",
    "build_gaussian_graph",
    "build_scale_series",
    "chrono_split",
    "embed",
    "evaluate",
    "flops",
    "flops_estimate",
    "fuse",
    "init_params",
    "inter_attention",
    "intra_attention",
    "laplacian",
    "laplacian_pe",
    "load_checkpoint",
    "mae_loss",
    "make_grid_graph",
    "make_windows",
    "matmul",
    "metrics",
    "no_grad",
    "partition_kway",
    "persistence_forecast",
    "plan_from_assign",
    "pool_subgraphs",
    "revert_plan",
    "save_checkpoint",
    "sba_block",
    "set_debug_checks",
    "split_setup",
    "sym_eigen",
    "synth_diffusion",
    "train",
    "uniform_plan",
]
