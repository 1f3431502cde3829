"""The benchmark's staged forward must stay the model's forward, bit for bit.

perfbench/workloads.py rebuilds SbaTransformer.forward from the public stage
functions (apply_plan, intra_attention, pool_subgraphs, inter_attention, fuse,
revert_plan) to time each one. A change to a stage signature or to the order
of the calls in forward breaks that copy; this test catches it in tier-1
instead of in a benchmark run. The module is loaded by file path because
perfbench is not a package on the test path.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sbaformer.autodiff import Tensor
from sbaformer.data import make_grid_graph
from sbaformer.graph import laplacian_pe
from sbaformer.model import ModelConfig, SbaTransformer
from sbaformer.partition import build_scale_series

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_staged_forward_equals_forward_and_predict(workloads):
    # the e2e acceptance config: 8x8 grid, p0=8, l=3, d=32, 4 heads, t=24, f=12
    g = make_grid_graph(8, 8)
    series = build_scale_series(g, 8, 3, seed=0)
    config = ModelConfig(n=64, t=24, c=1, f=12, d_model=32, l=3, heads=4, p0=8, k_pe=8)
    model = SbaTransformer(config, series, laplacian_pe(g, 8).vectors, seed=0)
    x = np.random.default_rng(0).standard_normal((4, 64, 24, 1))
    staged = workloads.staged_forward(model, Tensor(x), workloads.Tracer(False))
    assert staged.requires_grad
    assert np.array_equal(staged.data, model.forward(Tensor(x)).data)
    assert np.array_equal(staged.data, model.predict(x))
