"""The e2e training step gives the same bits under one and two BLAS threads.

Byte-identical re-runs hold for a fixed BLAS thread count. This guard runs
one forward, backward and Adam step of the e2e config in two subprocesses,
one with OPENBLAS_NUM_THREADS=1 and one with =2, and compares digests of the
forecasts, the gradients and the updated parameters, and of a `predict`
whose tiles run on two worker threads beside the BLAS threads. When a
pinned digest breaks, it tells whether threading or the code changed the
bits.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

STEP = """
import hashlib
import numpy as np
from sbaformer import model as md
from sbaformer.autodiff import Tensor
from sbaformer.data import make_grid_graph
from sbaformer.graph import laplacian_pe
from sbaformer.model import ModelConfig, SbaTransformer, mae_loss
from sbaformer.partition import build_scale_series
from sbaformer.training import TrainConfig, TrainState, adam_step

# the e2e config: 8x8 grid, p0=8, l=3, d=32, 4 heads, t=24, f=12, batch 16
g = make_grid_graph(8, 8)
config = ModelConfig(n=64, t=24, c=1, f=12, d_model=32, l=3, heads=4, p0=8, k_pe=8)
model = SbaTransformer(config, build_scale_series(g, 8, 3, seed=0),
                       laplacian_pe(g, 8).vectors, seed=0)
rng = np.random.default_rng(0)
x = rng.standard_normal((16, 64, 24, 1))
target = rng.standard_normal((16, 64, 12, 1))
pred = model.forward(Tensor(x))
mae_loss(pred, target).backward()
params = model.params.tensors()
parts = [pred.data] + [t.grad for t in params]
adam_step(model.params, TrainState.for_params(model.params), TrainConfig(lr=2e-3))
parts += [t.data for t in params]
# predict of 8 windows on 2 worker threads: the rule gives 4 tiles of 2
md._usable_cpus = lambda: 2
assert md._tile_windows(8, 2, model._window_bytes()) == 2
parts.append(model.predict(rng.standard_normal((8, 64, 24, 1))))
print(hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts)).hexdigest())
"""


def _digest(threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-c", STEP], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_one_and_two_blas_threads_give_the_same_bits():
    one = _digest(1)
    assert len(one) == 64
    assert _digest(2) == one
