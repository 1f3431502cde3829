"""The e2e training step gives the same bits under one and two BLAS threads.

Byte-identical re-runs hold for a fixed BLAS thread count. This guard runs
one forward, backward and Adam step of the e2e config in two subprocesses,
one with OPENBLAS_NUM_THREADS=1 and one with =2, and compares digests of the
forecasts, the gradients and the updated parameters, and of a `predict`
whose tiles run on two worker threads beside the BLAS threads. When a
pinned digest breaks, it tells whether threading or the code changed the
bits. A second guard runs `layer` at two BLAS threads with its FFN forward
in bands of a window's rows and with whole windows, and compares the two.
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
tiles, forward = [], model.forward
model.forward = lambda x, capture=None: tiles.append(x.shape[0]) or forward(x, capture)
parts.append(model.predict(rng.standard_normal((8, 64, 24, 1))))
assert tiles == [2] * 4
print(hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts)).hexdigest())
"""


BANDS = """
import numpy as np
from sbaformer import autodiff as ad
from sbaformer.autodiff import Tensor

# two windows of forecast_grid576's shapes (576 rows, d=64, 4 heads, hidden
# 256) in runs of its level-2 sizes: each window's FFN runs in 288-row bands
rng = np.random.default_rng(0)
d, hidden = 64, 256
arrays = [rng.standard_normal((2, 576, d)), 1.0 + 0.1 * rng.standard_normal(d),
          0.1 * rng.standard_normal(d), *(rng.standard_normal((d, d)) / 8 for _ in range(3)),
          1.0 + 0.1 * rng.standard_normal(d), 0.1 * rng.standard_normal(d),
          rng.standard_normal((d, hidden)) / 8, rng.standard_normal((hidden, d)) / 16]


def forward():
    with ad.no_grad():
        return ad.layer(*(Tensor(a) for a in arrays), [182, 182, 212], 4)[0].data


budgets = ad._WINDOW_TILE_BYTES, ad._FFN_BAND_BYTES
assert len(ad._cover((2, 576), 8 * hidden, budgets, 2)) > 2
banded = forward()
ad._FFN_BAND_BYTES = 1 << 40
assert len(ad._cover((2, 576), 8 * hidden, (budgets[0], ad._FFN_BAND_BYTES), 2)) == 2
print(np.array_equal(banded, forward()))
"""


def _run(script: str, threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_one_and_two_blas_threads_give_the_same_bits():
    one = _run(STEP, 1)
    assert len(one) == 64
    assert _run(STEP, 2) == one


def test_bands_give_the_bits_of_whole_windows_under_two_blas_threads():
    assert _run(BANDS, 2) == "True"
