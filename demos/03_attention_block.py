"""Anatomy of one attention block: local attention, pooling, global exchange.

Runs a single block on toy embeddings and inspects the attention maps it
produces: the node-level map is exactly block-diagonal under the partition
(local attention never crosses a subgraph boundary), while the subgraph-level
map is a small dense exchange between summaries.
"""
import numpy as np

from sbaformer import Tensor, make_grid_graph, no_grad, partition_kway
from sbaformer.model import ModelConfig, init_params, sba_block

rng = np.random.default_rng(0)
n, d, heads = 16, 16, 4

graph = make_grid_graph(4, 4)
plan = partition_kway(graph, p=4, seed=0)
config = ModelConfig(n=n, t=1, c=1, f=1, d_model=d, l=1, heads=heads, p0=4, k_pe=2)
blk = init_params(config, seed=0).blocks[0]

x = rng.standard_normal((n, d))
capture = []
with no_grad():
    out = sba_block(Tensor(x), plan, blk, heads, capture=capture)

print(f"block: {n} nodes in p={plan.p} subgraphs of at most m={plan.m}")
print(f"input {x.shape} -> output {out.data.shape} (residual in node order)")

# assemble the node-level local attention map and show its sparsity pattern
assembled = np.zeros((n, n))
subgraphs = np.split(plan.order, np.cumsum(plan.sizes)[:-1])
for nodes, mat in zip(subgraphs, capture[0]["intra"]):
    assembled[np.ix_(nodes, nodes)] = mat
print("\nnode-level local attention (. = structural zero):")
for i in range(n):
    print("  " + "".join("." if assembled[i, j] == 0 else "#" for j in range(n)))
nonzero = int((assembled > 0).sum())
print(f"{nonzero}/{n * n} entries can be nonzero; the rest are structural zeros")

inter = capture[0]["inter"]
print(f"\nsubgraph-level exchange map ({plan.p}x{plan.p}, rows sum to 1):")
for row in inter:
    print("  " + " ".join(f"{v:.3f}" for v in row))
