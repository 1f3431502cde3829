"""Balanced k-way partitioning and the coarsening scale series.

Builds a sensor grid, partitions it into 8 balanced subgraphs, and then
runs `sbaformer partition` on its saved edge list, which pair-merges the
partition twice and prints the layout at every scale. The coarser scales
are what successive attention blocks consume: the subgraph count halves
each level, so the receptive field of the local attention doubles while the
global exchange shrinks.
"""
import json
import sys

import numpy as np

from sbaformer import make_grid_graph, partition_kway
from sbaformer.cli import main
from sbaformer.graph import save_graph

graph = make_grid_graph(8, 8)
print(f"graph: {graph.n} nodes, {sum(1 for _ in graph.edges())} edges (8x8 grid)")

# one flat partition: balanced, minimal edge cut, deterministic per seed
plan = partition_kway(graph, p=8, balance_factor=1.3, seed=0)
print(f"\nflat partition into p={plan.p}:")
print(f"  largest subgraph m={plan.m}, smallest min={plan.sizes.min()}, "
      f"edge cut {plan.edge_cut:g}, balance {plan.achieved_factor:.2f}")
for part in range(plan.p):
    nodes = np.flatnonzero(plan.assign == part)
    print(f"  subgraph {part}: {nodes.tolist()}")

# the multiscale series: 8 -> 4 -> 2 subgraphs by merging the most strongly
# connected pairs first, so neighborhoods grow along the grid structure. The
# `partition` command builds it from the saved edge list, prints each level
# and writes the plan file, which also holds the merge maps
save_graph("graph.csv", graph)
print("\nscale series (sbaformer partition):")
status = main(["partition", "--graph", "graph.csv", "--parts", "8", "--levels", "3",
               "--out", "scale_series.json"])
if status:
    sys.exit(status)
with open("scale_series.json") as fh:
    merge_maps = json.load(fh)["merge_maps"]
for level, mapping in enumerate(merge_maps):
    groups = {}
    for fine, coarse in enumerate(mapping):
        groups.setdefault(coarse, []).append(fine)
    print(f"  merge {level}->{level + 1}: "
          + ", ".join(f"{v} -> {k}" for k, v in sorted(groups.items())))
