"""Set-up cost as the graph grows: graph build, partition series and PE.

Every run pays this before its first forward pass. For 8-neighbour grids of
16x16, 24x24 and 45x45 sensors it times the graph build, the three-level
partition series and the Laplacian positional encoding (k=8, blocks of at
most 2000 nodes, the run config's default), and prints the level-0 edge
cut and the sha256 of the series JSON, so a faster partitioner shows what it
did to the plans. Times are wall seconds on whatever machine runs the demo,
so they are printed, never checked.
"""
import hashlib
import json
import time

from sbaformer import build_scale_series, laplacian_pe, make_grid_graph

print(f"{'grid':>7} {'n':>5} {'p0':>3} {'graph s':>8} {'series s':>9} {'cut':>6} {'pe s':>6}"
      "  series sha256")
for side, p0 in ((16, 16), (24, 16), (45, 32)):
    tic = time.perf_counter()
    graph = make_grid_graph(side, side)
    built = time.perf_counter()
    series = build_scale_series(graph, p0=p0, l=3, seed=0)
    partitioned = time.perf_counter()
    laplacian_pe(graph, k=8, block_limit=2000)
    encoded = time.perf_counter()
    digest = hashlib.sha256(json.dumps(series.to_dict(), sort_keys=True, indent=2).encode())
    print(f"{side:>3}x{side:<3} {graph.n:>5} {p0:>3} {built - tic:>8.3f} "
          f"{partitioned - built:>9.3f} {series.plans[0].edge_cut:>6.0f} "
          f"{encoded - partitioned:>6.3f}  "
          f"{digest.hexdigest()}")
