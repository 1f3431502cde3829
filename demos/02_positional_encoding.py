"""Laplacian eigenvector positional encodings, whole-graph and blockwise.

The encodings come from the eigenvectors of the k smallest Laplacian
eigenvalues. Small graphs are solved whole (np.linalg.eigh, once per
connected component); past a block limit the graph is partitioned and each
block solved independently, which is what makes the preprocessing scale.
"""
import numpy as np

from sbaformer import laplacian, laplacian_pe, make_grid_graph, sym_eigen

rows, cols = 4, 9
graph = make_grid_graph(rows, cols)
lap = laplacian(graph)

values, vectors = sym_eigen(lap, k=4)
print("four smallest Laplacian eigenvalues:", np.round(values, 6))
print("lambda_1 is 0 and its eigenvector is constant (connected graph):")
print("  ", np.round(vectors[:4, 0], 6), "... all equal to 1/sqrt(n)")

pe_whole = laplacian_pe(graph, k=4, block_limit=2000)
print(f"\nwhole-graph encoding: {pe_whole.vectors.shape}, source={pe_whole.source}")

# force the blockwise path by lowering the block limit; each block gets the
# eigenvectors of its own induced Laplacian, assembled back into node order
pe_block = laplacian_pe(graph, k=4, block_limit=12)
print(f"blockwise encoding:   {pe_block.vectors.shape}, source={pe_block.source}")

# the second eigenvector (the Fiedler vector) orders nodes along the grid's
# long axis: a useful sanity picture of what the encoding carries. On a
# rectangular grid its eigenvalue is simple, so the vector is unique up to
# sign; a square grid would repeat it and leave the basis to the solver.
fiedler = pe_whole.vectors[:, 1].reshape(rows, cols)
print("\nFiedler vector over the grid (rows = y):")
for row in fiedler:
    print("  " + " ".join(f"{v:+.2f}" for v in row))
