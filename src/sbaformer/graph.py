"""Spatial graphs, their Laplacians, and eigenvector positional encodings.

Graphs are undirected, weighted, self-loop free, and held as immutable CSR
arrays (row offsets, sorted neighbour ids, weights) built from edge arrays.
The eigensolver runs np.linalg.eigh once per connected block of the matrix,
so eigenvectors of a disconnected graph stay inside their component. For
graphs past a block limit the encoding is computed per partition block and
stitched back into node order.
"""
from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_csv, write_blob, write_csv
from .errors import ContractError, InputError, NodeCountError

log = logging.getLogger(__name__)


@dataclass(frozen=True, init=False, eq=False)
class SpatialGraph:
    """Immutable symmetric weighted adjacency over n nodes in CSR form.

    Row i holds the neighbours of i, indices[indptr[i]:indptr[i + 1]], in
    ascending order, with the matching edge weights; every undirected edge
    appears in both of its rows. Weights are finite and > 0; there are no
    self-loops and no repeated edges.
    """

    n: int
    indptr: np.ndarray  # (n + 1,) row offsets
    indices: np.ndarray  # (2 * edges,) neighbour ids, sorted per row
    weights: np.ndarray  # (2 * edges,) edge weights, aligned with indices
    coords: np.ndarray | None = None  # (n, 2) metric coordinates

    def __init__(self, n: int, src=(), dst=(), weights=(), coords=None):
        """Build from undirected edge arrays: edge e joins src[e] and dst[e]
        with weight weights[e], each pair listed once. Zero weights add no edge."""
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        w = np.asarray(weights, dtype=np.float64).ravel()
        if not src.shape == dst.shape == w.shape:
            raise ContractError(f"edge arrays differ in length: {src.size}, {dst.size}, {w.size}")
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ContractError(f"edge endpoint outside [0, {n})")
        if (src == dst).any():
            raise ContractError(f"self-loop on node {int(src[src == dst][0])}")
        if not (np.isfinite(w) & (w >= 0)).all():
            raise ContractError("edge weights must be finite and >= 0")
        keep = w != 0
        rows = np.concatenate([src[keep], dst[keep]])
        cols = np.concatenate([dst[keep], src[keep]])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if ((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])).any():
            raise ContractError("an edge is listed twice")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        csr = (indptr, cols, np.concatenate([w[keep], w[keep]])[order])
        for arr in csr:
            arr.flags.writeable = False
        fields = (int(n), *csr, coords)
        for name, value in zip(("n", "indptr", "indices", "weights", "coords"), fields):
            object.__setattr__(self, name, value)

    def edge_arrays(self):
        """(src, dst, weights) with src < dst, each undirected edge once, sorted."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper], self.weights[upper]

    def edges(self):
        """Yield (i, j, w) as Python numbers with i < j, each undirected edge once, sorted."""
        return zip(*(a.tolist() for a in self.edge_arrays()))

    def total_edge_weight(self) -> float:
        return sum(self.edge_arrays()[2].tolist())

    def dense_adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        src, dst, w = self.edge_arrays()
        a[src, dst] = w
        a[dst, src] = w
        return a

    def subgraph(self, nodes) -> "SpatialGraph":
        """Induced subgraph; node order follows the given sequence."""
        nodes = np.asarray(nodes, dtype=np.int64)
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[nodes] = np.arange(nodes.size)
        src, dst, w = self.edge_arrays()
        inside = (pos[src] >= 0) & (pos[dst] >= 0)
        coords = None if self.coords is None else self.coords[nodes]
        return SpatialGraph(nodes.size, pos[src[inside]], pos[dst[inside]], w[inside], coords)


def _check_coords(coords) -> np.ndarray:
    """coords as an (n, dim) float array with n >= 1 and finite entries."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] < 1:
        raise InputError(f"coords must be (n, dim) with n >= 1, got {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise InputError("coords contain non-finite values")
    return coords


def build_epsilon_graph(coords, epsilon: float) -> SpatialGraph:
    """Unit-weight edge between every pair closer than epsilon."""
    coords = _check_coords(coords)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InputError(f"epsilon must be a finite number > 0, got {epsilon}")
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    src, dst = np.nonzero(np.triu(dist < epsilon, k=1))
    return SpatialGraph(len(coords), src, dst, np.ones(src.size), coords)


def build_gaussian_graph(coords, sigma: float, threshold: float) -> SpatialGraph:
    """Thresholded Gaussian kernel weights: exp(-d^2/sigma^2), dropped below threshold."""
    coords = _check_coords(coords)
    if not (math.isfinite(sigma) and sigma > 0):
        raise InputError(f"sigma must be a finite number > 0, got {sigma}")
    if not 0 <= threshold < 1:
        raise InputError("threshold must lie in [0, 1)")
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1)
    w = np.exp(-d2 / (sigma * sigma))
    src, dst = np.nonzero(np.triu(w >= threshold, k=1))
    return SpatialGraph(len(coords), src, dst, w[src, dst], coords)


def laplacian(g: SpatialGraph) -> np.ndarray:
    """L = D - A with D the diagonal of weighted degrees. Rows sum to zero."""
    a = g.dense_adjacency()
    return np.diag(a.sum(axis=1)) - a


def connected_components(g: SpatialGraph) -> list:
    """List of components, each a sorted list of node ids."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def sym_eigen(mat, k: int):
    """k smallest eigenpairs of a symmetric matrix, solved per connected block.

    Returns (values ascending, vectors n x k). The matrix is split into the
    connected blocks of its nonzero pattern and each block goes to
    np.linalg.eigh, so every eigenvector stays inside one block (one
    connected component, for a Laplacian). Ties keep block order, then the
    solver's order. Vector signs are canonical: the first component with
    magnitude > 1e-12 is made positive, so repeated runs are bit-identical.
    Inside a repeated eigenvalue of one block the basis is the one the
    solver returns; only the spanned space is defined.
    """
    a = np.array(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"sym_eigen needs a square matrix, got {a.shape}")
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.T).max(initial=0.0) > 1e-10 * scale:
        raise ContractError("sym_eigen input is not symmetric within 1e-10")
    if not 1 <= k <= n:
        raise ContractError(f"k must lie in [1, {n}], got {k}")

    values = np.empty(n)
    vectors = np.zeros((n, n))
    at = 0
    src, dst = np.nonzero(np.triu((a != 0) | (a.T != 0), k=1))
    for nodes in connected_components(SpatialGraph(n, src, dst, np.ones(src.size))):
        cols = slice(at, at + len(nodes))
        values[cols], vectors[nodes, cols] = np.linalg.eigh(a[np.ix_(nodes, nodes)])
        at += len(nodes)
    order = np.argsort(values, kind="stable")[:k]
    values, vectors = values[order], vectors[:, order]
    first = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    flip = vectors[first, np.arange(k)] < 0
    vectors[:, flip] = -vectors[:, flip]
    return values, vectors


@dataclass
class PositionalEncoding:
    """Per-node feature rows from small-eigenvalue Laplacian eigenvectors."""

    k: int
    vectors: np.ndarray  # (n, k)
    source: str  # "whole-graph" | "per-subgraph"


def laplacian_pe(g: SpatialGraph, k: int, block_limit: int = 2000) -> PositionalEncoding:
    """Eigenvectors of the k smallest Laplacian eigenvalues as node features.

    Graphs up to block_limit nodes are solved whole. A larger graph is split
    by one partition_kway call into the fewest blocks that can hold it,
    p = ceil(n / block_limit), each at most block_limit nodes, with minimal
    edge cut. Each block's induced Laplacian is solved independently and its
    rows assembled back into node order. A graph or block of fewer than k
    nodes gets its trailing columns zero-padded.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if block_limit < k + 1:
        raise InputError("block_limit must be at least k+1")
    if g.n <= block_limit:
        blocks, source = [np.arange(g.n)], "whole-graph"
    else:
        from .partition import partition_kway  # deferred to avoid a cycle

        # The cap, balance_factor * ceil(n / p), lies between ceil(n / p) and
        # block_limit. With unit node weights some part has room while
        # another is over the cap, so refinement always ends within it.
        p = math.ceil(g.n / block_limit)
        plan = partition_kway(g, p, min(1.1, block_limit / math.ceil(g.n / p)), seed=0)
        blocks = np.split(plan.order, np.cumsum(plan.sizes)[:-1])
        source = "per-subgraph"
    out = np.zeros((g.n, k))
    for b, nodes in enumerate(blocks):
        block = g if source == "whole-graph" else g.subgraph(nodes)
        if block.n < k:
            label = "graph" if source == "whole-graph" else f"block {b}"
            log.warning("%s has %d nodes < k=%d; zero-padding its encoding", label, block.n, k)
        _, vectors = sym_eigen(laplacian(block), min(k, block.n))
        out[nodes, : vectors.shape[1]] = vectors
    return PositionalEncoding(k=k, vectors=out, source=source)


# ---------------------------------------------------------------------------
# file formats: edge lists, coordinates, encodings


def save_graph(path, g: SpatialGraph):
    """Edge-list text: one `src,dst,weight` per line, each undirected edge once."""
    write_csv(path, g.edges())


def load_graph(path, n: int | None = None) -> SpatialGraph:
    """Read an edge list; a repeated pair keeps its last non-zero weight."""
    pairs = {}
    max_id = -1
    for lineno, (i, j, w) in read_csv(path, (int, int, float)):
        if min(i, j) < 0:
            raise InputError(f"{path}:{lineno}: negative node id")
        if i == j:
            raise InputError(f"{path}:{lineno}: self-loop on node {i}")
        if not math.isfinite(w) or w < 0:
            raise InputError(f"{path}:{lineno}: edge weight must be finite and >= 0, got {w}")
        if w != 0:
            pairs[min(i, j), max(i, j)] = w
        max_id = max(max_id, i, j)
    if n is None:
        n = max_id + 1
    if max_id >= n:
        raise InputError(f"{path}: node id {max_id} exceeds declared n={n}")
    ends = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return SpatialGraph(n, ends[:, 0], ends[:, 1], list(pairs.values()))


def save_coords(path, coords):
    """One `node_id,x,y` line per node."""
    rows = np.asarray(coords, dtype=np.float64).tolist()
    write_csv(path, ((i, x, y) for i, (x, y) in enumerate(rows)))


def load_coords(path, n: int | None = None) -> np.ndarray:
    """Read `node_id,x,y` lines; with `n` given, the file must hold exactly n nodes."""
    rows = sorted(row for _, row in read_csv(path, (int, float, float)))
    ids = [r[0] for r in rows]
    k = next((k for k, node in enumerate(ids) if node != k), None)
    if k is not None:
        # ids are sorted, so below k means a repeat of ids[k - 1] or, at 0, a negative id
        if ids[k] >= k:
            fault = f"node id {k} is missing"
        elif k:
            fault = f"node id {ids[k]} repeats"
        else:
            fault = f"node id {ids[k]} is negative"
        raise InputError(f"{path}: {fault}; node ids must be 0..n-1, each once")
    if n is not None and len(rows) != n:
        raise NodeCountError(f"{path}: coords file has {len(rows)} nodes, series has {n}")
    return np.array([[x, y] for _, x, y in rows])


def graph_hash(g: SpatialGraph) -> str:
    h = hashlib.sha256()
    h.update(f"n={g.n};".encode())
    for i, j, w in g.edges():
        h.update(f"{i},{j},{w!r};".encode())
    return h.hexdigest()


def save_pe(path, pe: PositionalEncoding, g: SpatialGraph, block_limit: int):
    """Blob of the (n, k) encoding rows plus a sidecar naming its graph by
    hash; written for inspection, nothing in sbaformer reads it back."""
    sidecar = {
        "n": int(pe.vectors.shape[0]),
        "k": int(pe.k),
        "block_limit": int(block_limit),
        "graph_hash": graph_hash(g),
        "source": pe.source,
    }
    write_blob(path, [pe.vectors], sidecar)
