"""Graph construction, the per-block eigensolver, and positional encodings."""
import math

import numpy as np
import pytest

from sbaformer import graph as gr
from sbaformer.errors import ContractError, InputError


def random_connected_graph(n, rng, extra_edges=None):
    """Random spanning tree plus extra random weighted edges."""
    g = gr.SpatialGraph(n)
    order = rng.permutation(n)
    for i in range(1, n):
        j = order[rng.integers(0, i)]
        g.add_edge(int(order[i]), int(j), float(rng.uniform(0.5, 2.0)))
    extra = int(rng.integers(0, n)) if extra_edges is None else extra_edges
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j and g.weight(int(i), int(j)) == 0:
            g.add_edge(int(i), int(j), float(rng.uniform(0.5, 2.0)))
    return g


class TestEpsilonGraph:
    def test_edge_when_closer_than_epsilon(self):
        g = gr.build_epsilon_graph([[0.0, 0.0], [0.5, 0.0]], epsilon=1.0)
        assert g.weight(0, 1) == 1.0

    def test_no_edge_at_distance_two(self):
        g = gr.build_epsilon_graph([[0.0, 0.0], [2.0, 0.0]], epsilon=1.0)
        assert g.weight(0, 1) == 0.0

    def test_collinear_path_matches_pairwise_oracle(self):
        coords = np.array([[float(i), 0.0] for i in range(4)])
        g = gr.build_epsilon_graph(coords, epsilon=1.5)
        expected = set()
        for i in range(4):
            for j in range(i + 1, 4):
                if np.linalg.norm(coords[i] - coords[j]) < 1.5:
                    expected.add((i, j))
        assert {(i, j) for i, j, _ in g.edges()} == expected == {(0, 1), (1, 2), (2, 3)}

    def test_rejects_non_finite_coords(self):
        with pytest.raises(InputError):
            gr.build_epsilon_graph([[0.0, np.nan]], epsilon=1.0)

    def test_symmetric_and_loop_free(self):
        rng = np.random.default_rng(0)
        g = gr.build_epsilon_graph(rng.random((20, 2)), epsilon=0.4)
        g.validate()


class TestGaussianGraph:
    def test_coincident_pair_weight_one(self):
        g = gr.build_gaussian_graph([[1.0, 1.0], [1.0, 1.0]], sigma=2.0, threshold=0.5)
        assert g.weight(0, 1) == 1.0

    def test_distance_sigma_gives_inverse_e(self):
        g = gr.build_gaussian_graph([[0.0, 0.0], [3.0, 0.0]], sigma=3.0, threshold=0.0)
        np.testing.assert_allclose(g.weight(0, 1), math.exp(-1.0), atol=1e-12)

    def test_cutoff_drops_weak_edges(self):
        d = math.sqrt(-math.log(0.1)) * 2.0  # weight exactly 0.1 at sigma=2
        g = gr.build_gaussian_graph([[0.0, 0.0], [d, 0.0]], sigma=2.0, threshold=0.2)
        assert g.weight(0, 1) == 0.0


class TestLaplacian:
    def test_single_edge(self):
        g = gr.SpatialGraph(2)
        g.add_edge(0, 1, 1.0)
        np.testing.assert_array_equal(gr.laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_isolated_node(self):
        np.testing.assert_array_equal(gr.laplacian(gr.SpatialGraph(1)), [[0.0]])

    def test_triangle(self):
        g = gr.SpatialGraph(3)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            g.add_edge(i, j, 1.0)
        lap = gr.laplacian(g)
        np.testing.assert_array_equal(np.diag(lap), [2.0, 2.0, 2.0])
        assert (lap[~np.eye(3, dtype=bool)] == -1.0).all()

    def test_row_sums_zero(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(12, rng)
        lap = gr.laplacian(g)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_array_equal(lap, lap.T)


class TestSymEigen:
    def test_two_node_laplacian(self):
        values, vectors = gr.sym_eigen([[1.0, -1.0], [-1.0, 1.0]], k=2)
        np.testing.assert_allclose(values, [0.0, 2.0], atol=1e-12)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(vectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(vectors[:, 1], [s, -s], atol=1e-12)

    def test_diagonal_matrix(self):
        values, vectors = gr.sym_eigen(np.diag([3.0, 1.0, 2.0]), k=3)
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0], atol=1e-14)
        perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        np.testing.assert_allclose(vectors, perm, atol=1e-12)

    def test_residual_oracle_random_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        values, vectors = gr.sym_eigen(a, k=8)
        tol = 1e-8 * max(1.0, np.linalg.norm(a))
        np.testing.assert_allclose(a @ vectors, vectors @ np.diag(values), atol=tol)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(8), atol=1e-8)
        assert (np.diff(values) >= -1e-12).all()

    def test_matches_library_eigensolver(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((10, 10))
        a = a + a.T
        values, _ = gr.sym_eigen(a, k=10)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a), atol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            gr.sym_eigen([[0.0, 1.0], [0.5, 0.0]], k=1)

    def test_interleaved_identical_components_stay_apart(self):
        # identical components share every eigenvalue, so a whole-matrix solve
        # is free to mix them; the per-block solve must not
        rng = np.random.default_rng(12)
        size, copies = 6, 3
        template = random_connected_graph(size, rng)
        label = rng.permutation(size * copies).reshape(copies, size)
        g = gr.SpatialGraph(size * copies)
        for comp in label:
            for i, j, w in template.edges():
                g.add_edge(int(comp[i]), int(comp[j]), w)
        comps = gr.connected_components(g)
        assert sorted(map(sorted, comps)) == sorted(sorted(c.tolist()) for c in label)
        values, vectors = gr.sym_eigen(gr.laplacian(g), k=2 * copies + 1)
        for col in range(vectors.shape[1]):
            touched = [c for c in comps if np.abs(vectors[c, col]).max() > 1e-12]
            assert len(touched) == 1
        null = np.flatnonzero(np.abs(values) < 1e-9)
        owners = set()
        for col in null:
            (owner,) = [i for i, c in enumerate(comps) if np.abs(vectors[c, col]).max() > 1e-12]
            np.testing.assert_allclose(vectors[comps[owner], col], 1.0 / math.sqrt(size), atol=1e-12)
            owners.add(owner)
        assert len(null) == len(owners) == copies

    def test_sign_canonical_and_deterministic(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        _, v1 = gr.sym_eigen(a, k=6)
        _, v2 = gr.sym_eigen(a.copy(), k=6)
        assert np.array_equal(v1, v2)
        for col in range(6):
            first = v1[np.abs(v1[:, col]) > 1e-12, col][0]
            assert first > 0


class TestLaplacianPE:
    def test_two_node_path_constant_vector(self):
        g = gr.SpatialGraph(2)
        g.add_edge(0, 1, 1.0)
        pe = gr.laplacian_pe(g, k=1)
        np.testing.assert_allclose(pe.vectors, 1.0 / math.sqrt(2.0), atol=1e-12)
        assert pe.source == "whole-graph"

    def test_small_graph_equals_whole_graph_solve(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(5, rng)
        pe = gr.laplacian_pe(g, k=3, block_limit=1000)
        _, vectors = gr.sym_eigen(gr.laplacian(g), k=3)
        np.testing.assert_array_equal(pe.vectors, vectors)

    def test_disconnected_cliques_blockwise_matches_per_component(self):
        # two disconnected cliques, one per block: the blockwise encoding must
        # equal an independent eigensolve of each component's own Laplacian
        size = 6
        g = gr.SpatialGraph(2 * size)
        for base in (0, size):
            for i in range(size):
                for j in range(i + 1, size):
                    g.add_edge(base + i, base + j, 1.0)
        pe = gr.laplacian_pe(g, k=3, block_limit=size)
        assert pe.source == "per-subgraph"
        for base in (0, size):
            comp = g.subgraph(range(base, base + size))
            _, vectors = gr.sym_eigen(gr.laplacian(comp), k=3)
            np.testing.assert_allclose(pe.vectors[base : base + size], vectors, atol=1e-9)

    def test_connected_graph_smallest_eigenpair(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(16, rng)
        values, vectors = gr.sym_eigen(gr.laplacian(g), k=2)
        assert abs(values[0]) < 1e-9
        np.testing.assert_allclose(vectors[:, 0], 1.0 / math.sqrt(16), atol=1e-8)

    def test_tiny_block_zero_pads(self, caplog):
        g = gr.SpatialGraph(2)
        g.add_edge(0, 1, 1.0)
        with caplog.at_level("WARNING"):
            pe = gr.laplacian_pe(g, k=4, block_limit=1000)
        assert pe.vectors.shape == (2, 4)
        assert (pe.vectors[:, 2:] == 0.0).all()

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(12, rng)
        a = gr.laplacian_pe(g, k=4).vectors
        b = gr.laplacian_pe(g, k=4).vectors
        assert np.array_equal(a, b)


class TestGraphFiles:
    def test_edge_list_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_connected_graph(9, rng)
        path = tmp_path / "graph.csv"
        gr.save_graph(path, g)
        loaded = gr.load_graph(path, n=9)
        assert list(loaded.edges()) == list(g.edges())

    def test_coords_roundtrip(self, tmp_path):
        coords = np.random.default_rng(9).random((5, 2))
        path = tmp_path / "coords.csv"
        gr.save_coords(path, coords)
        np.testing.assert_array_equal(gr.load_coords(path), coords)

    def test_pe_cache_roundtrip_and_hash_guard(self, tmp_path):
        rng = np.random.default_rng(10)
        g = random_connected_graph(8, rng)
        pe = gr.laplacian_pe(g, k=3)
        path = tmp_path / "pe.bin"
        gr.save_pe(path, pe, g, block_limit=2000)
        loaded = gr.load_pe(path, g)
        assert np.array_equal(loaded.vectors, pe.vectors)
        other = random_connected_graph(8, np.random.default_rng(11))
        with pytest.raises(InputError):
            gr.load_pe(path, other)

    @pytest.mark.parametrize("cut", [-8, 8])
    def test_pe_cache_wrong_blob_size(self, tmp_path, cut):
        g = random_connected_graph(9, np.random.default_rng(13))
        path = tmp_path / "pe.bin"
        gr.save_pe(path, gr.laplacian_pe(g, k=3), g, block_limit=2000)
        blob = path.read_bytes()
        path.write_bytes(blob[:cut] if cut < 0 else blob + bytes(cut))
        with pytest.raises(InputError, match="payload holds"):
            gr.load_pe(path, g)

    def test_malformed_edge_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n")
        with pytest.raises(InputError):
            gr.load_graph(path)
