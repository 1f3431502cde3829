"""Graph construction, the per-block eigensolver, and positional encodings."""
import hashlib
import itertools
import math

import numpy as np
import pytest

from sbaformer import graph as gr
from sbaformer import partition as pt
from sbaformer.data import make_grid_graph
from sbaformer.errors import ContractError, InputError, NodeCountError


def random_connected_graph(n, rng, extra_edges=None):
    """Random spanning tree plus extra random weighted edges."""
    src, dst, w = [], [], []
    order = rng.permutation(n)
    for i in range(1, n):
        src.append(int(order[i]))
        dst.append(int(order[rng.integers(0, i)]))
        w.append(float(rng.uniform(0.5, 2.0)))
    linked = {frozenset(pair) for pair in zip(src, dst)}
    extra = int(rng.integers(0, n)) if extra_edges is None else extra_edges
    for _ in range(extra):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j and frozenset((i, j)) not in linked:
            linked.add(frozenset((i, j)))
            src.append(i)
            dst.append(j)
            w.append(float(rng.uniform(0.5, 2.0)))
    return gr.SpatialGraph(n, src, dst, w)


def clique_edges(nodes):
    """(src, dst) arrays joining every pair of the given nodes."""
    return np.array(list(itertools.combinations(nodes, 2))).T


class TestSpatialGraph:
    def test_csr_rows_sorted_and_symmetric(self):
        g = gr.SpatialGraph(4, [3, 0, 2], [0, 2, 1], [0.5, 2.0, 1.5])
        assert g.indptr.tolist() == [0, 2, 3, 5, 6]
        assert g.indices.tolist() == [2, 3, 2, 0, 1, 0]
        assert g.weights.tolist() == [2.0, 0.5, 1.5, 2.0, 1.5, 0.5]
        assert list(g.edges()) == [(0, 2, 2.0), (0, 3, 0.5), (1, 2, 1.5)]
        assert all(type(v) is t for e in g.edges() for v, t in zip(e, (int, int, float)))

    def test_zero_weight_adds_no_edge(self):
        g = gr.SpatialGraph(3, [0, 1], [1, 2], [0.0, 1.0])
        assert list(g.edges()) == [(1, 2, 1.0)] and g.dense_adjacency()[0, 1] == 0.0

    @pytest.mark.parametrize("src, dst, w", [
        ([1], [1], [1.0]),  # self-loop
        ([0, 1], [1, 0], [1.0, 2.0]),  # the same edge twice
        ([0], [1], [-1.0]),
        ([0], [1], [np.nan]),
        ([0], [3], [1.0]),  # endpoint past n
    ])
    def test_constructor_rejects_bad_edges(self, src, dst, w):
        with pytest.raises(ContractError):
            gr.SpatialGraph(3, src, dst, w)

    def test_immutable(self):
        g = gr.SpatialGraph(2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            g.weights[0] = 2.0
        with pytest.raises(AttributeError):
            g.n = 3


class TestEpsilonGraph:
    def test_edge_when_closer_than_epsilon(self):
        g = gr.build_epsilon_graph([[0.0, 0.0], [0.5, 0.0]], epsilon=1.0)
        assert g.dense_adjacency()[0, 1] == 1.0

    def test_no_edge_at_distance_two(self):
        g = gr.build_epsilon_graph([[0.0, 0.0], [2.0, 0.0]], epsilon=1.0)
        assert g.dense_adjacency()[0, 1] == 0.0

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
        a = g.dense_adjacency()
        assert (a == a.T).all() and not a.diagonal().any()


@pytest.mark.parametrize("coords", [np.zeros(5), np.zeros((0, 2))], ids=["flat", "no-nodes"])
@pytest.mark.parametrize("build", [
    lambda coords: gr.build_epsilon_graph(coords, epsilon=1.0),
    lambda coords: gr.build_gaussian_graph(coords, sigma=1.0, threshold=0.1),
], ids=["epsilon", "gaussian"])
def test_builders_reject_coords_not_n_by_dim(build, coords):
    with pytest.raises(InputError, match=r"coords must be \(n, dim\) with n >= 1"):
        build(coords)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("name, build", [
    ("epsilon", lambda value: gr.build_epsilon_graph([[0.0, 0.0], [1.0, 0.0]], epsilon=value)),
    ("sigma", lambda value: gr.build_gaussian_graph([[0.0, 0.0], [1.0, 0.0]], value, 0.1)),
], ids=["epsilon", "gaussian"])
def test_builders_reject_a_scale_that_is_not_finite_and_positive(name, build, value):
    # nan made an empty graph and inf the complete one
    with pytest.raises(InputError, match=f"{name} must be a finite number > 0, got {value}"):
        build(value)


class TestGaussianGraph:
    def test_coincident_pair_weight_one(self):
        g = gr.build_gaussian_graph([[1.0, 1.0], [1.0, 1.0]], sigma=2.0, threshold=0.5)
        assert g.dense_adjacency()[0, 1] == 1.0

    def test_distance_sigma_gives_inverse_e(self):
        g = gr.build_gaussian_graph([[0.0, 0.0], [3.0, 0.0]], sigma=3.0, threshold=0.0)
        np.testing.assert_allclose(g.dense_adjacency()[0, 1], math.exp(-1.0), atol=1e-12)

    def test_cutoff_drops_weak_edges(self):
        d = math.sqrt(-math.log(0.1)) * 2.0  # weight exactly 0.1 at sigma=2
        g = gr.build_gaussian_graph([[0.0, 0.0], [d, 0.0]], sigma=2.0, threshold=0.2)
        assert g.dense_adjacency()[0, 1] == 0.0


class TestLaplacian:
    def test_single_edge(self):
        g = gr.SpatialGraph(2, [0], [1], [1.0])
        np.testing.assert_array_equal(gr.laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_isolated_node(self):
        np.testing.assert_array_equal(gr.laplacian(gr.SpatialGraph(1)), [[0.0]])

    def test_triangle(self):
        g = gr.SpatialGraph(3, *clique_edges(range(3)), np.ones(3))
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
        i, j, w = template.edge_arrays()
        g = gr.SpatialGraph(size * copies, label[:, i], label[:, j], np.tile(w, copies))
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
        g = gr.SpatialGraph(2, [0], [1], [1.0])
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
        src, dst = clique_edges(range(size))
        g = gr.SpatialGraph(2 * size, [src, src + size], [dst, dst + size], np.ones(2 * src.size))
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
        g = gr.SpatialGraph(2, [0], [1], [1.0])
        with caplog.at_level("WARNING"):
            pe = gr.laplacian_pe(g, k=4, block_limit=1000)
        assert pe.vectors.shape == (2, 4)
        assert (pe.vectors[:, 2:] == 0.0).all()
        assert [r.getMessage() for r in caplog.records] == [
            "graph has 2 nodes < k=4; zero-padding its encoding"
        ]

    @pytest.mark.parametrize("name, k, block_limit", [
        ("grid24", 8, 17), ("grid24", 8, 96), ("grid45", 8, 96), ("cliques", 3, 6),
        ("gaussian", 4, 5),
    ])
    def test_one_partition_call_gives_fewest_blocks_under_the_limit(
        self, monkeypatch, name, k, block_limit
    ):
        size = 6
        src, dst = clique_edges(range(size))
        coords = np.random.default_rng(0).random((40, 2)) * 4.0
        g = {
            "grid24": lambda: make_grid_graph(24, 24),
            "grid45": lambda: make_grid_graph(45, 45),
            "cliques": lambda: gr.SpatialGraph(
                2 * size, [src, src + size], [dst, dst + size], np.ones(2 * src.size)
            ),
            "gaussian": lambda: gr.build_gaussian_graph(coords, sigma=1.0, threshold=0.1),
        }[name]()
        plans, partition_kway = [], pt.partition_kway

        def counted(*args, **kwargs):
            plans.append(partition_kway(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(pt, "partition_kway", counted)
        pe = gr.laplacian_pe(g, k, block_limit)
        assert pe.source == "per-subgraph" and len(plans) == 1
        assert plans[0].p == math.ceil(g.n / block_limit)
        assert plans[0].m <= block_limit

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

    @pytest.mark.parametrize("line", ["0,0.0,x", "a,0.0,1.0", "0,1e400e,0.0"])
    def test_bad_coords_line_names_its_line(self, tmp_path, line):
        path = tmp_path / "coords.csv"
        path.write_text(f"1,1.0,0.0\n{line}\n")
        with pytest.raises(InputError, match=f"{path}:2: "):
            gr.load_coords(path)

    @pytest.mark.parametrize("ids, fault", [
        ((0, 0, 1), "node id 0 repeats"),
        ((0, 1, 2, 2), "node id 2 repeats"),
        ((1, 2), "node id 0 is missing"),
        ((0, 1, 3, 3), "node id 2 is missing"),
        ((-1, 0, 1), "node id -1 is negative"),
    ])
    def test_bad_coords_ids_name_the_first_bad_id(self, tmp_path, ids, fault):
        path = tmp_path / "coords.csv"
        path.write_text("".join(f"{i},{float(i)},0.0\n" for i in ids))
        with pytest.raises(InputError, match=f"{path}: {fault}; "):
            gr.load_coords(path)

    def test_coords_node_count_checked(self, tmp_path):
        path = tmp_path / "coords.csv"
        gr.save_coords(path, np.zeros((3, 2)))
        assert gr.load_coords(path, n=3).shape == (3, 2)
        with pytest.raises(NodeCountError, match="coords file has 3 nodes, series has 4"):
            gr.load_coords(path, n=4)

    def test_malformed_edge_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n")
        with pytest.raises(InputError):
            gr.load_graph(path)

    @pytest.mark.parametrize("line", ["-1,1,1.0", "2,2,1.0", "0,2,-1.0", "0,2,nan", "0,2,inf"])
    def test_bad_edge_line_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1,1.0\n{line}\n1,2,1.0\n")
        with pytest.raises(InputError, match=f"{path}:2: "):
            gr.load_graph(path, n=3)

    def test_repeated_pair_keeps_last_nonzero_weight(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("0,1,1.0\n1,0,2.5\n0,1,0.0\n1,2,0\n")
        g = gr.load_graph(path)
        assert g.n == 3 and list(g.edges()) == [(0, 1, 2.5)]


class TestFingerprints:
    """Literal hashes from before the CSR storage: cached PE files stay valid."""

    def test_grid_graph_hash_and_file_bytes(self, tmp_path):
        self.check(tmp_path, make_grid_graph(8, 8),
                   "fdf896ec449ae37e683b6479e6a9e3484412f260fb08f86b0320c992b3f72e40",
                   "fdbe581793b436ac4767e98d832304f3b28a7d263594c385ad90e054ff49bba3")

    def test_gaussian_graph_hash_and_file_bytes(self, tmp_path):
        coords = np.random.default_rng(0).random((40, 2)) * 4.0
        self.check(tmp_path, gr.build_gaussian_graph(coords, sigma=1.0, threshold=0.1),
                   "6b9fc2cea93a7967b5579fbbd6909982f8d96fc37bca1d5ecb8d43103fb59294",
                   "2a918d45c333f73f8cd6ff22abe990f03fea0d3cfe8f7d108301bbf3bbd3350b")

    @staticmethod
    def check(tmp_path, g, graph_hash, file_sha):
        gr.save_graph(tmp_path / "g.csv", g)
        assert gr.graph_hash(g) == graph_hash
        assert hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest() == file_sha

    def test_blockwise_pe_bytes(self):
        pe = gr.laplacian_pe(make_grid_graph(24, 24), 8, 96)
        assert pe.source == "per-subgraph"
        assert hashlib.sha256(pe.vectors.tobytes()).hexdigest() == (
            "3c7314f5c23295de474409b1bbce3789c89d8e704c98f21fadfbad43e6a4fc02"
        )
