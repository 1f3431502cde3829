"""Partitioner quality/structure oracles, plan files and the row-order round trip."""
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from sbaformer import partition as pt
from sbaformer.autodiff import Tensor
from sbaformer.data import make_grid_graph
from sbaformer.errors import ContractError, InputError, ShapeError
from sbaformer.graph import SpatialGraph, build_gaussian_graph

from test_graph import clique_edges, random_connected_graph


def path_graph(n):
    return SpatialGraph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


def two_cluster_graph():
    """Gaussian-kernel graph on two far-apart clusters of 80 random points:
    non-integer weights and two connected components."""
    rng = np.random.default_rng(5)
    coords = np.concatenate([rng.uniform(0, 5, (80, 2)), rng.uniform(12, 17, (80, 2))])
    return build_gaussian_graph(coords, sigma=1.0, threshold=0.1)


def greedy_merge_map(cut_w):
    """Reference pairing: repeatedly merge the free pair with the heaviest
    cut (ties to the lowest indices); group ids follow the lowest member."""
    available = list(range(cut_w.shape[0]))
    groups = []
    while len(available) >= 2:
        pairs = itertools.combinations(available, 2)
        a, b = max(pairs, key=lambda ab: (cut_w[ab], -ab[0], -ab[1]))
        groups.append((a, b))
        available.remove(a)
        available.remove(b)
    groups += [(x,) for x in available]
    mapping = np.zeros(cut_w.shape[0], dtype=np.int64)
    for gi, grp in enumerate(sorted(groups, key=min)):
        mapping[list(grp)] = gi
    return mapping


def best_balanced_bipartition(g, balance_factor=1.3):
    """Exhaustive minimum edge cut over balanced 2-way splits."""
    cap = balance_factor * math.ceil(g.n / 2)
    best = math.inf
    for size in range(1, g.n // 2 + 1):
        if g.n - size > cap:
            continue
        for side in itertools.combinations(range(g.n), size):
            side = set(side)
            cut = sum(w for i, j, w in g.edges() if (i in side) != (j in side))
            best = min(best, cut)
    return best


class TestPartitionKway:
    def test_path_four_nodes_optimal_split(self):
        plan = pt.partition_kway(path_graph(4), p=2, seed=0)
        assert plan.edge_cut == 1.0
        assert plan.edge_cut <= 1.5 * best_balanced_bipartition(path_graph(4))
        groups = {frozenset(np.flatnonzero(plan.assign == part)) for part in range(2)}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_single_part_degenerate(self):
        g = path_graph(5)
        plan = pt.partition_kway(g, p=1)
        assert plan.p == 1 and plan.m == 5 and plan.edge_cut == 0.0

    def test_singletons_degenerate(self):
        g = path_graph(5)
        plan = pt.partition_kway(g, p=5)
        assert plan.p == 5 and plan.m == 1
        assert plan.edge_cut == g.total_edge_weight()

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(6, 40))
            p = int(rng.integers(2, min(n, 9)))
            g = random_connected_graph(n, rng)
            plan = pt.partition_kway(g, p, seed=int(rng.integers(1 << 30)))
            plan.validate(g)
            assert not plan.over_balance

    def test_quality_within_1p5x_of_exhaustive(self):
        rng = np.random.default_rng(1)
        for trial in range(15):
            n = int(rng.integers(4, 11))
            g = random_connected_graph(n, rng)
            plan = pt.partition_kway(g, p=2, seed=trial)
            assert plan.edge_cut <= 1.5 * best_balanced_bipartition(g) + 1e-12

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(30, rng)
        a = pt.partition_kway(g, 4, seed=7)
        b = pt.partition_kway(g, 4, seed=7)
        assert np.array_equal(a.assign, b.assign) and a.edge_cut == b.edge_cut

    def test_p_exceeding_n_rejected(self):
        with pytest.raises(InputError):
            pt.partition_kway(path_graph(3), p=4)

    def test_over_balance_flagged_never_silent(self):
        # a lopsided raw assignment must carry the flag and the achieved factor
        plan = pt.plan_from_assign(np.array([0, 0, 0, 0, 0, 1]), 2)
        assert plan.over_balance
        assert plan.achieved_factor == pytest.approx(5 / 3)

    @pytest.mark.parametrize("assign, p, match", [
        ([0, 2, 1], 2, "labels in"),
        ([0, -1, 1], 2, "labels in"),
        ([0, 0, 2], 3, "empty subgraph"),
        ([], 1, "empty subgraph"),
    ], ids=["label-past-p", "negative-label", "empty-part", "no-nodes"])
    def test_plan_rejects_bad_labels_and_empty_parts(self, assign, p, match):
        with pytest.raises(ContractError, match=match):
            pt.plan_from_assign(np.array(assign, dtype=np.int64), p)

    def test_plan_derives_order_and_sizes_from_assign(self):
        plan = pt.plan_from_assign(np.array([2, 0, 1, 0, 2, 2]), 3)
        assert plan.order.tolist() == [1, 3, 2, 0, 4, 5]
        assert plan.inverse.tolist() == [3, 0, 2, 1, 4, 5]
        assert plan.sizes.tolist() == [2, 1, 3] and plan.m == 3
        assert plan.mask.tolist() == [[True, True, False], [True, False, False], [True] * 3]
        with pytest.raises(AttributeError):
            plan.m = 4

    def test_coarsening_path_on_larger_graph(self):
        # n=200 with p=2 forces at least one coarsening level (target 64)
        rng = np.random.default_rng(3)
        g = random_connected_graph(200, rng, extra_edges=300)
        plan = pt.partition_kway(g, 2, seed=0)
        plan.validate(g)
        assert not plan.over_balance


class TestPartsBookkeeping:
    """move() keeps the refinement state equal, bit for bit, to a rebuild."""

    @staticmethod
    def _level(kind):
        rng = np.random.default_rng(9)
        g = random_connected_graph(60, rng, extra_edges=90)
        node_w = np.ones(g.n, dtype=np.int64)
        if kind == "contracted":
            cmap, cn = pt._heavy_edge_matching(g, rng)
            g, node_w = pt._contract(g, node_w, cmap, cn)
            assert node_w.max() > 1
        return g, node_w

    @staticmethod
    def _assert_rebuilt(parts):
        fresh = pt._Parts(parts.g, parts.node_w, parts.assign.copy(), parts.p, parts.cap)
        for name in ("conn", "outside", "boundary", "part_w", "part_count"):
            assert np.array_equal(getattr(parts, name), getattr(fresh, name)), name
        movable = np.flatnonzero(parts.boundary & (parts.part_count[parts.assign] > 1))
        assert parts.best_move(movable) == fresh.best_move(movable)

    @pytest.mark.parametrize("kind", ["random", "contracted"])
    def test_moves_and_undos_match_a_rebuild(self, kind):
        g, node_w = self._level(kind)
        p = 4
        rng = np.random.default_rng(11)
        # a cap that some moves break, so best_move filters as well as ranks
        parts = pt._Parts(g, node_w, rng.integers(0, p, g.n), p, cap=node_w.sum() / 3)
        self._assert_rebuilt(parts)
        for _ in range(6):
            moves = []
            for _ in range(12):
                u = int(rng.integers(0, g.n))
                to = int((parts.assign[u] + rng.integers(1, p)) % p)
                moves.append((u, parts.move(u, to)))
                self._assert_rebuilt(parts)
            # roll a suffix back in reverse, as a best-prefix pass does
            for u, frm in reversed(moves[int(rng.integers(0, len(moves))):]):
                parts.move(u, frm)
                self._assert_rebuilt(parts)


class TestRebalance:
    def test_no_fitting_move_falls_back_to_the_lightest_part(self):
        # part 0 weighs 5 over a cap of 3.5, and any node joining part 1
        # breaks the cap; node 0 goes to the lightest part anyway, then the
        # loop stops because a further move cannot narrow the gap
        parts = pt._Parts(path_graph(4), np.array([1.0, 1.0, 3.0, 3.0]),
                          np.array([0, 0, 0, 1]), 2, cap=3.5)
        pt._rebalance(parts)
        assert parts.assign.tolist() == [1, 0, 0, 1]
        assert parts.part_w.tolist() == [4.0, 4.0]


class TestScaleSeries:
    def test_counts_halve_8_4_2(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(32, rng)
        series = pt.build_scale_series(g, p0=8, l=3, seed=0)
        assert [plan.p for plan in series.plans] == [8, 4, 2]
        series.validate(g)

    def test_single_level_no_merge(self):
        g = path_graph(6)
        series = pt.build_scale_series(g, p0=3, l=1)
        assert len(series.plans) == 1 and not series.merge_maps

    def test_merge_prefers_heaviest_cut_pairs(self):
        # two 4-cliques joined by one bridge edge; with p0=4 the partitioner
        # splits each clique in two, and the level-2 pairing must reunite the
        # clique halves (max cut weight) rather than pair across the bridge
        src, dst = clique_edges(range(4))
        bridge = [3], [4]
        g = SpatialGraph(
            8,
            np.concatenate([src, src + 4, bridge[0]]),
            np.concatenate([dst, dst + 4, bridge[1]]),
            np.ones(13),
        )
        series = pt.build_scale_series(g, p0=4, l=2, seed=0)
        fine, coarse = series.plans
        # oracle: enumerate all pair-merges and confirm the greedy picks argmax
        cut_w = np.zeros((4, 4))
        for i, j, w in g.edges():
            a, b = fine.assign[i], fine.assign[j]
            if a != b:
                cut_w[a, b] += w
                cut_w[b, a] += w
        merged_pairs = [
            tuple(sorted(np.flatnonzero(series.merge_maps[0] == grp).tolist()))
            for grp in range(coarse.p)
        ]
        best_pair = max(
            itertools.combinations(range(4), 2), key=lambda ab: (cut_w[ab], -ab[0], -ab[1])
        )
        assert best_pair in merged_pairs
        # each coarse group must sit inside one clique
        for part in range(coarse.p):
            nodes = np.flatnonzero(coarse.assign == part)
            assert (nodes < 4).all() or (nodes >= 4).all()
        # whole merge maps match the greedy scan over all free pairs, on
        # random symmetric weights with many ties
        rng = np.random.default_rng(12)
        for _ in range(300):
            p = int(rng.integers(1, 20))
            w = np.triu(rng.integers(0, 3, (p, p)).astype(float), 1)
            if rng.random() < 0.3:
                w = np.triu(rng.random((p, p)), 1)
            w = w + w.T
            assert np.array_equal(pt._merge_map(w), greedy_merge_map(w))

    def test_odd_count_carries_leftover(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(20, rng)
        series = pt.build_scale_series(g, p0=5, l=3, seed=1)
        assert [plan.p for plan in series.plans] == [5, 3, 2]
        series.validate(g)

    def test_infeasible_levels_names_maximum(self):
        g = path_graph(16)
        with pytest.raises(InputError, match="maximum feasible levels: 3"):
            pt.build_scale_series(g, p0=4, l=4)

    # sha256 of the series JSON and the edge cuts, from before the CSR partitioner
    FINGERPRINTS = {
        "grid8": ("ee2895c22cb5546d2c57d50ba9660a48760f1dea702f966dd81bb206ae7f7621",
                  [72, 50, 28]),
        "grid24": ("a62f046c28201413d05547dfe18fb5733c936b33dbd31b433c830ed9628352cb",
                   [370, 263, 162]),
        "random200": ("16ad6302c95811292ecbd66861a78bb46ec8087c9f7dd6c294185674dfeccaaa",
                      [234.73305640161627, 185.18351413801054, 117.1157241377305]),
        # computed by the partitioner before move() refreshed two table columns
        "grid45": ("2f271296edbd567c53e0a7a09be0a3774e013e8c86c0c791a135be9fea951228",
                   [1077.0, 796.0, 587.0]),
        "gauss160": ("0a276bc769f520f679562b17dbaf0f477db4d24d765739ae25737c27514ed694",
                     [96.95755460057515, 37.31753345022441, 0]),
    }

    # sha256 of each level's row order as int64 bytes, from the padded-table plans
    ORDERS = {
        "grid8": ["0a3ff31e91ceff2583e79314f658195c0a3660bfe08bd533f177ca0c385ace88",
                  "60070afc978b9111723f797e72d106d2c5d8413e7d04e95b37b6a15b07abc4f8",
                  "9a0bd3debaa2ea35c6693e0748de6bcb061792fbdd0d321f67bfe004d73f2e50"],
        "grid24": ["299199c2fb011d739cda53b7124148c9988584432e516926c51b698796235469",
                   "3dfbfd84c18d58d47bc2a9f787f2e54cf672346eb50cf6a071d1d76ee07815a4",
                   "b4f0fa81a7c6e40e2fba47e337722983bf4160082f88ec5474a0fb3537189fb0"],
        "random200": ["be23440aa269944a96538a8592fcd028ce57d58006c70d6000c1567317e2f6a1",
                      "82e4d9e32f1b6ab714d949fecb6c0239e78e908eed67451ab17ab2014eda9439",
                      "46fb3f2271ae61042624607b04e193345082d824dd40bc1ba6dcffbdb92153a8"],
        "grid45": ["bca9cde9d916ca6eab3bfd0dcc0a3cf72e11b8527dd1f30ac538dae6d2462c92",
                   "b24e80a53918af7dfb1b4f3b6e52f372a80d82db120bf5124e6d0cd7f7b28c41",
                   "c630a725fdf771a53bf4d62da88a13056b8f2e5f77a7b16c9c8d7c9495fe0790"],
        "gauss160": ["6722750efa01bd3ab4311d768c08054b42e9b2dc2fa80729880babb8c6910ea6",
                     "278c0b346d83a6aa6651eb3ae99b51ba1ad1b98825760c21ec2a5c5c5896c4a5",
                     "7be21acae1abdb46365b03d00614ebca75107f603ccf23a3c848143f811eeb67"],
    }
    GRAPHS = [("grid8", 8), ("grid24", 16), ("random200", 8), ("grid45", 32), ("gauss160", 8)]

    @staticmethod
    def _series(graph, p0):
        if graph == "random200":
            g = random_connected_graph(200, np.random.default_rng(3), extra_edges=300)
        elif graph == "gauss160":
            g = two_cluster_graph()
        else:
            g = make_grid_graph(int(graph[4:]), int(graph[4:]))
        return pt.build_scale_series(g, p0, 3)

    @pytest.mark.parametrize("graph, p0", GRAPHS)
    def test_series_fingerprint(self, graph, p0):
        series = self._series(graph, p0)
        text = json.dumps(series.to_dict(), sort_keys=True, indent=2)
        digest, cuts = self.FINGERPRINTS[graph]
        assert [plan.edge_cut for plan in series.plans] == cuts
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("graph, p0", GRAPHS)
    def test_series_row_order(self, graph, p0):
        orders = [plan.order.astype(np.int64).tobytes() for plan in self._series(graph, p0).plans]
        assert [hashlib.sha256(o).hexdigest() for o in orders] == self.ORDERS[graph]

    @pytest.mark.parametrize("edit, match", [
        (lambda s: s.merge_maps.__setitem__(0, s.merge_maps[0][:2]), "merge map 0 must"),
        (lambda s: s.merge_maps[0].__setitem__(0, 1 - s.merge_maps[0][0]), "not a union"),
        (lambda s: (s.plans.append(s.plans[1]), s.merge_maps.append(np.array([0, 1]))),
         "halving violated"),
        (lambda s: s.merge_maps.pop(), "0 merge maps for 2 levels"),
        (lambda s: s.plans.__setitem__(1, pt.PartitionPlan(
            (c := s.plans[1]).assign, c.p, c.edge_cut + 1.0, c.balance_factor, c.seed)),
         "stored edge_cut"),
    ], ids=["short-merge-map", "wrong-merge-map", "repeated-level", "missing-merge-map",
            "tampered-edge-cut"])
    def test_broken_series_fails_validation(self, edit, match):
        g = random_connected_graph(18, np.random.default_rng(6))
        series = pt.build_scale_series(g, p0=4, l=2, seed=3)
        series.validate(g)
        edit(series)
        with pytest.raises(ContractError, match=match):
            series.validate(g)


class TestApplyRevert:
    def test_identity_single_subgraph(self):
        x = np.arange(12.0).reshape(4, 3)
        plan = pt.uniform_plan(4, 1)
        out = pt.apply_plan(Tensor(x), plan)
        np.testing.assert_array_equal(out.data, x)

    def test_padding_slots_are_zero(self):
        # the plan's table has a padded slot, yet the layout holds no padded
        # row: just the 3 node rows, each subgraph's rows consecutive
        g = path_graph(3)
        plan = pt.partition_kway(g, 2, seed=0)
        assert plan.m == 2 and plan.sizes.sum() == 3
        x = np.arange(6.0).reshape(3, 2)
        out = pt.apply_plan(Tensor(x), plan).data
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out, x[plan.order])
        assert (np.diff(plan.assign[plan.order]) >= 0).all()

    def test_roundtrip_random_plan(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(10, rng)
        plan = pt.partition_kway(g, 3, seed=2)
        x = rng.standard_normal((10, 5))
        laid = pt.apply_plan(Tensor(x), plan)
        assert laid.shape == (10, 5) and plan.p * plan.m > 10
        back = pt.revert_plan(laid, plan)
        np.testing.assert_array_equal(back.data, x)

    def test_roundtrip_with_batch_axis(self):
        rng = np.random.default_rng(8)
        g = random_connected_graph(7, rng)
        plan = pt.partition_kway(g, 2, seed=0)
        x = rng.standard_normal((4, 7, 3))
        laid = pt.apply_plan(Tensor(x), plan)
        assert laid.shape == (4, 7, 3)
        back = pt.revert_plan(laid, plan)
        np.testing.assert_array_equal(back.data, x)

    def test_shape_contract_errors(self):
        plan = pt.uniform_plan(4, 2)
        with pytest.raises(ShapeError):
            pt.apply_plan(Tensor(np.zeros((5, 3))), plan)
        with pytest.raises(ShapeError):
            pt.revert_plan(Tensor(np.zeros((2, 2, 3))), plan)  # the padded (p, m, d) form
