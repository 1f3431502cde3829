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
from sbaformer.graph import SpatialGraph, build_epsilon_graph, build_gaussian_graph

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


def cut_matrix(g, assign, p):
    """(p, p) symmetric cut weights between the parts of `assign`, summed
    edge by edge in g's edge order."""
    cut_w = np.zeros((p, p))
    for i, j, w in g.edges():
        a, b = assign[i], assign[j]
        if a != b:
            cut_w[a, b] += w
            cut_w[b, a] += w
    return cut_w


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


# ---------------------------------------------------------------------------
# the scan-based FM refinement that _MoveQueue replaced, kept verbatim (but
# for the names) as the oracle of TestMoveQueue: it rescores every movable
# row before each move and rolls back by re-summing rows. scan_rebalance is
# the rebalance that scored its moves with the same best_move (verbatim but
# for the names and the inlined cap test), the oracle of TestRebalance


class ScanParts:
    """One level's assignment under a part-weight cap, with the state that
    refinement reads: part weights and sizes, the node-to-part table
    conn[u, q] (the edge weight from node u into part q), and, per node, the
    count of neighbours in other parts (`outside`), nonzero on the
    `boundary`.

    Moving u from part a to part b changes only columns a and b of its
    neighbours' rows. So move() re-sums just those two entries, walking each
    neighbour's row in CSR order with `s += w` from 0.0: sum(deg(v) for v
    near u) plain Python steps, and no numpy call but scalar writes. That is
    the order np.bincount accumulates in when the table is built, so the
    refreshed entries have the bits a full rebuild would give. Weights are
    > 0, so conn[v, q] > 0 exactly when v has a neighbour in q, and the
    boundary follows from neighbour labels alone.
    """

    def __init__(self, g: SpatialGraph, node_w, assign, p, cap):
        self.g, self.node_w, self.assign, self.p, self.cap = g, node_w, assign, p, cap
        self.part_w = np.bincount(assign, weights=node_w, minlength=p)
        self.part_count = np.bincount(assign, minlength=p)
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        cols = assign[g.indices]
        table = np.bincount(rows * p + cols, weights=g.weights, minlength=g.n * p)
        self.conn = table.reshape(g.n, p)
        self.outside = np.bincount(rows[assign[rows] != cols], minlength=g.n)
        # best_move's (nodes x p) work space, kept for the level: allocated
        # afresh per call, it page-faulted anew on every call at n=8649
        self._grid = np.empty_like(self.conn)
        self._fits = np.empty(self.conn.shape, dtype=bool)
        # the CSR arrays and a mirror of assign as lists, for move()'s walks
        self._csr = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
        self._labels = assign.tolist()

    def move(self, u: int, to: int) -> int:
        """Move node u to part `to`, refresh its neighbours' state; return u's old part."""
        labels, (indptr, indices, weights) = self._labels, self._csr
        frm = labels[u]
        labels[u] = to
        self.assign[u] = to
        self.part_w[frm] -= self.node_w[u]
        self.part_w[to] += self.node_w[u]
        self.part_count[frm] -= 1
        self.part_count[to] += 1
        u_out = 0
        for v in indices[indptr[u] : indptr[u + 1]]:
            here = labels[v]
            u_out += here != to
            if here == frm or here == to:  # u left v's part, or joined it
                self.outside[v] += 1 if here == frm else -1
            w_frm = w_to = 0.0
            for k in range(indptr[v], indptr[v + 1]):
                there = labels[indices[k]]
                if there == frm:
                    w_frm += weights[k]
                elif there == to:
                    w_to += weights[k]
            self.conn[v, frm] = w_frm
            self.conn[v, to] = w_to
        self.outside[u] = u_out
        return frm

    @property
    def boundary(self) -> np.ndarray:
        """Whether each node has a neighbour in another part."""
        return self.outside > 0

    def best_move(self, nodes):
        """Highest-gain (gain, u, to) moving one of `nodes` (ascending) into
        another part that stays within the cap, or None. Ties go to the
        lowest node, then the lowest part."""
        here, frm = np.arange(nodes.size), self.assign[nodes]
        grid, fits = self._grid[: nodes.size], self._fits[: nodes.size]
        np.add(self.part_w, self.node_w[nodes][:, None], out=grid)
        np.less_equal(grid, self.cap + 1e-9, out=fits)
        fits[here, frm] = False
        if not fits.any():
            return None
        gain = np.take(self.conn, nodes, axis=0, out=grid)
        gain -= gain[here, frm][:, None]
        np.putmask(gain, np.logical_not(fits, out=fits), -np.inf)
        k, to = divmod(int(np.argmax(gain)), self.p)
        return gain[k, to], int(nodes[k]), to


def scan_fm_refine(parts: ScanParts, max_passes: int = 10):
    """KL/FM passes: greedy single-node moves with best-prefix rollback.

    Moves may go downhill inside a pass; the pass keeps the prefix with the
    best total gain. Only boundary nodes move. Balance and non-emptiness are
    never violated. Ties break on (gain, lowest node, lowest target part) so
    runs are deterministic.
    """
    nn = parts.g.n
    move_limit = nn if nn <= 128 else max(128, nn // 8)
    for _ in range(max_passes):
        locked = np.zeros(nn, dtype=bool)
        moves = []
        improvement = 0.0
        best_improvement = 0.0
        best_prefix = 0
        while len(moves) < move_limit:
            movable = parts.boundary & ~locked & (parts.part_count[parts.assign] > 1)
            best = parts.best_move(np.flatnonzero(movable))
            if best is None:
                break
            gain, u, to = best
            moves.append((u, parts.move(u, to)))
            locked[u] = True
            improvement += gain
            if improvement > best_improvement + 1e-12:
                best_improvement = improvement
                best_prefix = len(moves)
        for u, frm in reversed(moves[best_prefix:]):
            parts.move(u, frm)
        if best_improvement <= 1e-12:
            break


def scan_rebalance(parts: ScanParts):
    """Move nodes out of overweight parts, cheapest cut increase first."""
    for _ in range(4 * parts.g.n):
        over = int(np.argmax(parts.part_w))
        if parts.part_w[over] <= parts.cap + 1e-9:
            return
        movable = np.flatnonzero(parts.assign == over)
        best = parts.best_move(movable) if parts.part_count[over] > 1 else None
        if best is None:
            # no receiver under the cap; shift to the lightest part if that
            # still improves the imbalance, otherwise give up
            lightest = int(np.argmin(parts.part_w))
            lightest_node = int(movable[np.argmin(parts.node_w[movable])])
            if (
                parts.part_count[over] == 1
                or parts.part_w[lightest] + parts.node_w[lightest_node] >= parts.part_w[over]
            ):
                return
            best = (0.0, lightest_node, lightest)
        _, u, to = best
        parts.move(u, to)


def level_graph(kind, rng):
    """A random level for the refinement oracles: a grid, a random graph, or
    Gaussian kernel weights, where two far-apart clusters are two components."""
    if kind == "grid":
        return make_grid_graph(int(rng.integers(5, 15)), int(rng.integers(5, 15)))
    if kind == "random":
        n = int(rng.integers(20, 160))
        return random_connected_graph(n, rng, extra_edges=int(rng.integers(0, 2 * n)))
    n = int(rng.integers(30, 160))
    coords = rng.uniform(0, 6, (n, 2))
    if rng.random() < 0.5:
        coords[: n // 3] += 20.0
    return build_gaussian_graph(coords, sigma=1.0, threshold=0.1)


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

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.5])
    def test_balance_factor_must_be_finite_and_at_least_one(self, factor):
        # a NaN or infinite factor would partition with no cap at all
        with pytest.raises(InputError,
                           match=f"balance_factor must be a finite number >= 1, got {factor}"):
            pt.partition_kway(path_graph(8), p=2, balance_factor=factor)

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

    def test_split_parts_counts_parts_in_pieces(self):
        # on the path 0-1-2-3-4, parts {0, 2, 4} and {1, 3} fall apart, while
        # {0, 1}, {2, 3} and the lone node 4 are each one piece
        plan = pt.plan_from_assign(np.array([0, 1, 0, 1, 0]), 2)
        assert plan.split_parts(path_graph(5)) == 2
        assert pt.plan_from_assign(np.array([0, 0, 1, 1, 2]), 3).split_parts(path_graph(5)) == 0

    def test_coarsening_path_on_larger_graph(self):
        # n=200 with p=2 forces at least one coarsening level (target 64)
        rng = np.random.default_rng(3)
        g = random_connected_graph(200, rng, extra_edges=300)
        plan = pt.partition_kway(g, 2, seed=0)
        plan.validate(g)
        assert not plan.over_balance


class TestPartsBookkeeping:
    """move() and undo() keep the refinement state equal, bit for bit, to a rebuild."""

    @staticmethod
    def _level(kind):
        rng = np.random.default_rng(9)
        g = random_connected_graph(60, rng, extra_edges=90)
        node_w = np.ones(g.n, dtype=np.int64)
        if kind == "contracted":
            cmap, cn = pt._heavy_edge_matching(g, rng)
            g, node_w = pt._contract(g, cmap, cn), np.bincount(cmap, minlength=cn)
            assert node_w.max() > 1
        return g, node_w

    @staticmethod
    def _assert_rebuilt(parts):
        fresh = pt._Parts(parts.g, np.array(parts.weight), np.array(parts.labels), parts.p,
                          parts.cap)
        assert parts.labels == fresh.labels
        for name in ("part_w", "part_count"):
            assert np.array_equal(getattr(parts, name), getattr(fresh, name)), name
        # each row entry by its float bits, so equal values with other bits fail
        bits = [[sorted((q, w.hex()) for q, w in row.items()) for row in state.rows]
                for state in (parts, fresh)]
        assert bits[0] == bits[1]

    @pytest.mark.parametrize("kind", ["random", "contracted"])
    def test_moves_and_undos_match_a_rebuild(self, kind):
        g, node_w = self._level(kind)
        p = 4
        rng = np.random.default_rng(11)
        parts = pt._Parts(g, node_w, rng.integers(0, p, g.n), p, cap=node_w.sum() / 3)
        self._assert_rebuilt(parts)
        for _ in range(6):
            moves = []
            for _ in range(12):
                u = int(rng.integers(0, g.n))
                to = int((parts.labels[u] + rng.integers(1, p)) % p)
                moves.append(parts.move(u, to))
                self._assert_rebuilt(parts)
            # roll a suffix back in reverse, as a best-prefix pass does
            for record in reversed(moves[int(rng.integers(0, len(moves))):]):
                parts.undo(record)
                self._assert_rebuilt(parts)


class TestMoveQueue:
    """The FM pass's move queue picks the scan's move at every step, so
    refinement ends where ScanParts and scan_fm_refine end."""

    @staticmethod
    def _refine_both(g, node_w, assign, p, cap):
        new = pt._Parts(g, node_w, assign.copy(), p, cap)
        old = ScanParts(g, node_w, assign.copy(), p, cap)
        pt._fm_refine(new)
        scan_fm_refine(old)
        return new, old

    def test_refinement_matches_the_scan(self):
        rng = np.random.default_rng(21)
        kinds = itertools.cycle(["grid", "random", "gauss"])
        factors = itertools.cycle([1.0, 1.05, 1.3, 2.0])
        moved = 0
        for case in range(120):
            g = level_graph(next(kinds), rng)
            node_w = np.ones(g.n, dtype=np.int64)
            if case % 3 == 0:  # a contracted level: node weights above 1
                cmap, cn = pt._heavy_edge_matching(g, rng)
                g, node_w = pt._contract(g, cmap, cn), np.bincount(cmap, minlength=cn)
            p = int(rng.integers(2, max(3, g.n // 3 + 1)))
            cap = next(factors) * math.ceil(node_w.sum() / p)
            if case % 2:
                assign = pt._region_grow(g, node_w, p, rng)
            else:
                assign = rng.integers(0, p, g.n)
            new, old = self._refine_both(g, node_w, assign, p, cap)
            assert new.labels == old.assign.tolist(), case
            assert new.part_w == old.part_w.tolist(), case
            assert pt._edge_cut(g, np.array(new.labels)) == pt._edge_cut(g, old.assign), case
            moved += int(new.labels != assign.tolist())
        assert moved > 60

    def test_full_touched_parts_send_a_node_to_a_part_it_does_not_touch(self):
        # the path 0-1-2-3 and a lone node 4: parts {0, 1} and {2, 3} are at
        # the cap of 2, so nodes 1 and 2 can only join part 2, which neither
        # touches; both such moves cost 1, and the lower node goes first
        g = SpatialGraph(5, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        node_w, assign = np.ones(5, dtype=np.int64), np.array([0, 0, 1, 1, 2])
        queue = pt._MoveQueue(pt._Parts(g, node_w, assign.copy(), 3, 2.0))
        scan = ScanParts(g, node_w, assign.copy(), 3, 2.0)
        assert queue.pop() == scan.best_move(np.array([1, 2])) == (-1.0, 1, 2)
        new, old = self._refine_both(g, node_w, assign, 3, 2.0)
        assert new.labels == old.assign.tolist() == assign.tolist()

    def test_equal_gains_go_to_the_lowest_part_touched_or_not(self):
        # node 0 sits in part 1 on an edge of weight 1e20, so joining part 2
        # (1 - 1e20) and joining an untouched part (0 - 1e20) round to the
        # same gain; untouched part 0 is full and part 3 is open, and the
        # scan's tie order picks part 2 over part 3
        g = SpatialGraph(6, [0, 0, 3], [1, 2, 4], [1e20, 1.0, 1.0])
        node_w, assign = np.ones(6, dtype=np.int64), np.array([1, 1, 2, 0, 0, 3])
        queue = pt._MoveQueue(pt._Parts(g, node_w, assign.copy(), 4, 2.0))
        scan = ScanParts(g, node_w, assign.copy(), 4, 2.0)
        assert queue.pop() == scan.best_move(np.array([0])) == (-1e20, 0, 2)


class TestRebalance:
    def test_no_fitting_move_falls_back_to_the_lightest_part(self):
        # part 0 weighs 5 over a cap of 3.5, and any node joining part 1
        # breaks the cap; node 0 goes to the lightest part anyway, then the
        # loop stops because a further move cannot narrow the gap
        parts = pt._Parts(path_graph(4), np.array([1.0, 1.0, 3.0, 3.0]),
                          np.array([0, 0, 0, 1]), 2, cap=3.5)
        pt._rebalance(parts)
        assert parts.labels == [1, 0, 0, 1]
        assert parts.part_w == [4.0, 4.0]

    def test_rebalance_matches_the_scan(self):
        rng = np.random.default_rng(31)
        kinds = itertools.cycle(["grid", "random", "gauss"])
        factors = itertools.cycle([1.0, 1.05, 1.3, 1.6, 2.0])
        moved = over_cap = 0
        for case in range(150):
            g = level_graph(next(kinds), rng)
            node_w = np.ones(g.n, dtype=np.int64)
            if case % 3 == 0:  # a contracted level: node weights above 1
                cmap, cn = pt._heavy_edge_matching(g, rng)
                g, node_w = pt._contract(g, cmap, cn), np.bincount(cmap, minlength=cn)
            p = int(rng.integers(2, max(3, g.n // 3 + 1)))
            cap = next(factors) * math.ceil(node_w.sum() / p)
            # lopsided: each part draws about half the nodes of the one before
            assign = np.minimum(rng.geometric(0.5, g.n) - 1, p - 1)
            new = pt._Parts(g, node_w, assign.copy(), p, cap)
            old = ScanParts(g, node_w, assign.copy(), p, cap)
            pt._rebalance(new)
            scan_rebalance(old)
            assert new.labels == old.assign.tolist(), case
            assert new.part_w == old.part_w.tolist(), case
            moved += new.labels != assign.tolist()
            over_cap += not new.within_cap(max(new.part_w))
        assert moved > 100 and over_cap > 0


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
        cut_w = cut_matrix(g, fine.assign, 4)
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
        # random part graphs with many ties and many parts that do not touch
        rng = np.random.default_rng(12)
        for _ in range(300):
            p = int(rng.integers(1, 20))
            w = np.triu(rng.integers(0, 3, (p, p)).astype(float), 1)
            if rng.random() < 0.3:
                w = np.triu(rng.random((p, p)), 1)
            a, b = np.nonzero(w)
            parts = SpatialGraph(p, a, b, w[a, b])
            assert np.array_equal(pt._merge_map(parts), greedy_merge_map(w + w.T))

    @pytest.mark.parametrize("kind", ["grid", "gauss", "epsilon"])
    def test_levels_merge_by_the_greedy_on_the_cut_matrix(self, kind):
        # each level's merge map is the greedy over every pair of parts of the
        # level before, zero-cut pairs included, on the cut matrix of g
        rng = np.random.default_rng(41)
        for _ in range(6):
            if kind == "grid":
                g = make_grid_graph(int(rng.integers(5, 14)), int(rng.integers(5, 14)))
            elif kind == "gauss":
                g = two_cluster_graph()
            else:
                coords = rng.uniform(0, 10, (int(rng.integers(40, 120)), 2))
                g = build_epsilon_graph(coords, epsilon=float(rng.uniform(1.0, 2.0)))
            p0 = int(rng.integers(3, 24))
            series = pt.build_scale_series(g, p0, p0.bit_length(), seed=int(rng.integers(5)))
            for prev, mapping in zip(series.plans, series.merge_maps):
                cut_w = cut_matrix(g, prev.assign, prev.p)
                assert np.array_equal(mapping, greedy_merge_map(cut_w))

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
        # computed by the refinement that scanned every movable row per move
        "grid64": ("00a0354f38f17f109d4d395ebbe6b0df9e01409b84032b2c8064af078d1021a3",
                   [2323.0, 1775.0, 1288.0]),
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
        "grid64": ["0727f805f375ba41816b30ddee2f29b01b1549106135e271af3406b87b1a89b2",
                   "a7d49dc2c3dc08f08f37aa182dbbbec479af95586de35fbe977b961d165e0c51",
                   "b985bf9e0e385a3a4bb61093e352823eaaeff7fdaefc538683fdf003d499f097"],
    }
    GRAPHS = [("grid8", 8), ("grid24", 16), ("random200", 8), ("grid45", 32), ("gauss160", 8),
              ("grid64", 64)]

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
        # level 1 alternates nodes, which splits level-0 groups between its parts
        (lambda s: s.plans.__setitem__(1, pt.plan_from_assign(np.arange(s.plans[0].n) % 2, 2)),
         "not a union"),
        (lambda s: s.plans.append(s.plans[1]), "halving violated"),
        (lambda s: s.plans.__setitem__(1, pt.PartitionPlan(
            (c := s.plans[1]).assign, c.p, c.edge_cut + 1.0, c.balance_factor, c.seed)),
         "stored edge_cut"),
    ], ids=["non-nested-level", "repeated-level", "tampered-edge-cut"])
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
