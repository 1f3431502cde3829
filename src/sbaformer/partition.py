"""Balanced k-way graph partitioning and the multiscale partition series.

The partitioner is a self-contained multilevel scheme: heavy-edge-matching
coarsening, greedy region-growing initial assignment, and Kernighan-Lin
style boundary refinement (best-prefix passes) during uncoarsening. Every
level is a SpatialGraph. Refinement reads move gains from per-node rows of
node-to-part edge weights. A move re-sums only the two entries it changes
(the old and the new part) in its neighbours' rows, in CSR order, so the
rows keep the bits of a full rebuild, and a rollback puts the replaced rows
back. Each move is taken from a heap of candidate moves in which only the
moved node's neighbours are remade, in the order a scan over every legal
move would give (Fiduccia and Mattheyses, DAC 1982). The partitioner is
deterministic for a fixed seed. Coarser scales are built by pair-merging
subgraphs of the previous scale, so the halving relation holds exactly and
boundary nodes of fine subgraphs meet inside coarser ones.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .autodiff import Tensor, permute_rows
from .errors import ContractError, InputError
from .graph import SpatialGraph, connected_components


@dataclass(frozen=True, init=False, eq=False)
class PartitionPlan:
    """A node-to-subgraph assignment and the row order and sizes it implies.

    assign[u] is the subgraph of node u, in [0, p); it is the one stored form
    of the partition, and every subgraph holds at least one node. The rest is
    derived from it once, at construction: `order` lists the node ids by
    subgraph, ascending within each, so apply_plan is one row permutation;
    `inverse` undoes it for revert_plan; `sizes` counts each subgraph's
    nodes. m, achieved_factor, over_balance and the (p, m) mask follow from
    the sizes.
    """

    n: int
    p: int
    assign: np.ndarray  # (n,) subgraph index per node
    order: np.ndarray  # (n,) node ids sorted by subgraph
    inverse: np.ndarray  # (n,) position of each node in order
    sizes: np.ndarray  # (p,) node count per subgraph
    edge_cut: float
    balance_factor: float
    seed: int

    def __init__(self, assign, p: int, edge_cut: float, balance_factor: float, seed: int):
        assign = np.array(assign, dtype=np.int64)
        if assign.ndim != 1 or p < 1 or ((assign < 0) | (assign >= p)).any():
            raise ContractError(f"assignment must be a vector of labels in [0, {p})")
        sizes = np.bincount(assign, minlength=p)
        if (sizes == 0).any():
            raise ContractError(f"empty subgraph in assignment: sizes {sizes.tolist()}")
        order = np.argsort(assign, kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        arrays = (assign, order, inverse, sizes)
        for arr in arrays:
            arr.flags.writeable = False
        fields = (assign.size, p, *arrays, edge_cut, balance_factor, seed)
        names = ("n", "p", "assign", "order", "inverse", "sizes", "edge_cut",
                 "balance_factor", "seed")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        """Size of the largest subgraph."""
        return int(self.sizes.max())

    @property
    def achieved_factor(self) -> float:
        """m over the ideal size ceil(n / p)."""
        return self.m / math.ceil(self.n / self.p)

    @property
    def over_balance(self) -> bool:
        """Whether m exceeds the cap balance_factor * ceil(n / p)."""
        return bool(self.m > self.balance_factor * math.ceil(self.n / self.p) + 1e-9)

    @property
    def mask(self) -> np.ndarray:
        """(p, m) table, True on the first sizes[i] slots of row i."""
        return np.arange(self.m) < self.sizes[:, None]

    def validate(self, g: SpatialGraph):
        """Check the stored edge cut against the one recomputed on g.

        Construction already guarantees that each node lies in exactly one
        non-empty subgraph, and over_balance is derived from the sizes, so
        the edge cut is the one stored value left to check. Raises
        ContractError on violation.
        """
        cut = _edge_cut(g, self.assign)
        if abs(cut - self.edge_cut) > 1e-9 * max(1.0, abs(cut)):
            raise ContractError(f"stored edge_cut {self.edge_cut} != recomputed {cut}")

    def split_parts(self, g: SpatialGraph) -> int:
        """How many parts do not form one connected piece of g."""
        src, dst, w = g.edge_arrays()
        inside = self.assign[src] == self.assign[dst]
        pieces = connected_components(SpatialGraph(g.n, src[inside], dst[inside], w[inside]))
        part_of_piece = self.assign[[piece[0] for piece in pieces]]
        return int((np.bincount(part_of_piece, minlength=self.p) > 1).sum())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "m": self.m,
            "balance_factor": self.balance_factor,
            "seed": self.seed,
            "edge_cut": self.edge_cut,
            "assign": self.assign.tolist(),
            "achieved_factor": self.achieved_factor,
            "over_balance": self.over_balance,
        }


def prefix_sizes(mask) -> np.ndarray:
    """Valid-slot count per row of a (p, m) mask whose valid slots come first.

    This is the layout of a plan's mask, through which the model stages read
    the subgraph sizes. Raises ContractError for any other mask.
    """
    mask = np.asarray(mask, dtype=bool)
    sizes = mask.sum(axis=1)
    if not np.array_equal(mask, np.arange(mask.shape[1]) < sizes[:, None]):
        raise ContractError("a subgraph's valid slots are not a prefix of its row")
    return sizes


@dataclass
class ScaleSeries:
    """Partitions for successive blocks; subgraph count halves (ceil) per level."""

    plans: list

    @property
    def merge_maps(self) -> list:
        """maps[i][a]: the subgraph of plans[i + 1] that holds subgraph a of
        plans[i]. The plans are the one stored form; the maps follow from them."""
        maps = []
        for prev, cur in zip(self.plans, self.plans[1:]):
            mapping = np.empty(prev.p, dtype=np.int64)
            mapping[prev.assign] = cur.assign
            maps.append(mapping)
        return maps

    def validate(self, g: SpatialGraph):
        """Check halving, nesting and each edge cut on g.

        Raises ContractError on violation.
        """
        levels = zip(self.plans, self.plans[1:], self.merge_maps)
        for i, (prev, cur, mapping) in enumerate(levels, start=1):
            if cur.p != math.ceil(prev.p / 2):
                raise ContractError(
                    f"halving violated at level {i}: {prev.p} -> {cur.p}"
                )
            if not np.array_equal(cur.assign, mapping[prev.assign]):
                raise ContractError(f"level {i} is not a union of level {i - 1} groups")
        for plan in self.plans:
            plan.validate(g)

    def to_dict(self) -> dict:
        return {
            "plans": [p.to_dict() for p in self.plans],
            "merge_maps": [m.tolist() for m in self.merge_maps],
        }


def plan_from_assign(
    assign,
    p: int,
    g: SpatialGraph | None = None,
    balance_factor: float = 1.3,
    seed: int = 0,
) -> PartitionPlan:
    """The plan of a raw assignment, with its edge cut on g (0.0 without g)."""
    cut = _edge_cut(g, np.asarray(assign)) if g is not None else 0.0
    return PartitionPlan(assign, p, cut, balance_factor, seed)


def uniform_plan(n: int, p: int) -> PartitionPlan:
    """Contiguous chunks of near-equal size; handy for benchmarks and oracles."""
    if not 1 <= p <= n:
        raise InputError(f"p must lie in [1, {n}], got {p}")
    bounds = np.linspace(0, n, p + 1).round().astype(np.int64)
    return plan_from_assign(np.repeat(np.arange(p), np.diff(bounds)), p)


def _edge_cut(g: SpatialGraph, assign) -> float:
    """Weight of the edges between parts, summed in edge order."""
    src, dst, w = g.edge_arrays()
    return sum(w[assign[src] != assign[dst]].tolist())


# ---------------------------------------------------------------------------
# multilevel k-way partitioning


def partition_kway(
    g: SpatialGraph, p: int, balance_factor: float = 1.3, seed: int = 0
) -> PartitionPlan:
    """Balanced k-way partition minimizing edge cut.

    Coarsens by heavy-edge matching down to max(4p, 64) nodes, grows p
    regions greedily (several seeded restarts, best cut kept), then refines
    with KL/FM passes while uncoarsening. Balance means max subgraph size
    <= balance_factor * ceil(n/p); if that cannot be met the plan is
    returned flagged over_balance with the achieved factor.
    """
    n = g.n
    if not 1 <= p <= n:
        raise InputError(f"p must lie in [1, {n}], got {p}")
    if not (math.isfinite(balance_factor) and balance_factor >= 1):
        raise InputError(f"balance_factor must be a finite number >= 1, got {balance_factor}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if p == 1:
        return plan_from_assign(np.zeros(n, dtype=np.int64), 1, g, balance_factor, seed)
    if p == n:
        return plan_from_assign(np.arange(n, dtype=np.int64), p, g, balance_factor, seed)

    rng = np.random.default_rng(seed)
    level, node_w = g, np.ones(n, dtype=np.int64)
    cap = balance_factor * math.ceil(n / p)

    # coarsening
    levels = []  # (fine graph, fine node_w, fine->coarse map)
    target = max(4 * p, 64)
    while level.n > target:
        cmap, cn = _heavy_edge_matching(level, rng)
        if cn > 0.95 * level.n:
            break
        levels.append((level, node_w, cmap))
        level, node_w = _contract(level, cmap, cn), np.bincount(cmap, node_w, cn).astype(np.int64)

    # initial partition on the coarsest graph, best of a few seeded restarts
    best_assign, best_key = None, None
    for child in rng.spawn(4):
        grown = _region_grow(level, node_w, p, child)
        assign, feasible = _refine_level(level, node_w, grown, p, cap)
        key = (not feasible, _edge_cut(level, assign))
        if best_key is None or key < best_key:
            best_assign, best_key = assign, key
    assign = best_assign

    # uncoarsen and refine at every level
    for fine, fine_w, cmap in reversed(levels):
        assign, _ = _refine_level(fine, fine_w, assign[cmap], p, cap)

    return plan_from_assign(assign, p, g, balance_factor, seed)


def _refine_level(g: SpatialGraph, node_w, assign, p, cap):
    """Rebalance, then FM-refine, one level's assignment. Returns the labels
    as an array, and whether every part keeps the cap."""
    parts = _Parts(g, node_w, assign, p, cap)
    _rebalance(parts)
    _fm_refine(parts)
    return np.array(parts.labels), parts.within_cap(max(parts.part_w))


def _heavy_edge_matching(g: SpatialGraph, rng):
    """Match each node with its heaviest unmatched neighbor, random visit order."""
    nn = g.n
    indptr, indices, weights = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
    match = [-1] * nn
    for u in rng.permutation(nn).tolist():
        if match[u] >= 0:
            continue
        best, best_w = -1, -1.0
        for k in range(indptr[u], indptr[u + 1]):
            v, w = indices[k], weights[k]
            if match[v] >= 0:
                continue
            if w > best_w or (w == best_w and v < best):
                best, best_w = v, w
        if best >= 0:
            match[u] = best
            match[best] = u
        else:
            match[u] = u
    # coarse ids follow each pair's lower node
    lower = np.minimum(np.arange(nn), match)
    coarse_id = np.cumsum(lower == np.arange(nn)) - 1
    return coarse_id[lower], int(coarse_id[-1]) + 1


def _contract(g: SpatialGraph, cmap, cn) -> SpatialGraph:
    """The graph of g's node groups: node cmap[u] holds u, and the edge
    between two groups weighs the edges of g between them, summed in edge
    order."""
    src, dst, w = g.edge_arrays()
    lo = np.minimum(cmap[src], cmap[dst])
    hi = np.maximum(cmap[src], cmap[dst])
    between = lo != hi
    pair, slot = np.unique(lo[between] * cn + hi[between], return_inverse=True)
    return SpatialGraph(cn, pair // cn, pair % cn, np.bincount(slot, weights=w[between]))


def _region_grow(g: SpatialGraph, node_w, p, rng):
    """Grow p regions to the ideal weight, each from a random seed node."""
    nn = g.n
    indptr, indices, weights = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()
    assign = np.full(nn, -1, dtype=np.int64)
    ideal = math.ceil(int(node_w.sum()) / p)
    unassigned = nn
    for part in range(p - 1):
        later_parts = p - part - 1
        cur = int(rng.choice(np.flatnonzero(assign < 0)))
        part_w = 0
        conn = {}
        while True:
            assign[cur] = part
            part_w += int(node_w[cur])
            unassigned -= 1
            conn.pop(cur, None)
            if unassigned <= later_parts or part_w >= ideal:
                break
            for k in range(indptr[cur], indptr[cur + 1]):
                v = indices[k]
                if assign[v] < 0:
                    conn[v] = conn.get(v, 0.0) + weights[k]
            if conn:
                cur = max(conn.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            else:
                cur = int(rng.choice(np.flatnonzero(assign < 0)))
    assign[assign < 0] = p - 1
    return assign


def _conn_table(g: SpatialGraph, assign, p):
    """The node-to-part table, flat: entry [u * p + q] is the weight of the
    edges from node u into part q, summed in CSR order."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    return np.bincount(rows * p + assign[g.indices], weights=g.weights, minlength=g.n * p)


class _Parts:
    """One level's assignment under a part-weight cap, with the state that
    both move rules read, as lists since they read it one entry at a time:
    labels, node and part weights, part sizes, and per node u the row
    rows[u] = {q: edge weight from u into part q} over the parts u touches.
    Weights are > 0, so q is in u's row exactly when u has a neighbour in q,
    and u is on the boundary when its row names a part besides its own. A
    move of u from part a to part q gains rows[u][q] - rows[u][a] (a missing
    entry is 0.0), in _rebalance's scan and in FM's _MoveQueue alike.

    Moving u from part a to part b changes only entries a and b of its
    neighbours' rows. So move() gives each neighbour a copy of its row with
    just those two entries re-summed, walking the neighbour's CSR row with
    `s += w` from 0.0: sum(deg(v) for v near u) plain Python steps. That is
    the order np.bincount accumulates in when the rows are built, so every
    entry has the bits a full rebuild would give. move() returns the rows it
    replaced, and undo() puts them back, so a rollback restores bits instead
    of re-summing them.
    """

    def __init__(self, g: SpatialGraph, node_w, assign, p, cap):
        self.g, self.p, self.cap = g, p, cap
        self.labels = assign.tolist()
        self.weight = node_w.tolist()
        self.part_w = np.bincount(assign, weights=node_w, minlength=p).tolist()
        self.part_count = np.bincount(assign, minlength=p).tolist()
        table = _conn_table(g, assign, p)
        cells = np.flatnonzero(table)
        self.rows = [{} for _ in range(g.n)]
        for c, w in zip(cells.tolist(), table[cells].tolist()):
            self.rows[c // p][c % p] = w
        # the CSR arrays as lists, for move()'s walks
        self._csr = g.indptr.tolist(), g.indices.tolist(), g.weights.tolist()

    def within_cap(self, weight):
        """Whether a part of this weight keeps the cap."""
        return weight <= self.cap + 1e-9

    def move(self, u: int, to: int):
        """Move node u to part `to` and refresh its neighbours' rows.

        Returns the record undo() takes: (u, old part, [(v, v's replaced
        row), ...]).
        """
        labels, rows, (indptr, indices, weights) = self.labels, self.rows, self._csr
        part_w, part_count, w = self.part_w, self.part_count, self.weight[u]
        frm = labels[u]
        labels[u] = to
        part_w[frm] -= w
        part_w[to] += w
        part_count[frm] -= 1
        part_count[to] += 1
        replaced = []
        for v in indices[indptr[u] : indptr[u + 1]]:
            w_frm = w_to = 0.0
            for k in range(indptr[v], indptr[v + 1]):
                there = labels[indices[k]]
                if there == frm:
                    w_frm += weights[k]
                elif there == to:
                    w_to += weights[k]
            old = rows[v]
            replaced.append((v, old))
            row = rows[v] = old.copy()
            row[to] = w_to
            if w_frm:
                row[frm] = w_frm
            else:
                del row[frm]
        return u, frm, replaced

    def undo(self, record):
        """Reverse the move() that returned `record`; undo the latest first."""
        u, frm, replaced = record
        to = self.labels[u]
        self.labels[u] = frm
        self.part_w[to] -= self.weight[u]
        self.part_w[frm] += self.weight[u]
        self.part_count[to] -= 1
        self.part_count[frm] += 1
        for v, row in replaced:
            self.rows[v] = row


class _MoveQueue:
    """One FM pass's legal moves, best first, in the order of a scan over
    all of them: highest gain, then lowest node, then lowest part.

    The heap holds entries (-gain, u, q, stamp, spread), made from u's row
    and part a. There is one entry per part q that u touches, with gain
    rows[u][q] - rows[u][a]. One `spread` entry stands for the parts u does
    not touch, which all have gain -rows[u][a]; its q is the lowest of them
    that may still take u, found when it is popped. After a move only the
    moved node's neighbours get new entries, under a new stamp, and the older
    ones are dropped when popped.

    The legality rule is kept here: u is unlocked and on the boundary (only
    such nodes get entries, in `_entries`), its part keeps at least one node
    and the target stays within the cap (`_wait`, checked on popping, since
    part sizes and weights change under an entry). An entry that fails waits
    until a move could make it legal: its source part gains a node, its
    target part loses one and it then fits, or, for a spread entry that no
    part would take, any part loses one. Then it returns to the heap.
    """

    def __init__(self, parts: _Parts):
        self.parts = parts
        n, p = parts.g.n, parts.p
        self.stamp = [0] * n
        self.locked = [False] * n
        self.joined = [[] for _ in range(p)]  # entries waiting for a node to join part q
        self.left = [[] for _ in range(p)]  # ... for a node to leave part q
        self.left_any = []  # spread entries with no part to take them: any part losing a node
        self.heap = [entry for u in range(n) for entry in self._entries(u)]
        heapq.heapify(self.heap)

    def _entries(self, u):
        """u's entries under its current stamp; none unless it is unlocked
        and on the boundary."""
        row, a = self.parts.rows[u], self.parts.labels[u]
        if len(row) == (a in row) or self.locked[u]:
            return []
        here, stamp = row.get(a, 0.0), self.stamp[u]
        out = [(here - w, u, q, stamp, False) for q, w in row.items() if q != a]
        q = 0
        while q == a or q in row:
            q += 1
        if q < self.parts.p:
            out.append((here, u, q, stamp, True))
        return out

    def _wait(self, u, q):
        """None when moving u to part q is legal, else the list it waits on."""
        parts = self.parts
        a = parts.labels[u]
        if parts.part_count[a] < 2:
            return self.joined[a]
        if not parts.within_cap(parts.part_w[q] + parts.weight[u]):
            return self.left[q]
        return None

    def pop(self):
        """The best legal move as (gain, u, to), or None."""
        parts, heap, stamps, pop = self.parts, self.heap, self.stamp, heapq.heappop
        while heap:
            entry = pop(heap)
            key, u, q, stamp, spread = entry
            if stamp != stamps[u]:
                continue
            row, a = parts.rows[u], parts.labels[u]
            if spread:
                # the lowest untouched part from q on that may take u
                for q in range(entry[2], parts.p):
                    if q != a and q not in row:
                        wait = self._wait(u, q)
                        if wait is not self.left[q]:  # legal, or u's part is too small
                            break
                else:
                    wait = self.left_any
                if wait is None and q != entry[2]:
                    heapq.heappush(heap, (key, u, q, stamp, True))
                    continue
            else:
                wait = self._wait(u, q)
            if wait is not None:
                wait.append(entry)
                continue
            return row.get(q, 0.0) - row.get(a, 0.0), u, q
        return None

    def moved(self, record):
        """Account for parts.move()'s `record`: lock the moved node, remake
        its neighbours' entries and requeue those the move may have freed."""
        u, frm, replaced = record
        heap, stamp, locked, entries = self.heap, self.stamp, self.locked, self._entries
        push = heapq.heappush
        locked[u] = True
        stamp[u] += 1
        for v, _ in replaced:
            if not locked[v]:
                stamp[v] += 1
                for entry in entries(v):
                    push(heap, entry)
        # part frm lost a node: its waiting entries that fit now return
        left, wait = self.left[frm], []
        for entry in left:
            if entry[3] == stamp[entry[1]]:
                if self._wait(entry[1], frm) is left:
                    wait.append(entry)
                else:
                    push(heap, entry)
        self.left[frm] = wait
        # and u's new part gained one; a spread entry may find any part
        for wait in (self.joined[self.parts.labels[u]], self.left_any):
            for entry in wait:
                if entry[3] == stamp[entry[1]]:
                    push(heap, entry)
            wait.clear()


_FM_PASSES = 10  # at most this many passes per level


def _fm_refine(parts: _Parts):
    """KL/FM passes: greedy single-node moves with best-prefix rollback.

    Moves may go downhill inside a pass; the pass keeps the prefix with the
    best total gain. Only boundary nodes move. Balance and non-emptiness are
    never violated. A _MoveQueue picks each move, the one a scan over every
    legal move would pick: ties break on (gain, lowest node, lowest target
    part), so runs are deterministic. The rollback undoes moves from their
    records.
    """
    if not parts.within_cap(min(parts.part_w) + min(parts.weight)):
        return  # every part is too full for the lightest node: no move is legal
    nn = parts.g.n
    move_limit = nn if nn <= 128 else max(128, nn // 8)
    for _ in range(_FM_PASSES):
        queue = _MoveQueue(parts)
        moves = []
        improvement = 0.0
        best_improvement = 0.0
        best_prefix = 0
        while len(moves) < move_limit:
            best = queue.pop()
            if best is None:
                break
            gain, u, to = best
            moves.append(parts.move(u, to))
            queue.moved(moves[-1])
            improvement += gain
            if improvement > best_improvement + 1e-12:
                best_improvement = improvement
                best_prefix = len(moves)
        for record in reversed(moves[best_prefix:]):
            parts.undo(record)
        if best_improvement <= 1e-12:
            break


def _rebalance(parts: _Parts):
    """Move nodes out of overweight parts, cheapest cut increase first: of
    the heaviest part's nodes and the parts that would keep the cap, the
    highest gain (see _Parts), ties to the lowest node, then the lowest part."""
    labels, rows, weight, part_w = parts.labels, parts.rows, parts.weight, parts.part_w
    for _ in range(4 * parts.g.n):
        over = int(np.argmax(part_w))
        if parts.within_cap(part_w[over]) or parts.part_count[over] < 2:
            return
        movable = [u for u, a in enumerate(labels) if a == over]
        best = None
        for u in movable:
            row, w = rows[u], weight[u]
            here = row.get(over, 0.0)
            for q in range(parts.p):
                if q != over and parts.within_cap(part_w[q] + w):
                    gain = row.get(q, 0.0) - here
                    if best is None or gain > best[0]:
                        best = gain, u, q
        if best is None:
            # no receiver under the cap; shift to the lightest part if that
            # still improves the imbalance, otherwise give up
            lightest = int(np.argmin(part_w))
            lightest_node = min(movable, key=weight.__getitem__)
            if part_w[lightest] + weight[lightest_node] >= part_w[over]:
                return
            best = (0.0, lightest_node, lightest)
        _, u, to = best
        parts.move(u, to)


# ---------------------------------------------------------------------------
# multiscale series


def build_scale_series(
    g: SpatialGraph,
    p0: int,
    l: int,
    balance_factor: float = 1.3,
    seed: int = 0,
) -> ScaleSeries:
    """Partition once at p0 subgraphs, then pair-merge level by level.

    Each level pairs the parts of the one before on their part graph (see
    _merge_map), giving p_i = ceil(p_{i-1} / 2).
    """
    if p0 < 1 or l < 1:
        raise InputError("p0 and l must be >= 1")
    if p0 < 2 ** (l - 1):
        raise InputError(
            f"p0={p0} cannot sustain {l} levels; maximum feasible levels: {p0.bit_length()}"
        )
    plans = [partition_kway(g, p0, balance_factor, seed)]
    for _ in range(1, l):
        prev = plans[-1]
        mapping = _merge_map(_contract(g, prev.assign, prev.p))
        assign = mapping[prev.assign]
        plans.append(plan_from_assign(assign, int(mapping.max()) + 1, g, balance_factor, seed))
    return ScaleSeries(plans=plans)


def _merge_map(parts: SpatialGraph) -> np.ndarray:
    """Merge map of one level from its part graph: a node per part, an edge
    per pair of parts that touch, weighing their cut.

    Pairs are taken in order of falling cut weight, ties to the lowest
    (a, b), whenever both ends are still free; this is the greedy that
    repeatedly merges the heaviest remaining pair. The parts left free then
    pair up in index order, and an odd leftover stays alone. Group ids
    follow each group's lowest member.
    """
    a, b, w = parts.edge_arrays()
    order = np.lexsort((b, a, -w))
    ids = np.arange(parts.n)
    partner = ids.copy()
    for i, j in zip(a[order].tolist(), b[order].tolist()):
        if partner[i] == i and partner[j] == j:
            partner[i], partner[j] = j, i
    free = np.flatnonzero(partner == ids)
    pairs = free[: free.size // 2 * 2].reshape(-1, 2)
    partner[pairs[:, 0]], partner[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    lower = np.minimum(ids, partner)
    group = np.cumsum(lower == ids) - 1
    return group[lower]


# ---------------------------------------------------------------------------
# subgraph row order


def apply_plan(x, plan: PartitionPlan) -> Tensor:
    """Reorder node rows (..., n, d) so each subgraph's rows are consecutive.

    Subgraph i's nodes come i-th, in ascending node order; no padded row is
    built.
    """
    return permute_rows(x, plan.order)


def revert_plan(y, plan: PartitionPlan) -> Tensor:
    """Inverse of apply_plan: rows in subgraph order back to node order."""
    return permute_rows(y, plan.inverse)


# ---------------------------------------------------------------------------
# plan files


def save_plans(path, series: ScaleSeries):
    """Write the series as JSON for inspection; nothing in sbaformer reads it back."""
    write_json(path, series.to_dict())
