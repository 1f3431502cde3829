"""No scale cliffs: a stage's deterministic costs grow at most 6x when n grows 4x.

A stage runs on a 16x16 grid and on a 32x32 grid, with p0 scaled so that
the subgraph size stays at 32 nodes, and two costs that do not depend on the
machine's speed are compared: the count of Python-level and builtin calls
(cProfile's total) and the tracemalloc peak. Linear growth reads 4x and
quadratic 16x; 6x leaves room for log factors and lets neither an O(n^2)
temporary nor an O(n^2) loop through.
"""
import cProfile
import pstats
import tracemalloc

from sbaformer.data import make_grid_graph
from sbaformer.partition import build_scale_series

GROWTH = 6.0  # the bound on either cost's ratio between the two sizes


def costs(stage):
    """(call count, tracemalloc peak in bytes) of one stage() call."""
    profile = cProfile.Profile()
    profile.runcall(stage)
    calls = pstats.Stats(profile).total_calls
    tracemalloc.start()
    try:
        stage()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return calls, peak


def growth(stage_at):
    """Each cost's ratio from the 16x16 grid (p0=8) to the 32x32 one (p0=32)."""
    stage_at(make_grid_graph(4, 4), 4)()  # first-call costs land outside the measure
    small = costs(stage_at(make_grid_graph(16, 16), 8))
    large = costs(stage_at(make_grid_graph(32, 32), 32))
    return {name: b / a for name, a, b in zip(("calls", "peak"), small, large)}


def test_series_costs_grow_at_most_6x_when_n_grows_4x():
    ratios = growth(lambda g, p0: lambda: build_scale_series(g, p0, 3))
    assert all(r <= GROWTH for r in ratios.values()), ratios
