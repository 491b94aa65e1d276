import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_tiler import (
    CentralFamily,
    ConnectedFamily,
    audit_packed,
    audit_saturated,
    build_graph,
    packed_and_saturated,
)
from ergodic_tiler.packing import DEFAULT_BUDGET, SearchBudget

MAX_VERTICES = DEFAULT_BUDGET.exhaustive_limit


@st.composite
def small_instances(draw):
    """Graph of at most exhaustive_limit vertices (so every component is
    searched completely), log-weights, values and a pack threshold."""
    n = draw(st.integers(1, MAX_VERTICES))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    log_weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    p = draw(st.floats(0.05, 2.0))
    graph, cocycle = build_graph(edges, log_weights)
    return graph, cocycle, np.array(values), p


@st.composite
def large_instances(draw):
    """Connected graph of 13 to 60 vertices (a random tree plus extra edges),
    too large for the complete search, so the greedy growth builds the cells."""
    n = draw(st.integers(MAX_VERTICES + 1, 60))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    log_weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    p = draw(st.floats(0.05, 2.0))
    graph, cocycle = build_graph(sorted(edges), log_weights)
    return graph, cocycle, np.array(values), p


def check_packed_and_saturated(graph, cocycle, family, p, budget=DEFAULT_BUDGET):
    part = packed_and_saturated(graph, cocycle, family, p, budget)
    members = np.concatenate(part.cells) if part.cell_count else np.empty(0, dtype=np.int64)
    assert members.size == np.unique(members).size
    comp_sizes = np.bincount(graph.component_id)
    for cell in part.cells:
        # the unit cap binds the greedy growth; a complete search is bounded
        # by its component instead
        small = comp_sizes[graph.component_id[cell[0]]] <= budget.exhaustive_limit
        assert small or len(cell) <= budget.max_units
        assert family.contains(graph, cocycle, cell)
    assert audit_packed(graph, cocycle, family, part, p, budget) is None
    assert audit_saturated(graph, cocycle, family, part, budget) is None


class TestPackedAndSaturated:
    @settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_connected_family(self, case):
        graph, cocycle, _, p = case
        check_packed_and_saturated(graph, cocycle, ConnectedFamily(), p)

    @settings(max_examples=150, deadline=None)
    @given(small_instances(), st.floats(0.05, 1.0), st.floats(1.0, 3.0))
    def test_central_family(self, case, lam, min_ratio):
        graph, cocycle, values, p = case
        check_packed_and_saturated(graph, cocycle, CentralFamily(values, lam, min_ratio), p)


GREEDY_BUDGETS = [SearchBudget(max_units=8), SearchBudget(max_units=24)]


@pytest.mark.parametrize("budget", GREEDY_BUDGETS, ids=lambda b: f"max_units={b.max_units}")
class TestGreedyPackedAndSaturated:
    @settings(max_examples=60, deadline=None)
    @given(case=large_instances())
    def test_connected_family(self, budget, case):
        graph, cocycle, _, p = case
        check_packed_and_saturated(graph, cocycle, ConnectedFamily(), p, budget)

    @settings(max_examples=60, deadline=None)
    @given(case=large_instances(), lam=st.floats(0.05, 1.0), min_ratio=st.floats(1.0, 3.0))
    def test_central_family(self, budget, case, lam, min_ratio):
        graph, cocycle, values, p = case
        check_packed_and_saturated(graph, cocycle, CentralFamily(values, lam, min_ratio), p, budget)
