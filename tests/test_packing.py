import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_tiler import (
    CentralFamily,
    ConnectedFamily,
    EquivRel,
    ModelSpec,
    Prepartition,
    WeightedGraph,
    audit_packed,
    audit_saturated,
    build_graph,
    generate_model,
    packed_and_saturated,
    quotient,
)
from ergodic_tiler.packing import (
    DEFAULT_BUDGET,
    MAX_ROUNDS,
    SearchBudget,
    find_pack,
    packed,
    saturate,
)
from ergodic_tiler.tiling import cutting_one_side_delta, linf_reduction, schedule_constants

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


@st.composite
def multi_component_instances(draw):
    """Graph of 13 to 90 vertices in one to three components, each a random
    tree plus extra edges, so small components meet the complete search and
    large ones the greedy growth."""
    n = draw(st.integers(MAX_VERTICES + 1, 90))
    cuts = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=2))
    bounds = [0, *sorted(cuts), n]
    edges = set()
    for a, b in zip(bounds, bounds[1:]):
        edges |= {(draw(st.integers(a, v - 1)), v) for v in range(a + 1, b)}
        extra = draw(st.lists(st.tuples(st.integers(a, b - 1), st.integers(a, b - 1)), max_size=b - a))
        edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    log_weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    p = draw(st.floats(0.05, 2.0))
    graph, cocycle = build_graph(sorted(edges), log_weights)
    return graph, cocycle, np.array(values), p


def reference_packed_and_saturated(graph, cocycle, family, p, budget):
    """packed_and_saturated with every step on a fresh search: packed at p/2,
    then rounds of saturate and find_pack, a found pack installed by label."""
    current = packed(graph, cocycle, family, p / 2.0, budget)
    for _ in range(MAX_ROUNDS):
        current = saturate(graph, cocycle, family, current, budget)
        cert = find_pack(graph, cocycle, family, current, p, budget)
        if cert is None:
            return current
        labels = current.cell_of.copy()
        labels[cert.vertices] = current.cell_count
        current = Prepartition.from_labels(labels)
    raise AssertionError("no joint fixpoint")


SHARED_SEARCH_BUDGETS = [SearchBudget(12, 8), SearchBudget(12, 24), SearchBudget(6, 64)]


@pytest.mark.parametrize(
    "budget", SHARED_SEARCH_BUDGETS, ids=lambda b: f"limit={b.exhaustive_limit},units={b.max_units}"
)
class TestOneSearchMatchesFreshSearches:
    @settings(max_examples=40, deadline=None)
    @given(case=multi_component_instances())
    def test_connected_family(self, budget, case):
        graph, cocycle, _, p = case
        family = ConnectedFamily()
        got = packed_and_saturated(graph, cocycle, family, p, budget)
        assert got == reference_packed_and_saturated(graph, cocycle, family, p, budget)

    @settings(max_examples=40, deadline=None)
    @given(case=multi_component_instances(), lam=st.floats(0.05, 1.0), min_ratio=st.floats(1.0, 3.0))
    def test_central_family(self, budget, case, lam, min_ratio):
        graph, cocycle, values, p = case
        family = CentralFamily(values, lam, min_ratio)
        got = packed_and_saturated(graph, cocycle, family, p, budget)
        assert got == reference_packed_and_saturated(graph, cocycle, family, p, budget)


def test_chains_admitting_nothing_grow_once_per_stage(monkeypatch):
    """free_tree 4 admits no cell at stage 1, so packing at p/2 already grows
    every chain; saturation and the p re-check then grow none again."""
    model = generate_model(ModelSpec("free_tree", 4))
    graph, mu, eps = model.graph, model.measure, 0.05
    f = np.asarray(model.values.values, dtype=float)
    g = linf_reduction(f - float(np.dot(mu.atoms, f)), mu, eps).values
    sup = float(np.abs(g).max())
    lambdas, ratios, packs = schedule_constants(cutting_one_side_delta(eps, sup), sup, 1)
    q = quotient(graph, model.cocycle, g, EquivRel.identity(graph.vertex_count))
    family = CentralFamily(q.values, lambdas[1], ratios[1])
    budget = SearchBudget(max_units=128)

    calls = [0]
    neighbors = WeightedGraph.neighbors

    def counted(self, v):
        calls[0] += 1
        return neighbors(self, v)

    monkeypatch.setattr(WeightedGraph, "neighbors", counted)
    assert packed(q.graph, q.cocycle, family, packs[1] / 2.0, budget).cell_count == 0
    pack_calls, calls[0] = calls[0], 0
    assert packed_and_saturated(q.graph, q.cocycle, family, packs[1], budget).cell_count == 0
    assert calls[0] == pack_calls > 0
