import hashlib
import tracemalloc
from bisect import bisect_left, insort
from math import inf, log
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergodic_tiler import (
    CentralFamily,
    ConnectedFamily,
    CrossComponent,
    EquivRel,
    ModelSpec,
    Prepartition,
    WeightedGraph,
    audit_packed,
    audit_saturated,
    build_graph,
    family_S_membership,
    generate_model,
    is_connected_set,
    packed_and_saturated,
    quotient,
    run_tiling,
)
from ergodic_tiler import packing
from ergodic_tiler.packing import (
    DEFAULT_BUDGET,
    MAX_ROUNDS,
    SearchBudget,
    _Search,
    _pick,
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
def multi_component_instances(draw, log_weight=st.floats(-2.0, 2.0)):
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
    log_weights = draw(st.lists(log_weight, min_size=n, max_size=n))
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


@settings(max_examples=150, deadline=None)
@given(
    case=small_instances() | large_instances(),
    lam=st.floats(0.005, 0.5),
    min_ratio=st.floats(1.0, 8.0),
    narrow=st.just(1.0) | st.floats(0.0, 1.0),
    widen=st.just(1.0) | st.floats(1.0, 4.0),
    other_p=st.floats(0.01, 4.0),
    budget=st.sampled_from([DEFAULT_BUDGET, *GREEDY_BUDGETS]),
)
def test_a_family_inside_one_that_admitted_nothing_admits_nothing(
    case, lam, min_ratio, narrow, widen, other_p, budget
):
    """run_tiling reuses an empty stage for the next stage, whose family
    has a narrower window and a higher ratio floor: a search that installs
    no cell installs none for such a family either, at any threshold."""
    graph, cocycle, values, p = case
    if packed_and_saturated(graph, cocycle, CentralFamily(values, lam, min_ratio), p, budget).cell_count:
        return
    # a family's window must be positive
    assume(lam * narrow > 0)
    family = CentralFamily(values, lam * narrow, min_ratio * widen)
    assert packed_and_saturated(graph, cocycle, family, other_p, budget).cell_count == 0


@pytest.fixture
def neighbor_calls(monkeypatch):
    """A one-item list counting WeightedGraph.neighbors calls from here on."""
    calls = [0]
    neighbors = WeightedGraph.neighbors

    def counted(self, v):
        calls[0] += 1
        return neighbors(self, v)

    monkeypatch.setattr(WeightedGraph, "neighbors", counted)
    return calls


def test_chains_admitting_nothing_grow_once_per_stage(neighbor_calls):
    """free_tree 4 admits no cell at stage 1, so packing at p/2 already grows
    every chain; saturation and the p re-check then grow none again. Each of
    the 161 chains fills the 128-unit cap, and its last vertex reads no
    neighbours."""
    model = generate_model(ModelSpec("free_tree", 4))
    graph, mu, eps = model.graph, model.measure, 0.05
    f = np.asarray(model.values.values, dtype=float)
    g = linf_reduction(f - float(np.dot(mu.atoms, f)), mu, eps).values
    sup = float(np.abs(g).max())
    lambdas, ratios, packs = schedule_constants(cutting_one_side_delta(eps, sup), sup, 1)
    q = quotient(graph, model.cocycle, g, EquivRel.identity(graph.vertex_count))
    family = CentralFamily(q.values, lambdas[1], ratios[1])
    budget = SearchBudget(max_units=128)

    neighbor_calls[0] = 0
    assert packed(q.graph, q.cocycle, family, packs[1] / 2.0, budget).cell_count == 0
    pack_calls, neighbor_calls[0] = neighbor_calls[0], 0
    assert pack_calls == 161 * 127
    assert packed_and_saturated(q.graph, q.cocycle, family, packs[1], budget).cell_count == 0
    assert neighbor_calls[0] == pack_calls


def test_a_full_chain_reads_no_neighbours(neighbor_calls):
    """A chain anchored at a cell of exactly max_units vertices is full after
    its first unit, so it ends without reading a neighbour; a chain from a
    free vertex reads those of every vertex but the one that fills it."""
    graph, cocycle = build_graph([(v, v + 1) for v in range(199)], [0.0] * 200)
    cell = np.arange(40, 56)
    search = _Search(graph, cocycle, ConnectedFamily(), SearchBudget(max_units=16), [cell])
    neighbor_calls[0] = 0
    grown = []
    assert list(search.chain(40, None, 0.0, grown)) == []
    assert grown == cell.tolist()
    assert neighbor_calls[0] == 0
    grown = []
    assert list(search.chain(0, None, 0.0, grown)) == list(range(1, 17))
    assert grown == list(range(16))
    assert neighbor_calls[0] == 15


def test_a_chain_ends_once_the_ratio_floor_rules_out_every_snapshot(neighbor_calls):
    """On a 40-vertex path whose vertex 20 carries nearly all the mass, a
    ratio floor of 4 rejects every set holding vertex 20. Values of 1 keep
    the light vertices unbalanced and put them first in the pick, so the
    chain from vertex 15 takes 14 down to 0, then 16 up to 20, and ends
    there: vertex 20 reads no neighbours, nothing is yielded and the anchor
    is dead. Without the stop the chain grows over the whole path."""
    log_weights = [0.0] * 40
    log_weights[20] = 10.0
    graph, cocycle = build_graph([(v, v + 1) for v in range(39)], log_weights)
    family = CentralFamily(np.ones(40), 0.5, 4.0)
    search = _Search(graph, cocycle, family, SearchBudget(max_units=64))
    neighbor_calls[0] = 0
    grown = []
    assert list(search.chain(15, None, 0.0, grown)) == []
    assert grown == [15, *range(14, -1, -1), *range(16, 21)]
    assert neighbor_calls[0] == 20
    assert search.dead == {15}

    search.mass_bound[:] = inf
    neighbor_calls[0] = 0
    grown = []
    assert list(search.chain(15, None, 0.0, grown)) == []
    assert len(grown) == 40
    assert neighbor_calls[0] == 40


def test_bernoulli_13_grows_no_chain_past_its_ratio_floor(neighbor_calls):
    """bernoulli-13 keeps its 66, 1 and 0 cells. Its stage-3 contraction of
    176 units admits nothing at ratio floor 64, and its chains end at a heavy
    unit instead of growing over the whole contraction: the run reads 57,355
    neighbour lists, against 88,107 when every chain grows to its end."""
    model = generate_model(ModelSpec("bernoulli", 13, p=0.3, q=0.5))
    neighbor_calls[0] = 0
    state, _ = run_tiling(model, eps=0.05, max_stages=8, raise_on_stall=False)
    assert [part.cell_count for part in state.prepartitions] == [66, 1, 0]
    assert neighbor_calls[0] == 57_355


def test_odometer_16_reads_about_one_neighbour_list_per_vertex(neighbor_calls, monkeypatch):
    """odometer-16 converges at stage 1 with 512 cells. Its search reads
    65,560 neighbour lists for 65,536 vertices and asks the oracle 512
    times, admitting every set it is asked about."""
    contains = CentralFamily.contains
    answers = []

    def counted(self, graph, cocycle, vertices):
        answers.append(contains(self, graph, cocycle, vertices))
        return answers[-1]

    monkeypatch.setattr(CentralFamily, "contains", counted)
    model = generate_model(ModelSpec("odometer", 16, p=0.4))
    neighbor_calls[0] = 0
    state, _ = run_tiling(model, eps=0.05, max_stages=8, raise_on_stall=False)
    assert [part.cell_count for part in state.prepartitions] == [512]
    assert neighbor_calls[0] == 65_560
    assert (len(answers), sum(answers)) == (512, 512)


class UnboundedSearch(_Search):
    """A search whose chains never end on the ratio floor."""

    def __init__(self, *args):
        super().__init__(*args)
        self.mass_bound[:] = inf


@st.composite
def ratio_floor_searches(draw):
    """A graph of one to three components with log-weights over 80 natural
    orders of magnitude, some connected cells, either family with a ratio
    floor of 1 to 64, a greedy budget, and the p, max_cells, anchor_at_cells
    and last to query candidates at."""
    graph, cocycle, values, p = draw(multi_component_instances(st.floats(-40.0, 40.0)))
    relation = draw_connected_classes(draw, graph)
    classes = [c for c in relation.classes if len(c) > 1]
    chosen = draw(st.sets(st.integers(0, len(classes) - 1))) if classes else set()
    cells = [classes[i] for i in sorted(chosen)]
    if draw(st.booleans()):
        family = ConnectedFamily()
    else:
        family = CentralFamily(values, draw(st.floats(0.05, 1.0)), draw(st.floats(1.0, 64.0)))
    budget = SearchBudget(max_units=draw(st.sampled_from([8, 24, 64])))
    query = (draw(st.sampled_from([None, 1])), draw(st.booleans()), draw(st.booleans()))
    return graph, cocycle, family, cells, budget, p, *query


def sum_order_case():
    """The path 1, 2, ..., 14, 0, 15, where vertex 0 weighs 1, vertices 1 to
    14 about 0.9 * 2**-53 each and vertex 15 about 1.6 * 2**-53. Summed from
    vertex 0 up, as bincount does, the total rounds to 1 + 2 * 2**-53. The
    chain from vertex 1 sums the light vertices first: its mass is
    1 + 12 * 2**-53 once it takes vertex 0, below the floor 1 + 14 * 2**-53,
    and reaches the floor with vertex 15. Values of 1 off vertex 0 leave the
    sets without it unbalanced, so the whole path is the only candidate, and
    the chain reaches it only if the mass bound exceeds the bincount total
    by a margin."""
    u = 2.0**-53
    edges = [(v, v + 1) for v in range(1, 14)] + [(14, 0), (0, 15)]
    graph, cocycle = build_graph(edges, [0.0] + [log(0.9 * u)] * 14 + [log(1.6 * u)])
    family = CentralFamily([0.0] + [1.0] * 15, 0.5, 1.0 + 14 * u)
    return graph, cocycle, family, [], DEFAULT_BUDGET, 1.0, None, False, False


@settings(max_examples=100, deadline=None)
@given(ratio_floor_searches())
@example(sum_order_case())
def test_ending_chains_on_the_ratio_floor_changes_no_result(case):
    """Every component's candidate stream and packed_and_saturated are the
    same with the ratio floor stop and without it (a mass bound of inf)."""
    graph, cocycle, family, cells, budget, p, max_cells, anchor_at_cells, last = case
    for comp in range(graph.component_count):
        streams = [
            [c.tolist() for c in search.candidates(comp, max_cells, p, anchor_at_cells, last)]
            for search in (
                _Search(graph, cocycle, family, budget, cells),
                UnboundedSearch(graph, cocycle, family, budget, cells),
            )
        ]
        assert streams[0] == streams[1]
    got = packed_and_saturated(graph, cocycle, family, p, budget)
    with mock.patch.object(packing, "_Search", UnboundedSearch):
        expected = packed_and_saturated(graph, cocycle, family, p, budget)
    assert got.cell_of.tobytes() == expected.cell_of.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda g, c, fam, part: find_pack(g, c, fam, part, 1.0),
        lambda g, c, fam, part: saturate(g, c, fam, part),
        lambda g, c, fam, part: audit_packed(g, c, fam, part, 1.0),
        lambda g, c, fam, part: audit_saturated(g, c, fam, part),
    ],
    ids=["find_pack", "saturate", "audit_packed", "audit_saturated"],
)
def test_a_cell_across_components_is_an_error(call):
    """The search runs one component at a time, so a given cell that spans
    two is refused by name rather than crashing the search."""
    graph, cocycle = build_graph([(0, 1), (2, 3)], [0.0] * 4)
    part = Prepartition.from_cells([np.array([1, 2])], 4)
    with pytest.raises(CrossComponent, match="cell starting at vertex 1 spans components"):
        call(graph, cocycle, ConnectedFamily(), part)


def test_a_search_copies_no_per_vertex_array():
    """Building a search and growing a chain on a 65,536-vertex cycle
    allocates the search's own per-vertex arrays and little more: its greedy
    steps read those arrays through views, not through copies."""
    n = 1 << 16
    rng = np.random.default_rng(0)
    graph, cocycle = build_graph([(v, (v + 1) % n) for v in range(n)], rng.normal(size=n).tolist())
    family = CentralFamily(rng.normal(size=n), 0.5, 2.0)
    tracemalloc.start()
    try:
        search = _Search(graph, cocycle, family, DEFAULT_BUDGET)
        grown = []
        list(search.chain(0, None, 0.5, grown))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grown) == DEFAULT_BUDGET.max_units
    own = sum(a.nbytes for a in (search.head, search.cell_of, search.nw, search.fnw))
    assert peak < own + 256 * 1024


def mask_enumerator(search, members, max_cells, p):
    """The complete search as every unit mask of a component, a DFS per mask
    to drop the disconnected ones, and one sort of all survivors: the
    reference for the lazy enumeration of connected unit sets."""
    units = np.unique(search.head[members]).tolist()
    k = len(units)
    pos = {u: i for i, u in enumerate(units)}
    unit_adj = [set() for _ in range(k)]
    for i, u in enumerate(units):
        for v in search.unit_vertices(u):
            for nb in search.graph.neighbors(v):
                j = pos[int(search.head[nb])]
                if j != i:
                    unit_adj[i].add(j)
    is_cell = [bool(search.cell_of[u] >= 0) for u in units]
    masses = [search.unit_stats(u)[1] for u in units]

    found = []
    for mask in range(1, 1 << k):
        chosen = [i for i in range(k) if mask >> i & 1]
        if max_cells is not None and sum(is_cell[i] for i in chosen) > max_cells:
            continue
        csel = set(chosen)
        seen = {chosen[0]}
        stack = [chosen[0]]
        while stack:
            i = stack.pop()
            for j in unit_adj[i]:
                if j in csel and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(chosen):
            continue
        new_mass = sum(masses[i] for i in chosen if not is_cell[i])
        old_mass = sum(masses[i] for i in chosen if is_cell[i])
        if new_mass <= 0.0 or new_mass < p * old_mass:
            continue
        cand = np.array(
            sorted(int(v) for i in chosen for v in search.unit_vertices(units[i])), dtype=np.int64
        )
        if search.family.contains(search.graph, search.cocycle, cand):
            found.append(cand)
    found.sort(key=lambda a: (int(a[0]), len(a), tuple(int(x) for x in a)))
    return found


@st.composite
def complete_searches(draw):
    """A search over a graph of at most exhaustive_limit vertices, with or
    without cells (disjoint vertex sets inside one component each, connected
    or not), of either family, and a max_cells and p to query it at."""
    graph, cocycle, values, _ = draw(small_instances())
    n = graph.vertex_count
    cells = []
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        groups = {}
        for v, label in enumerate(labels):
            if label >= 0:
                groups.setdefault((int(graph.component_id[v]), label), []).append(v)
        cells = [np.array(vs, dtype=np.int64) for vs in groups.values()]
    if draw(st.booleans()):
        family = ConnectedFamily()
    else:
        family = CentralFamily(values, draw(st.floats(0.05, 1.0)), draw(st.floats(1.0, 3.0)))
    search = _Search(graph, cocycle, family, DEFAULT_BUDGET, cells)
    return search, draw(st.sampled_from([None, 0, 1, 2])), draw(st.floats(0.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(complete_searches())
def test_complete_search_matches_the_mask_enumerator(case):
    search, max_cells, p = case
    for comp in range(search.graph.component_count):
        got = [c.tolist() for c in search.candidates(comp, max_cells, p, False)]
        members = search.graph.component_members(comp)
        assert got == [c.tolist() for c in mask_enumerator(search, members, max_cells, p)]


def test_the_complete_search_is_lazy():
    """On a 12-vertex complete graph without cells, the first candidate is
    the singleton of vertex 0, found by one oracle call, not after all 4,095
    connected sets were checked."""

    class CountingFamily(ConnectedFamily):
        calls = 0

        def contains(self, graph, cocycle, vertices):
            self.calls += 1
            return super().contains(graph, cocycle, vertices)

    n = 12
    graph, cocycle = build_graph([(u, v) for u in range(n) for v in range(u + 1, n)], [0.0] * n)
    family = CountingFamily()
    search = _Search(graph, cocycle, family, DEFAULT_BUDGET)
    assert next(search.candidates(0, None, 1.0, False)).tolist() == [0]
    assert family.calls == 1


def seeded_instance(seed):
    """Graph of 13 to 120 vertices: one component of at least 13 vertices
    and up to two of at most 8, each a random tree plus extra edges, in
    random vertex order. Even seeds draw normal values and log-weights; odd
    seeds draw small integer values on log-weights of few levels, so that
    many frontier units tie on their values-weighted mass."""
    rng = np.random.default_rng(seed)
    large = int(rng.integers(MAX_VERTICES + 1, 105))
    sizes = [large, *rng.integers(1, 9, size=int(rng.integers(0, 3))).tolist()]
    bounds = np.concatenate([[0], np.cumsum(rng.permutation(sizes))]).tolist()
    n = bounds[-1]
    edges = set()
    for a, b in zip(bounds, bounds[1:]):
        edges |= {(int(rng.integers(a, v)), v) for v in range(a + 1, b)}
        for u, v in rng.integers(a, b, size=(b - a, 2)).tolist():
            if u != v:
                edges.add((min(u, v), max(u, v)))
    if seed % 2:
        values = rng.integers(-2, 3, size=n).astype(float)
        log_weights = 0.5 * rng.integers(-1, 2, size=n)
    else:
        values = rng.normal(size=n)
        log_weights = rng.normal(size=n)
    graph, cocycle = build_graph(sorted(edges), log_weights.tolist())
    return graph, cocycle, values, float(rng.uniform(0.05, 2.0)), rng


def packing_digest(seeds):
    """sha256 over every seed's packed_and_saturated labels and its direct
    packed, saturate and plain and injective find_pack results. The seed
    picks the kind of values (bit 0), the family (bit 1) and the budget."""
    digest = hashlib.sha256()
    for seed in seeds:
        graph, cocycle, values, p, rng = seeded_instance(seed)
        budget = SHARED_SEARCH_BUDGETS[seed // 4 % len(SHARED_SEARCH_BUDGETS)]
        if seed // 2 % 2:
            family = ConnectedFamily()
        else:
            lam, min_ratio = float(rng.uniform(0.05, 1.0)), float(rng.uniform(1.0, 3.0))
            family = CentralFamily(values, lam, min_ratio)
        joint = packed_and_saturated(graph, cocycle, family, p, budget)
        half = packed(graph, cocycle, family, p / 2.0, budget)
        grown = saturate(graph, cocycle, family, half, budget)
        empty = Prepartition.empty(graph.vertex_count)
        certs = [
            find_pack(graph, cocycle, family, empty, p, budget),
            find_pack(graph, cocycle, family, half, p, budget, injective=True),
        ]
        for part in (joint, half, grown):
            digest.update(part.cell_of.tobytes())
        for cert in certs:
            if cert is None:
                digest.update(b"none")
            else:
                digest.update(cert.vertices.tobytes())
                masses = (cert.absorbed_cells, cert.new_mass, cert.covered_mass)
                digest.update(repr(masses).encode())
    return digest.hexdigest()


def test_packing_digest_is_pinned():
    """The greedy pick with its tie-breaks and the complete search decide
    every cell, so a change to either that alters any result moves this
    digest."""
    pinned = "c7183f88966939f947e9b1a6a982e308af86cab8a62682bb08d9a7068b665bee"
    assert packing_digest(range(60)) == pinned


# tie-heavy fdots: small multiples of a quarter, both signed zeros, and now
# and then an arbitrary float
QUARTERS = st.sampled_from([0.0, -0.0, *(k / 4 for k in range(-4, 5) if k)])
FDOTS = st.one_of(QUARTERS, QUARTERS, QUARTERS, st.floats(-2.0, 2.0))


@st.composite
def frontiers(draw):
    """Frontier entries, some of them then popped, with a pick query whose
    fsum is often the exact negative of a frontier fdot, or halfway between
    two quarters so that units on both sides of the split tie."""
    entries = draw(
        st.dictionaries(
            st.integers(0, 60), st.tuples(st.integers(1, 4), FDOTS, st.booleans()), max_size=40
        )
    )
    gone = draw(st.sets(st.sampled_from(sorted(entries)))) if entries else set()
    negated = [-fdot for _, fdot, _ in entries.values()]
    halves = st.sampled_from([k / 8 for k in range(-7, 8, 2)])
    fsum = draw(st.one_of(FDOTS, halves, st.sampled_from(negated) if negated else FDOTS))
    return entries, gone, fsum, draw(st.integers(0, 4)), draw(st.booleans())


@settings(max_examples=500, deadline=None)
@given(frontiers())
# a tie across the split, won by the smaller unit on the left of it
@example(({5: (1, 0.0, False), 3: (1, -0.25, False)}, set(), 0.125, 4, False))
# signed zeros form one group
@example(({2: (1, -0.0, False), 1: (1, 0.0, False), 0: (3, 0.0, True)}, set(), -0.0, 2, True))
def test_frontier_pick_is_the_smallest_eligible_score_and_unit(case):
    """_pick on a frontier built and thinned as the chain builds and thins its own."""
    entries, gone, fsum, room, no_cells = case
    order, units = [], {}
    for unit, (size, fdot, is_cell) in entries.items():
        insort(order, (fdot, unit))
        units[unit] = ((size, 1.0, fdot, 1.0), is_cell)
    for unit in gone:
        stats = units.pop(unit)[0]
        del order[bisect_left(order, (stats[2], unit))]
    eligible = [
        (abs(fsum + fdot), unit)
        for unit, (size, fdot, is_cell) in entries.items()
        if unit not in gone and size <= room and not (no_cells and is_cell)
    ]
    assert _pick(order, units, fsum, room, no_cells) == (min(eligible)[1] if eligible else None)
    assert sorted(unit for _, unit in order) == sorted(units) == sorted(set(entries) - gone)


def draw_connected_classes(draw, graph):
    """A relation on the graph whose classes are connected: vertices in a
    drawn order each start a class of up to four, absorbing free neighbours
    depth first."""
    n = graph.vertex_count
    labels = np.full(n, -1, dtype=np.int64)
    for k, v in enumerate(draw(st.permutations(range(n)))):
        if labels[v] >= 0:
            continue
        labels[v] = k
        size, members, stack = draw(st.integers(1, 4)), 1, [v]
        while stack and members < size:
            for u in graph.neighbors(stack.pop()).tolist():
                if labels[u] < 0 and members < size:
                    labels[u] = k
                    members += 1
                    stack.append(u)
    return EquivRel.from_labels(labels)


@st.composite
def related_instances(draw):
    """Connected graph of 1 to 14 vertices (a random tree plus extra edges),
    log-weights, values, a relation with connected classes and a vertex set
    U: a union of classes grown along edges, any union of classes, or any
    set of vertices."""
    n = draw(st.integers(1, 14))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    log_weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    graph, cocycle = build_graph(sorted(edges), log_weights)
    relation = draw_connected_classes(draw, graph)
    kind = draw(st.sampled_from(["grown", "classes", "vertices"]))
    if kind == "vertices":
        U = sorted(draw(st.sets(st.integers(0, n - 1))))
    elif kind == "classes":
        chosen = draw(st.sets(st.integers(0, relation.class_count - 1)))
        U = np.flatnonzero(np.isin(relation.class_of, list(chosen))).tolist()
    else:
        U = {draw(st.integers(0, n - 1))}
        for _ in range(draw(st.integers(0, n))):
            outside = sorted({int(u) for v in U for u in graph.neighbors(v)} - U)
            if outside:
                U.add(draw(st.sampled_from(outside)))
        U = np.flatnonzero(np.isin(relation.class_of, relation.class_of[sorted(U)])).tolist()
    return graph, cocycle, values, relation, U


def reference_family_S_membership(graph, values, cocycle, U, lam, min_ratio, relation):
    """The family S on the original graph, in the arithmetic it had before
    it was decided on the contraction: U is a nonempty connected union of
    classes whose weighted average lies in (-lam, lam) and whose mass is at
    least min_ratio times that of its heaviest class. Returns the verdict,
    the average and that ratio; the last two are None when U fails earlier."""
    U = np.unique(np.asarray(U, dtype=np.int64))
    if U.size == 0:
        return False, None, None
    met = np.unique(relation.class_of[U])
    if any(not np.isin(relation.classes[ci], U).all() for ci in met):
        return False, None, None
    if not is_connected_set(graph, U):
        return False, None, None
    w = np.exp(cocycle.log_weight - cocycle.log_weight[U].max())
    average = float(np.dot(np.asarray(values, dtype=float)[U], w[U]) / w[U].sum())
    ratio = float(w[U].sum()) / max(float(w[relation.classes[ci]].sum()) for ci in met)
    return -lam < average < lam and ratio >= min_ratio, average, ratio


def near(x, bound):
    """x lies within a relative 1e-9 of a positive bound."""
    return abs(x - bound) <= 1e-9 * bound


@settings(max_examples=400, deadline=None)
@given(related_instances(), st.floats(0.01, 1.0), st.floats(1.0, 6.0))
def test_membership_commutes_with_contraction(case, lam, min_ratio):
    """U is in S over the relation iff its classes are in S on the
    contraction. Sets whose average or ratio lies within a relative 1e-9 of
    lam or min_ratio are skipped: there the two arithmetics may round to
    different sides."""
    graph, cocycle, values, relation, U = case
    expected, average, ratio = reference_family_S_membership(
        graph, values, cocycle, U, lam, min_ratio, relation
    )
    assume(average is None or not (near(abs(average), lam) or near(ratio, min_ratio)))
    assert family_S_membership(graph, values, cocycle, U, lam, min_ratio, relation) == expected


class RecordingFamily(CentralFamily):
    """A central family that records, at each admits call a chain makes, the
    chain's vertices, its running totals and the verdict."""

    def __init__(self, values, lam, min_ratio):
        super().__init__(values, lam, min_ratio)
        self.grown = []
        self.calls = []

    def admits(self, mass, fdot, wmax):
        verdict = super().admits(mass, fdot, wmax)
        self.calls.append((sorted(self.grown), mass, fdot, wmax, verdict))
        return verdict


@st.composite
def chain_instances(draw):
    """A large instance with some classes of a relation installed as cells."""
    graph, cocycle, values, _ = draw(large_instances())
    relation = draw_connected_classes(draw, graph)
    classes = [c for c in relation.classes if len(c) > 1]
    chosen = draw(st.sets(st.integers(0, len(classes) - 1))) if classes else set()
    return graph, cocycle, values, [classes[i] for i in sorted(chosen)]


@settings(max_examples=60, deadline=None)
@given(chain_instances(), st.floats(0.01, 1.0), st.floats(1.0, 6.0))
def test_admits_on_running_totals_agrees_with_contains(case, lam, min_ratio):
    """Every snapshot of every greedy chain is a connected set whose totals
    the chain keeps relative to its component's heaviest vertex; contains
    takes them afresh relative to the set's own. Snapshots within a relative
    1e-9 of the lam or ratio boundary are skipped: there the two sums may
    round to different sides."""
    graph, cocycle, values, cells = case
    family = RecordingFamily(values, lam, min_ratio)
    search = _Search(graph, cocycle, family, SearchBudget(max_units=24), cells)
    for anchor in np.unique(search.head).tolist():
        family.grown = []
        list(search.chain(anchor, None, 0.0, family.grown))
    plain = CentralFamily(values, lam, min_ratio)
    checked = 0
    for vertices, mass, fdot, wmax, verdict in family.calls:
        if near(abs(fdot), lam * mass) or near(mass, min_ratio * wmax):
            continue
        assert plain.contains(graph, cocycle, vertices) == verdict
        checked += 1
    assert checked or not family.calls



@pytest.mark.parametrize("lam, min_ratio", [(float("nan"), 1.0), (-1.0, 1.0), (0.5, float("nan")), (0.5, 0.0)])
def test_a_window_or_ratio_floor_that_is_not_positive_is_refused(lam, min_ratio):
    """NaN fails every comparison, so a NaN window or floor would admit
    nothing, or drop the floor, without a word."""
    with pytest.raises(ValueError, match="must be positive"):
        CentralFamily(np.zeros(3), lam, min_ratio)
