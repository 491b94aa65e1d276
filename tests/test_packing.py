import numpy as np
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
from ergodic_tiler.packing import DEFAULT_BUDGET

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


def check_packed_and_saturated(graph, cocycle, family, p):
    part = packed_and_saturated(graph, cocycle, family, p)
    members = np.concatenate(part.cells) if part.cell_count else np.empty(0, dtype=np.int64)
    assert members.size == np.unique(members).size
    assert all(family.contains(graph, cocycle, cell) for cell in part.cells)
    assert audit_packed(graph, cocycle, family, part, p) is None
    assert audit_saturated(graph, cocycle, family, part) is None


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
