import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_tiler import (
    Cocycle,
    DisconnectedClass,
    EquivRel,
    MalformedGraph,
    RhoMeasure,
    build_graph,
    is_connected_set,
    quotient,
    read_graph_file,
    rho_order_key,
    rho_sorted,
    write_graph_file,
)
from ergodic_tiler.graph import _edge_array, class_means, label_components
from ergodic_tiler.validation import as_vertex_array


def path_graph(n, logw=None):
    return build_graph([(i, i + 1) for i in range(n - 1)], np.zeros(n) if logw is None else logw)


def random_connected(rng, n, extra=2):
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    logw = rng.uniform(-3, 3, size=n)
    return build_graph(sorted(edges), logw)


EDGE_INPUTS = [
    [(1, 2), (3, 4)],
    [[1, 2], [3, 4]],
    [(1, 2), [3, 4]],
    ((0, 1), (1, 2)),
    [(0.5, 1.7)],
    [(np.int32(3), 4)],
    [(True, 2)],
    [("1", 2)],
    [(2**40, -(2**40))],
    [(2**70, 1)],
    [(1, None)],
    [((1, 2), (3, 4))],
    ["12"],
    [(1, 2, 3)],
    [(1, 2), (3,)],
    [1, 2],
    [],
]


class TestBuildGraph:
    def test_single_edge_identity_weights(self):
        g, c = build_graph([(0, 1)], [0.0, 0.0])
        assert g.vertex_count == 2
        assert g.component_count == 1
        assert c.ratio(0, 1) == 1.0

    def test_no_edges_two_components(self):
        g, _ = build_graph([], [0.0, 0.0])
        assert g.component_count == 2

    def test_self_loop_rejected(self):
        with pytest.raises(MalformedGraph):
            build_graph([(0, 0)], [0.0])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(MalformedGraph):
            build_graph([(0, 1), (1, 0)], [0.0, 0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedGraph):
            build_graph([(0, 5)], [0.0, 0.0])

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(MalformedGraph):
            build_graph([(0, 1)], [0.0, np.inf])

    def test_adjacency_symmetric_sorted(self):
        g, _ = build_graph([(2, 0), (1, 2)], [0.0, 0.0, 0.0])
        assert g.neighbors(2).tolist() == [0, 1]
        assert g.neighbors(0).tolist() == [2]

    @pytest.mark.parametrize("edges", EDGE_INPUTS, ids=repr)
    def test_edge_list_read_as_numpy_reads_it(self, edges):
        """The flat read of a list of pairs gives numpy's array, or its error."""
        try:
            want = np.asarray(list(edges), dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                _edge_array(edges)
            return
        got = _edge_array(edges)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def loop_build_graph(edges, n):
    """Reference: build_graph's arrays from its former per-edge validation loop.

    Returns (indptr, indices, component_id, edges) or raises MalformedGraph.
    """
    seen = set()
    norm = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise MalformedGraph(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedGraph(f"edge ({u}, {v}) endpoint out of range for {n} vertices")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise MalformedGraph(f"duplicate edge {key}")
        seen.add(key)
        norm.append(key)
    if norm:
        earr = np.array(sorted(norm), dtype=np.int64)
        both = np.concatenate([earr, earr[:, ::-1]])
        both = both[np.lexsort((both[:, 1], both[:, 0]))]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(both[:, 0], minlength=n))]).astype(np.int64)
        indices = both[:, 1].copy()
    else:
        earr = np.empty((0, 2), dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)
    return indptr, indices, label_components(n, earr)[0], earr


@st.composite
def edge_lists_with_faults(draw):
    """Simple edges in random orientation with self-loops, out-of-range
    endpoints and duplicates (either orientation) injected at random places."""
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=3 * n))
    edges = []
    for u, v in pairs:
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    outside = st.integers(-5, -1) | st.integers(n, n + 5) | st.sampled_from([-(2**40), 2**40])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["loop", "range", "duplicate"]))
        if kind == "loop":
            w = draw(vertex | outside)
            fault = (w, w)
        elif kind == "range":
            fault = (draw(outside), draw(vertex | outside))
            fault = fault if draw(st.booleans()) else fault[::-1]
        elif edges:
            u, v = draw(st.sampled_from(edges))
            fault = (u, v) if draw(st.booleans()) else (v, u)
        else:
            continue
        edges.insert(draw(st.integers(0, len(edges))), fault)
    return n, edges


class TestBuildGraphValidation:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists_with_faults(), st.booleans())
    def test_matches_the_loop(self, case, as_array):
        n, edges = case
        try:
            expect = loop_build_graph(edges, n)
        except MalformedGraph as exc:
            expect = str(exc)
        given_edges = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
        try:
            g, _ = build_graph(given_edges, np.zeros(n))
        except MalformedGraph as exc:
            assert str(exc) == expect
            return
        assert not isinstance(expect, str), expect
        for got, want in zip((g.indptr, g.indices, g.component_id, g.edges()), expect):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def bfs_labels(n, edges, keep):
    """Reference labelling: BFS from each unlabelled kept vertex in id order."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    labels = [-1] * n
    count = 0
    for start in range(n):
        if not keep[start] or labels[start] != -1:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if keep[u] and labels[u] == -1:
                    labels[u] = count
                    stack.append(u)
        count += 1
    return labels, count


@st.composite
def graphs_with_masks(draw):
    n = draw(st.integers(0, 40))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)) if n else []
    keep = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    return n, edges, keep


class TestLabelComponents:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_masks())
    def test_matches_bfs(self, case):
        n, edges, keep = case
        labels, count = label_components(n, edges, None if keep is None else np.array(keep, dtype=bool))
        expect, expect_count = bfs_labels(n, edges, [True] * n if keep is None else keep)
        assert labels.tolist() == expect
        assert count == expect_count


class TestConnectedSet:
    def test_path_endpoints_disconnected(self):
        g, _ = path_graph(3)
        assert not is_connected_set(g, [0, 2])

    def test_full_path(self):
        g, _ = path_graph(3)
        assert is_connected_set(g, [0, 1, 2])

    def test_singleton_and_empty(self):
        g, _ = path_graph(6)
        assert is_connected_set(g, [5])
        assert is_connected_set(g, [])


class TestRhoOrder:
    def test_descending_with_tie_break(self):
        _, c = path_graph(3, np.log([3.0, 1.0, 3.0]))
        assert rho_sorted(c, [0, 1, 2]) == [0, 2, 1]

    def test_equal_weights_id_order(self):
        _, c = path_graph(4)
        assert rho_sorted(c, [2, 0, 3, 1]) == [0, 1, 2, 3]

    def test_single(self):
        _, c = path_graph(2)
        assert rho_sorted(c, [1]) == [1]

    def test_key_total_order(self):
        _, c = path_graph(5, np.array([0.3, 0.3, -1.0, 0.3, 2.0]))
        keys = [rho_order_key(c, v) for v in range(5)]
        assert len(set(keys)) == 5


class TestQuotient:
    def test_identity_unchanged(self):
        g, c = path_graph(3, np.log([1.0, 2.0, 4.0]))
        f = np.array([0.0, 2.0, 4.0])
        q = quotient(g, c, f, EquivRel.identity(3))
        assert q.graph.vertex_count == 3
        assert q.graph.edges().tolist() == g.edges().tolist()
        np.testing.assert_allclose(q.cocycle.log_weight, c.log_weight)
        np.testing.assert_allclose(q.values, f)

    def test_hand_contraction(self):
        g, c = path_graph(3)
        f = np.array([0.0, 2.0, 4.0])
        rel = EquivRel.from_classes([[0, 1], [2]], 3)
        q = quotient(g, c, f, rel)
        assert q.graph.vertex_count == 2
        assert q.graph.edges().tolist() == [[0, 1]]
        np.testing.assert_allclose(np.exp(q.cocycle.log_weight), [2.0, 1.0])
        np.testing.assert_allclose(q.values, [1.0, 4.0])

    def test_full_collapse_edgeless(self):
        g, c = build_graph([(0, 1), (2, 3)], np.zeros(4))
        rel = EquivRel.from_classes([[0, 1], [2, 3]], 4)
        q = quotient(g, c, np.zeros(4), rel)
        assert q.graph.edge_count == 0

    def test_disconnected_class_rejected(self):
        g, c = path_graph(3)
        rel = EquivRel.from_classes([[0, 2], [1]], 3)
        with pytest.raises(DisconnectedClass):
            quotient(g, c, np.zeros(3), rel)
        # every class is split, and only through the other class
        g, c = path_graph(4)
        rel = EquivRel.from_classes([[0, 2], [1, 3]], 4)
        with pytest.raises(DisconnectedClass):
            quotient(g, c, np.zeros(4), rel)

    def test_compose_equals_join(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            g, c = random_connected(rng, n)
            f = rng.normal(size=n)
            # first relation: contract a random edge
            edges = g.edges()
            e1 = edges[rng.integers(0, len(edges))]
            rel1 = EquivRel.from_classes([[int(e1[0]), int(e1[1])]] + [[v] for v in range(n) if v not in e1], n)
            q1 = quotient(g, c, f, rel1)
            # second relation: contract a random edge of the quotient
            if q1.graph.edge_count == 0:
                continue
            qe = q1.graph.edges()[rng.integers(0, q1.graph.edge_count)]
            rel2 = EquivRel.from_classes(
                [[int(qe[0]), int(qe[1])]] + [[v] for v in range(q1.graph.vertex_count) if v not in qe],
                q1.graph.vertex_count,
            )
            q2 = quotient(q1.graph, q1.cocycle, q1.values, rel2)
            # same thing in one step: the join of the lifted relations, and
            # the gather through rel1 that run_tiling's lift makes
            lifted2 = EquivRel.from_classes(
                [np.concatenate([rel1.classes[ci] for ci in cls2]) for cls2 in rel2.classes], n
            )
            joined = rel1.join(lifted2)
            gathered = EquivRel(rel2.class_of[rel1.class_of], rel2.class_count)
            assert gathered.class_count == joined.class_count
            assert np.array_equal(gathered.class_of, joined.class_of)
            qj = quotient(g, c, f, gathered)
            for name in ("indptr", "indices", "component_id"):
                assert np.array_equal(getattr(qj.graph, name), getattr(q2.graph, name)), name
            assert np.array_equal(qj.graph.edges(), q2.graph.edges())
            np.testing.assert_allclose(qj.cocycle.log_weight, q2.cocycle.log_weight, rtol=0, atol=1e-12)
            np.testing.assert_allclose(qj.values, q2.values, rtol=0, atol=1e-12)


    def test_matches_the_validating_constructor(self):
        """quotient assembles its graph without build_graph's checks; on
        graphs of several components in shuffled vertex order, contracted
        by random connected relations, it builds the same arrays."""
        rng = np.random.default_rng(7)
        for _ in range(60):
            edges, n = [], 0
            for size in rng.integers(1, 15, size=int(rng.integers(1, 5))).tolist():
                g, _ = random_connected(rng, size, extra=size)
                edges += (g.edges() + n).tolist()
                n += size
            shuffled = rng.permutation(n)[np.array(edges, dtype=np.int64).reshape(-1, 2)]
            g, c = build_graph(shuffled, rng.uniform(-3, 3, n))
            # the pieces of a random edge subset are connected classes
            keep = rng.random(g.edge_count) < rng.uniform(0.0, 1.0)
            relation = EquivRel(*label_components(n, g.edges()[keep]))
            q = quotient(g, c, rng.normal(size=n), relation)
            ref, _ = build_graph(q.graph.edges(), q.cocycle.log_weight)
            assert q.graph.vertex_count == relation.class_count
            for name in ("indptr", "indices", "component_id"):
                got, want = getattr(q.graph, name), getattr(ref, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert q.graph.edges().dtype == ref.edges().dtype
            assert np.array_equal(q.graph.edges(), ref.edges())

    def test_singletons_hand_back_the_inputs(self):
        """Contracting by the identity returns the graph and cocycle
        themselves, and they equal what the general arithmetic would build."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            g, c = random_connected(rng, n, extra=int(rng.integers(0, n + 1)))
            if rng.random() < 0.5:
                # drop some edges, so that some graphs have several components
                edges = g.edges()[rng.random(g.edge_count) < 0.7]
                g, c = build_graph(edges, c.log_weight)
            f = rng.normal(size=n)
            f[rng.random(n) < 0.2] = 0.0
            q = quotient(g, c, f, EquivRel.identity(n))
            assert q.graph is g and q.cocycle is c
            assert np.array_equal(q.values, f)
            means, logmass = class_means(c, np.arange(n), n, f)
            ref, _ = build_graph(g.edges(), logmass)
            assert np.array_equal(q.values, means)
            assert np.array_equal(q.cocycle.log_weight, logmass)
            for name in ("indptr", "indices", "component_id"):
                assert np.array_equal(getattr(q.graph, name), getattr(ref, name)), name
            assert np.array_equal(q.graph.edges(), ref.edges())

    def test_singletons_allocate_nothing(self):
        n = 1 << 16
        g, c = build_graph([(k, (k + 1) % n) for k in range(n)], np.linspace(-2.0, 2.0, n))
        f = np.cos(np.arange(n, dtype=float))
        relation = EquivRel.identity(n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            quotient(g, c, f, relation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 64 * 1024


VERTEX_INPUTS = [
    np.array([1, 3, 7], dtype=np.int64),
    np.array([7, 1, 3], dtype=np.int64),
    np.array([3, 3, 1], dtype=np.int64),
    np.array([1, 3, 3], dtype=np.int64),
    np.array([2, 5], dtype=np.int32),
    np.array([[1, 2], [0, 4]], dtype=np.int64),
    np.array([], dtype=np.int64),
    [5, 2, 2],
    (0, 9),
    [],
]


class TestAsVertexArray:
    @pytest.mark.parametrize("U", VERTEX_INPUTS, ids=repr)
    def test_unique_in_a_fresh_array(self, U):
        out = as_vertex_array(U, 10)
        want = np.unique(np.asarray(U, dtype=np.int64))
        assert out.dtype == np.int64 and np.array_equal(out, want)
        if isinstance(U, np.ndarray):
            assert not np.shares_memory(out, U)

    @pytest.mark.parametrize("U", [np.array([0, 10]), np.array([-1, 2]), [10], [3, -1]], ids=repr)
    def test_out_of_range_raises(self, U):
        with pytest.raises(IndexError):
            as_vertex_array(U, 10)


class TestCocycleIdentity:
    def test_ratios_telescope_up_to_rounding(self):
        rng = np.random.default_rng(3)
        g, c = random_connected(rng, 50, extra=20)
        for x in range(50):
            for y in (7, 23, 41):
                for z in (3, 29):
                    assert c.ratio(x, y) * c.ratio(y, z) == pytest.approx(c.ratio(x, z), rel=1e-12, abs=0)

    def test_self_ratio_one(self):
        _, c = path_graph(4, np.array([0.5, -0.5, 1.5, 0.0]))
        for x in range(4):
            assert c.ratio(x, x) == 1.0


class TestRhoMeasure:
    def test_atom_ratios_match_cocycle(self):
        rng = np.random.default_rng(4)
        g, c = random_connected(rng, 50, extra=10)
        mu = RhoMeasure.from_cocycle(g, c)
        for x in range(0, 50, 7):
            for y in range(0, 50, 11):
                assert mu.atoms[y] / mu.atoms[x] == pytest.approx(c.ratio(y, x), rel=1e-12)

    def test_total_mass_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            g, c = random_connected(rng, n)
            mu = RhoMeasure.from_cocycle(g, c)
            assert mu.total() == pytest.approx(1.0, rel=1e-12)

    def test_trivial_cocycle_uniform(self):
        g, c = path_graph(8)
        mu = RhoMeasure.from_cocycle(g, c)
        np.testing.assert_allclose(mu.atoms, 1.0 / 8.0)

    def test_component_mass_validation(self):
        g, c = build_graph([], [0.0, 0.0])
        with pytest.raises(ValueError):
            RhoMeasure.from_cocycle(g, c, component_mass=[0.7, 0.7])


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        g, c = random_connected(rng, 9, extra=3)
        f = rng.normal(size=9)
        path = tmp_path / "g.txt"
        write_graph_file(path, g, c, f)
        g2, c2, f2 = read_graph_file(path)
        assert g2.edges().tolist() == g.edges().tolist()
        np.testing.assert_array_equal(c2.log_weight, c.log_weight)
        np.testing.assert_array_equal(f2, f)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a tiny instance\n2 1\n0 1\n0.0 1.0  # vertex 0\n0.0 -1.0\n")
        g, c, f = read_graph_file(path)
        assert g.vertex_count == 2
        assert f.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 x\n0 1\n0.0 1.0\n0.0 0.0\n", "header must be 'n m'"),
            ("2 1\n0 x\n0.0 1.0\n0.0 0.0\n", "edge line 0 must be 'u v', two integers"),
            ("2 1\n0\n0.0 1.0\n0.0 0.0\n", "edge line 0 must be 'u v', two integers"),
            ("2 1\n0 1\n0.0 abc\n0.0 0.0\n", "vertex line 0 must be 'logw f', two numbers"),
            ("2 1\n0 1\n0.0 1.0\n0.0\n", "vertex line 1 must be 'logw f', two numbers"),
        ],
        ids=["header", "edge-token", "edge-count", "vertex-token", "vertex-count"],
    )
    def test_unparsable_line_rejected(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(MalformedGraph, match=message):
            read_graph_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_f_rejected(self, tmp_path, value):
        path = tmp_path / "g.txt"
        path.write_text(f"2 1\n0 1\n0.0 1.0\n0.0 {value}\n")
        with pytest.raises(MalformedGraph, match="vertex line 1 has a non-finite f"):
            read_graph_file(path)
