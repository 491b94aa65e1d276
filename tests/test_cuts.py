import itertools
import warnings

import numpy as np
import pytest

from ergodic_tiler import (
    RhoMeasure,
    TooLargeForExact,
    build_graph,
    edge_measure_from_maps,
    edge_price,
    is_K_finitizing_edge_cut,
    is_K_finitizing_vertex_cut,
    limsup_mass,
    uniform_edge_measure,
    vanishing_sequence,
    vertex_price,
)
from ergodic_tiler.errors import VanishingPrecondition

from test_graph import path_graph, random_connected


def cycle_graph(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], np.zeros(n))


def uniform_measure(graph):
    from ergodic_tiler import Cocycle

    return RhoMeasure.from_cocycle(graph, Cocycle(np.zeros(graph.vertex_count)))


class TestIsFinitizing:
    def test_remove_everything(self):
        g, _ = path_graph(5)
        assert is_K_finitizing_vertex_cut(g, range(5), 1)

    def test_empty_cut_threshold(self):
        g, _ = path_graph(4)
        assert is_K_finitizing_vertex_cut(g, [], 4)
        assert not is_K_finitizing_vertex_cut(g, [], 3)

    def test_path_ten_middle(self):
        g, _ = path_graph(10)
        assert is_K_finitizing_vertex_cut(g, [4], 5)

    def test_edge_variant(self):
        g, _ = path_graph(4)
        assert is_K_finitizing_edge_cut(g, [(1, 2)], 2)
        assert not is_K_finitizing_edge_cut(g, [(1, 2)], 1)


class TestVertexPrice:
    def test_small_component_free(self):
        g, _ = path_graph(3)
        rep = vertex_price(g, uniform_measure(g), K=3)
        assert rep.price == 0.0 and rep.cut == ()

    def test_cycle8_exact(self):
        g, _ = cycle_graph(8)
        rep = vertex_price(g, uniform_measure(g), K=3)
        assert rep.price == pytest.approx(2.0 / 8.0)
        assert len(rep.cut) == 2

    def test_path7_exact(self):
        g, _ = path_graph(7)
        rep = vertex_price(g, uniform_measure(g), K=3)
        assert rep.price == pytest.approx(1.0 / 7.0)
        assert rep.cut == (3,)

    def test_exhaustive_oracle_small(self):
        # brute force over all vertex subsets on tiny graphs
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g, c = random_connected(rng, n)
            mu = uniform_measure(g)
            K = int(rng.integers(1, n))
            rep = vertex_price(g, mu, K)
            best = None
            for r in range(n + 1):
                for sub in itertools.combinations(range(n), r):
                    if is_K_finitizing_vertex_cut(g, sub, K):
                        cost = mu.atoms[list(sub)].sum() if sub else 0.0
                        if best is None or cost < best:
                            best = cost
                if best is not None and best <= r / n:
                    break
            assert rep.price == pytest.approx(best)

    def test_too_large_for_exact(self):
        g, _ = path_graph(25)
        with pytest.raises(TooLargeForExact):
            vertex_price(g, uniform_measure(g), K=3)

    def test_greedy_at_least_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(3, 14))
            g, c = random_connected(rng, n)
            mu = uniform_measure(g)
            K = int(rng.integers(1, n))
            exact = vertex_price(g, mu, K, method="exact")
            for method in ("greedy", "local"):
                upper = vertex_price(g, mu, K, method=method)
                assert upper.price >= exact.price - 1e-12
                assert is_K_finitizing_vertex_cut(g, upper.cut, K)

    def test_price_zero_iff_already_finite(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            g, c = random_connected(rng, n)
            mu = uniform_measure(g)
            K = int(rng.integers(1, n + 2))
            rep = vertex_price(g, mu, K)
            assert (rep.price == 0.0) == is_K_finitizing_vertex_cut(g, [], K)

    def test_monotone_in_K(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(4, 12))
            g, c = random_connected(rng, n)
            mu = uniform_measure(g)
            prices = [vertex_price(g, mu, K).price for K in range(1, n + 1)]
            assert all(prices[i + 1] <= prices[i] + 1e-12 for i in range(len(prices) - 1))


def brute_force_edge_price(graph, K):
    """Least uniform price over all edge subsets that are K-finitizing."""
    nu = uniform_edge_measure(graph)
    edges = sorted(nu)
    best = None
    for r in range(len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            if is_K_finitizing_edge_cut(graph, sub, K):
                cost = sum(nu[e] for e in sub)
                if best is None or cost < best:
                    best = cost
    return best


class TestEdgePrice:
    def test_path7(self):
        # K counts vertices: 7 vertices need ceil(7/3) = 3 pieces, so 2 cuts
        # out of 6 edges (one cut leaves a 4-vertex piece).
        g, _ = path_graph(7)
        rep = edge_price(g, K=3)
        assert rep.price == pytest.approx(brute_force_edge_price(g, 3))
        assert rep.price == pytest.approx(2.0 / 6.0)
        assert len(rep.cut) == 2
        assert is_K_finitizing_edge_cut(g, rep.cut, 3)
        assert rep.largest_component <= rep.K

    def test_cycle8(self):
        # A cycle of 8 splits into ceil(8/3) = 3 arcs of at most 3 vertices,
        # which takes 3 cuts out of 8 edges (two cuts leave two 4-vertex arcs).
        g, _ = cycle_graph(8)
        rep = edge_price(g, K=3)
        assert rep.price == pytest.approx(brute_force_edge_price(g, 3))
        assert rep.price == pytest.approx(3.0 / 8.0)
        assert len(rep.cut) == 3
        assert is_K_finitizing_edge_cut(g, rep.cut, 3)
        assert rep.largest_component <= rep.K

    def test_small_component_free(self):
        g, _ = path_graph(3)
        assert edge_price(g, K=3).price == 0.0

    def test_monotone_in_K(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            g, c = random_connected(rng, n)
            prices = [edge_price(g, K=K).price for K in range(1, n + 1)]
            assert all(prices[i + 1] <= prices[i] + 1e-12 for i in range(len(prices) - 1))

    def test_greedy_upper_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(3, 9))
            g, c = random_connected(rng, n)
            K = int(rng.integers(1, n))
            exact = edge_price(g, K=K)
            greedy = edge_price(g, K=K, method="greedy")
            assert greedy.price >= exact.price - 1e-12
            assert is_K_finitizing_edge_cut(g, greedy.cut, K)

    def test_local_cut_keeps_only_needed_edges(self):
        """local drops every greedy edge that the rest of the cut does
        without, so removing any one edge from its cut breaks the cut."""
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(4, 16))
            g, c = random_connected(rng, n, extra=n)
            K = int(rng.integers(1, n))
            greedy = edge_price(g, K=K, method="greedy")
            local = edge_price(g, K=K, method="local")
            assert local.method == "local"
            assert is_K_finitizing_edge_cut(g, local.cut, K)
            assert local.price <= greedy.price
            for e in local.cut:
                assert not is_K_finitizing_edge_cut(g, [f for f in local.cut if f != e], K)

    def test_map_lift_measure(self):
        g, c = path_graph(3)
        mu = uniform_measure(g)
        nu = edge_measure_from_maps([{0: 1, 1: 2}, {1: 0}], mu)
        assert nu[(0, 1)] == pytest.approx(0.5 * mu.atoms[0] + 0.25 * mu.atoms[1])
        assert nu[(1, 2)] == pytest.approx(0.5 * mu.atoms[1])

    def test_uniform_measure_sums_to_one(self):
        g, _ = cycle_graph(6)
        assert sum(uniform_edge_measure(g).values()) == pytest.approx(1.0)


class TestVanishingSequence:
    def test_all_empty(self):
        g, _ = path_graph(3)
        mu = uniform_measure(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error", VanishingPrecondition)
            out = vanishing_sequence([[], [], []], mu)
            shrinking = vanishing_sequence([[1, 2], [1], []], mu)
        assert all(b.size == 0 for b in out)
        assert [b.tolist() for b in shrinking] == [[1], [], []]

    def test_singletons_shrink(self):
        g, _ = path_graph(10)
        mu = uniform_measure(g)
        # the last set {9} keeps mass, so the input does not vanish
        with pytest.warns(VanishingPrecondition):
            out = vanishing_sequence([[k] for k in range(10)], mu)
        assert out[0].tolist() == list(range(1, 10))
        assert out[-1].size == 0
        for a, b in zip(out, out[1:]):
            assert set(b.tolist()) <= set(a.tolist())

    def test_constant_input_flagged(self):
        g, _ = path_graph(4)
        mu = uniform_measure(g)
        with pytest.warns(VanishingPrecondition):
            out = vanishing_sequence([[1, 2]] * 3, mu)
        assert out[0].tolist() == [1, 2]


class TestLimsupMass:
    def test_constant_equality(self):
        g, _ = path_graph(5)
        mu = uniform_measure(g)
        m_set, m_lim = limsup_mass([[0, 1]] * 4, mu)
        assert m_set == pytest.approx(m_lim)

    def test_alternating_period_two(self):
        g, _ = path_graph(10)
        mu = uniform_measure(g)
        a, b = [0, 1, 2], [5, 6, 7]
        m_set, m_lim = limsup_mass([a, b, a, b], mu, period=2)
        assert m_set == pytest.approx(0.6)
        assert m_lim == pytest.approx(0.3)

    def test_shrinking_to_empty(self):
        g, _ = path_graph(6)
        mu = uniform_measure(g)
        m_set, m_lim = limsup_mass([[0, 1], [2], []], mu)
        assert m_set == 0.0 and m_lim == 0.0

    def test_inequality_random(self):
        rng = np.random.default_rng(6)
        g, _ = path_graph(20)
        mu = uniform_measure(g)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            seqs = [rng.choice(20, size=rng.integers(0, 10), replace=False) for _ in range(k + 2)]
            period = int(rng.integers(1, k + 1))
            m_set, m_lim = limsup_mass(seqs, mu, period=period)
            assert m_set >= m_lim - 1e-15
