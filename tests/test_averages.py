from fractions import Fraction

import numpy as np
import pytest

from ergodic_tiler import (
    CrossComponent,
    DisconnectedClass,
    EquivRel,
    RhoMeasure,
    build_graph,
    family_S_membership,
    mean_over,
)

from test_graph import path_graph, random_connected


def random_relation(rng, graph):
    """Random graph-connected partition: grow classes by absorbing neighbors."""
    n = graph.vertex_count
    labels = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for v in rng.permutation(n):
        if labels[v] != -1:
            continue
        labels[v] = nxt
        size = int(rng.integers(1, 4))
        frontier = [int(v)]
        members = [int(v)]
        while frontier and len(members) < size:
            cur = frontier.pop()
            for u in graph.neighbors(cur):
                if labels[u] == -1 and len(members) < size:
                    labels[u] = nxt
                    members.append(int(u))
                    frontier.append(int(u))
        nxt += 1
    return EquivRel.from_labels(labels)


def set_average(graph, values, cocycle, U, exact=False):
    """The weighted average of f over U: E[f | R] on U, for the relation R
    whose one class of more than a vertex is U."""
    labels = np.arange(graph.vertex_count)
    labels[np.asarray(U)] = -1
    return mean_over(graph, values, cocycle, EquivRel.from_labels(labels), exact=exact)[U[0]]


class TestWeightedAverage:
    """E[f | R] on one class is the weighted average of f over that class."""

    def test_singleton(self):
        g, c = path_graph(3)
        assert set_average(g, [5.0, 1.0, 2.0], c, [0]) == 5.0

    def test_equal_weights_mean(self):
        g, c = path_graph(2)
        assert set_average(g, [1.0, 3.0], c, [0, 1]) == pytest.approx(2.0)

    def test_hand_value(self):
        g, c = path_graph(2, np.log([1.0, 2.0]))
        assert set_average(g, [0.0, 3.0], c, [0, 1]) == pytest.approx(2.0)

    def test_within_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            g, c = path_graph(n, rng.uniform(-3, 3, size=n))
            f = rng.normal(size=n)
            a = set_average(g, f, c, np.arange(n))
            assert f.min() - 1e-12 <= a <= f.max() + 1e-12

    def test_exact_mode(self):
        g, c = path_graph(2, np.log([1.0, 2.0]))
        a = set_average(g, [0.0, 3.0], c, [0, 1], exact=True)
        assert isinstance(a, Fraction)
        assert abs(float(a) - 2.0) < 1e-12


class TestUnionIdentity:
    """The average over a union of two disjoint sets mixes their averages
    with the sets' relative masses: E[f | R] on the union is the mean of
    E[f | R'] for the finer R' that splits it in two."""

    @staticmethod
    def sides(f, c, U, V):
        g, _ = path_graph(len(f))
        lhs = set_average(g, f, c, np.concatenate([U, V]))
        w = np.exp(c.log_weight - c.log_weight.max())
        mu_u, mu_v = float(w[U].sum()), float(w[V].sum())
        rhs = (mu_u * set_average(g, f, c, U) + mu_v * set_average(g, f, c, V)) / (mu_u + mu_v)
        return lhs, rhs

    def test_convexity_between(self):
        _, c = path_graph(3)
        lhs, rhs = self.sides(np.array([1.0, 1.0, 7.0]), c, np.array([0, 1]), np.array([2]))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert 1.0 <= lhs <= 7.0

    def test_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            _, c = path_graph(n, rng.uniform(-3, 3, size=n))
            f = rng.normal(size=n)
            k = int(rng.integers(1, n))
            lhs, rhs = self.sides(f, c, np.arange(k), np.arange(k, n))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_increment_bound_tiny_mass(self):
        # adding a set of tiny relative mass moves the average very little
        g, c = path_graph(3, np.array([0.0, 0.0, -20.0]))
        f = np.array([1.0, -1.0, 100.0])
        U, V = np.array([0, 1]), np.array([2])
        a_u = set_average(g, f, c, U)
        a_uv = set_average(g, f, c, np.array([0, 1, 2]))
        w = np.exp(c.log_weight)
        bound = 2.0 * np.abs(f).max() * w[V].sum() / (w[U].sum() + w[V].sum())
        assert abs(a_uv - a_u) <= bound + 1e-15


class TestMeanOver:
    def test_identity_relation(self):
        g, c = path_graph(3)
        f = np.array([1.0, 2.0, 3.0])
        out = mean_over(g, f, c, EquivRel.identity(3))
        np.testing.assert_allclose(out, f)

    def test_full_component_constant(self):
        g, c = path_graph(3, np.log([1.0, 2.0, 1.0]))
        f = np.array([0.0, 4.0, 8.0])
        rel = EquivRel.from_classes([[0, 1, 2]], 3)
        out = mean_over(g, f, c, rel)
        expect = (0 * 1 + 4 * 2 + 8 * 1) / 4.0
        np.testing.assert_allclose(out, expect)

    def test_class_spanning_two_components_rejected(self):
        # edges 0-1 and 2-3: the class {1, 2} joins the two components
        g, c = build_graph([(0, 1), (2, 3)], np.zeros(4))
        rel = EquivRel.from_classes([[0], [1, 2], [3]], 4)
        for exact in (False, True):
            with pytest.raises(CrossComponent, match=r"equivalence class spans components \[0, 1\]"):
                mean_over(g, np.zeros(4), c, rel, exact=exact)

    def test_expectation_identity_random(self):
        # both integrals agree; the oracle is a plain exhaustive atom sum
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            g, c = random_connected(rng, n)
            f = rng.normal(size=n)
            rel = random_relation(rng, g)
            mu = RhoMeasure.from_cocycle(g, c)
            out = mean_over(g, f, c, rel)
            lhs = sum(out[x] * mu.atoms[x] for x in range(n))
            rhs = sum(f[x] * mu.atoms[x] for x in range(n))
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))

    def test_expectation_identity_exact(self):
        # in rational arithmetic the identity holds with no tolerance at all
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            g, c = random_connected(rng, n)
            f = rng.normal(size=n)
            rel = random_relation(rng, g)
            atoms = RhoMeasure.fraction_atoms(g, c)
            means = mean_over(g, f, c, rel, exact=True)
            lhs = sum(means[v] * atoms[v] for v in range(n))
            rhs = sum(Fraction(float(f[v])) * atoms[v] for v in range(n))
            assert lhs == rhs

    def test_l1_contraction(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            g, c = random_connected(rng, n)
            f = rng.normal(size=n)
            rel = random_relation(rng, g)
            mu = RhoMeasure.from_cocycle(g, c)
            out = mean_over(g, f, c, rel)
            assert np.dot(mu.atoms, np.abs(out)) <= np.dot(mu.atoms, np.abs(f)) + 1e-12


class TestFamilyMembership:
    """family_S_membership contracts the relation and asks CentralFamily, so
    these cases pin the one definition of S, including those that once
    pinned lambda_classify and quotient_ratio."""

    def test_zero_is_central(self):
        g, c = path_graph(2)
        assert family_S_membership(g, [0.0, 0.0], c, [0, 1], lam=0.5, min_ratio=1.0, relation=EquivRel.identity(2))

    def test_average_on_the_window_edge_is_rejected(self):
        # the window is open: an average of exactly +/- lam is not central
        g, c = path_graph(1, np.zeros(1))
        rel = EquivRel.identity(1)
        for edge in (0.5, -0.5):
            assert not family_S_membership(g, [edge], c, [0], lam=0.5, min_ratio=1.0, relation=rel)
            assert family_S_membership(g, [edge], c, [0], lam=np.nextafter(0.5, 1.0), min_ratio=1.0, relation=rel)

    def test_far_average_is_rejected(self):
        g, c = path_graph(1, np.zeros(1))
        assert not family_S_membership(g, [-5.0], c, [0], lam=1.0, min_ratio=1.0, relation=EquivRel.identity(1))

    def test_identity_relation_low_floor(self):
        g, c = path_graph(3)
        rel = EquivRel.identity(3)
        assert family_S_membership(g, [0.0, 0.0, 0.0], c, [0, 1], lam=0.5, min_ratio=1.0, relation=rel)

    def test_not_invariant(self):
        g, c = path_graph(3)
        rel = EquivRel.from_classes([[0, 1], [2]], 3)
        assert not family_S_membership(g, np.zeros(3), c, [1, 2], lam=0.5, min_ratio=1.0, relation=rel)

    def test_quotient_ratio_floor(self):
        # weights 1, 2 and 4: the mass over the heaviest class is exactly 7/4
        g, c = path_graph(3, np.log([1.0, 2.0, 4.0]))
        rel = EquivRel.identity(3)
        assert not family_S_membership(g, np.zeros(3), c, [0, 1, 2], lam=0.5, min_ratio=2.0, relation=rel)
        assert family_S_membership(g, np.zeros(3), c, [0, 1, 2], lam=0.5, min_ratio=1.75, relation=rel)
        above = np.nextafter(1.75, 2.0)
        assert not family_S_membership(g, np.zeros(3), c, [0, 1, 2], lam=0.5, min_ratio=above, relation=rel)

    def test_quotient_ratio_counts_whole_classes(self):
        # classes {0} and {1, 2} of masses 1 and 6: the ratio is 7/6
        g, c = path_graph(3, np.log([1.0, 2.0, 4.0]))
        rel = EquivRel.from_classes([[0], [1, 2]], 3)
        assert family_S_membership(g, np.zeros(3), c, [0, 1, 2], lam=0.5, min_ratio=1.16, relation=rel)
        assert not family_S_membership(g, np.zeros(3), c, [0, 1, 2], lam=0.5, min_ratio=1.17, relation=rel)

    def test_disconnected_class_raises(self):
        # the class {0, 2} of the path 0 - 1 - 2 has no edge inside it
        g, c = path_graph(3)
        rel = EquivRel.from_classes([[0, 2], [1]], 3)
        with pytest.raises(DisconnectedClass):
            family_S_membership(g, np.zeros(3), c, [0, 1, 2], lam=0.5, min_ratio=1.0, relation=rel)
