from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergodic_tiler import (
    Cocycle,
    CrossComponent,
    DisconnectedClass,
    EmptySet,
    EquivRel,
    NotDisjoint,
    RhoMeasure,
    TargetOutOfRange,
    VertexFunction,
    build_graph,
    chebyshev_restriction,
    family_S_membership,
    intermediate_value_grow,
    mean_over,
    union_identity_check,
    weighted_average,
)
from ergodic_tiler.averages import growth_slack

from test_graph import path_graph, random_connected


@st.composite
def grown_trees(draw):
    """A random tree on 2 to 12 vertices (each vertex hangs below a smaller
    one), log-weights, values, a subtree U = {0, ..., k - 1} with k < n, and
    a target r between the averages of U and of the whole tree V."""
    n = draw(st.integers(2, 12))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    log_weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    graph, cocycle = build_graph(edges, log_weights)
    U = np.arange(draw(st.integers(1, n - 1)))
    a_u = weighted_average(values, cocycle, U)
    a_v = weighted_average(values, cocycle, np.arange(n))
    r = a_u + draw(st.floats(0.0, 1.0)) * (a_v - a_u)
    return graph, cocycle, values, U, r


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


class TestWeightedAverage:
    def test_singleton(self):
        _, c = path_graph(3)
        assert weighted_average([5.0, 1.0, 2.0], c, [0]) == 5.0

    def test_equal_weights_mean(self):
        _, c = path_graph(2)
        assert weighted_average([1.0, 3.0], c, [0, 1]) == pytest.approx(2.0)

    def test_hand_value(self):
        _, c = path_graph(2, np.log([1.0, 2.0]))
        assert weighted_average([0.0, 3.0], c, [0, 1]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        _, c = path_graph(2)
        with pytest.raises(EmptySet):
            weighted_average([0.0, 1.0], c, [])

    def test_within_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            c = Cocycle(rng.uniform(-3, 3, size=n))
            f = rng.normal(size=n)
            a = weighted_average(f, c, np.arange(n))
            assert f.min() - 1e-12 <= a <= f.max() + 1e-12

    def test_exact_mode(self):
        _, c = path_graph(2, np.log([1.0, 2.0]))
        a = weighted_average([0.0, 3.0], c, [0, 1], exact=True)
        assert isinstance(a, Fraction)
        assert abs(float(a) - 2.0) < 1e-12


class TestUnionIdentity:
    def test_convexity_between(self):
        _, c = path_graph(3)
        lhs, rhs = union_identity_check([1.0, 1.0, 7.0], c, [0, 1], [2])
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert 1.0 <= lhs <= 7.0

    def test_overlap_rejected(self):
        _, c = path_graph(3)
        with pytest.raises(NotDisjoint):
            union_identity_check([0.0, 0.0, 0.0], c, [0, 1], [1, 2])

    def test_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            c = Cocycle(rng.uniform(-3, 3, size=n))
            f = rng.normal(size=n)
            k = int(rng.integers(1, n))
            U, V = np.arange(k), np.arange(k, n)
            lhs, rhs = union_identity_check(f, c, U, V)
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_increment_bound_tiny_mass(self):
        # adding a set of tiny relative mass moves the average very little
        _, c = path_graph(3, np.array([0.0, 0.0, -20.0]))
        f = np.array([1.0, -1.0, 100.0])
        U, V = np.array([0, 1]), np.array([2])
        a_u = weighted_average(f, c, U)
        a_uv = weighted_average(f, c, np.array([0, 1, 2]))
        w = np.exp(c.log_weight)
        bound = 2.0 * np.abs(f).max() * w[V].sum() / (w[U].sum() + w[V].sum())
        assert abs(a_uv - a_u) <= bound + 1e-15


class TestMeanOver:
    def test_identity_relation(self):
        g, c = path_graph(3)
        f = np.array([1.0, 2.0, 3.0])
        out = mean_over(g, f, c, EquivRel.identity(3))
        np.testing.assert_allclose(out.values, f)

    def test_full_component_constant(self):
        g, c = path_graph(3, np.log([1.0, 2.0, 1.0]))
        f = np.array([0.0, 4.0, 8.0])
        rel = EquivRel.from_classes([[0, 1, 2]], 3)
        out = mean_over(g, f, c, rel)
        expect = (0 * 1 + 4 * 2 + 8 * 1) / 4.0
        np.testing.assert_allclose(out.values, expect)

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
            lhs = sum(out.values[x] * mu.atoms[x] for x in range(n))
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
            f = VertexFunction(rng.normal(size=n))
            rel = random_relation(rng, g)
            mu = RhoMeasure.from_cocycle(g, c)
            out = mean_over(g, f.values, c, rel)
            assert VertexFunction(out.values).l1_norm(mu) <= f.l1_norm(mu) + 1e-12


class TestChebyshevRestriction:
    def test_all_kept_when_small(self):
        g, c = path_graph(4)
        mu = RhoMeasure.from_cocycle(g, c)
        rel = EquivRel.identity(4)
        kept = chebyshev_restriction(g, [0.1, -0.1, 0.05, 0.0], c, rel, mu, eps=0.5)
        assert kept.tolist() == [0, 1, 2, 3]

    def test_zero_function(self):
        g, c = path_graph(4)
        mu = RhoMeasure.from_cocycle(g, c)
        kept = chebyshev_restriction(g, np.zeros(4), c, EquivRel.identity(4), mu, eps=0.1)
        assert kept.tolist() == [0, 1, 2, 3]

    def test_guarantees_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            g, c = random_connected(rng, n)
            f = VertexFunction(rng.normal(size=n) * rng.uniform(0.3, 5))
            rel = random_relation(rng, g)
            mu = RhoMeasure.from_cocycle(g, c)
            eps = float(rng.uniform(0.05, 0.9))
            kept = chebyshev_restriction(g, f, c, rel, mu, eps)
            kept_set = set(kept.tolist())
            # F-invariant
            for cls in rel.classes:
                inside = [int(v) in kept_set for v in cls]
                assert all(inside) or not any(inside)
            # mass guarantee, checked against a direct count over classes
            excluded = 1.0 - mu.mass(kept)
            assert excluded <= eps + 1e-12
            # sup bound on the kept part
            if kept.size:
                means = mean_over(g, f.values, c, rel)
                assert np.abs(means.values[kept]).max() <= f.l1_norm(mu) / eps + 1e-12


class TestIntermediateValueGrow:
    def test_target_at_u(self):
        g, c = path_graph(3)
        f = np.array([0.0, 1.0, 2.0])
        res = intermediate_value_grow(g, f, c, [0], [0, 1, 2], r=0.0)
        assert res.vertices.tolist() == [0]

    def test_target_at_v(self):
        g, c = path_graph(3)
        f = np.array([0.0, 1.0, 2.0])
        res = intermediate_value_grow(g, f, c, [0], [0, 1, 2], r=1.0)
        assert abs(res.average - 1.0) <= res.delta + 1e-15

    def test_hand_run(self):
        g, c = path_graph(3)
        f = np.array([0.0, 1.0, 2.0])
        res = intermediate_value_grow(g, f, c, [0], [0, 1, 2], r=0.5)
        assert res.vertices.tolist() == [0, 1]
        assert res.average == pytest.approx(0.5)
        # one step moves the average by at most 1 * (2 + 2) / 1
        assert res.delta == pytest.approx(4.0)

    def test_out_of_range_rejected(self):
        g, c = path_graph(3)
        f = np.array([0.0, 1.0, 2.0])
        with pytest.raises(TargetOutOfRange):
            intermediate_value_grow(g, f, c, [0], [0, 1, 2], r=5.0)

    @settings(max_examples=300, deadline=None)
    @given(grown_trees())
    # nothing lies off U but a zero, yet the step from U to V moves the
    # average by half of U's own
    @example((*path_graph(2), np.array([1.0, 0.0]), np.array([0]), 0.75))
    def test_lands_within_slack_of_target(self, case):
        """The growth passes from U to V one vertex at a time, and each step
        moves the average by at most the slack, so some intermediate set,
        and hence the closest one, lies within the slack of r."""
        graph, cocycle, values, U, r = case
        res = intermediate_value_grow(graph, values, cocycle, U, np.arange(graph.vertex_count), r)
        assert abs(res.average - r) <= res.delta + 1e-9 * max(1.0, abs(r))

    def test_slack_formula(self):
        # the reported slack is the heaviest outside weight times sup|f| off
        # U plus sup|f| on V (which bounds |average|), over the mass of U
        g, c = path_graph(4, np.log([4.0, 1.0, 2.0, 1.0]))
        f = np.array([0.0, -3.0, 5.0, 1.0])
        assert growth_slack(f, c, [0], [0, 1, 2, 3]) == pytest.approx(2.0 / 4.0 * (5.0 + 5.0))


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
