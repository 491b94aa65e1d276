from fractions import Fraction

import numpy as np
import pytest

from ergodic_tiler import (
    Cocycle,
    EquivRel,
    InsufficientCapacity,
    MalformedFlow,
    NotClosed,
    NotDisjoint,
    RhoFlow,
    RhoMeasure,
    balance_check,
    build_graph,
    define_flow,
    disbalance_report,
    global_balance,
    read_flow_file,
    sum_flows,
    validate_flow,
    write_flow_file,
)

from test_graph import path_graph, random_connected


def make_feasible_instance(rng, n):
    """Random relation, weights, disjoint U/V, and a per-class feasible supply."""
    g, c = random_connected(rng, n)
    labels = rng.integers(0, max(1, n // 4), size=n)
    # classes must live inside graph components for ratios to make sense;
    # use one flow-relation per component chunk
    rel = EquivRel.from_labels(labels * g.component_count + g.component_id)
    perm = rng.permutation(n)
    k = n // 3 + 1
    U, V = np.sort(perm[:k]), np.sort(perm[k:2 * k + 1])
    w = {}
    nw = np.exp(c.log_weight - c.log_weight.max())
    for cls in rel.classes:
        cls_u = [int(x) for x in cls if x in set(U.tolist())]
        cls_v = [int(x) for x in cls if x in set(V.tolist())]
        if not cls_u:
            continue
        cap = nw[cls_v].sum()
        raw = {u: float(rng.uniform(0, 1)) for u in cls_u}
        demand = sum(raw[u] * nw[u] for u in cls_u)
        scale = 1.0 if demand == 0 else min(1.0, 0.95 * cap / demand)
        for u in cls_u:
            w[u] = raw[u] * scale
    return g, c, rel, U, V, w


class TestValidateFlow:
    def test_zero_flow(self):
        g, c = path_graph(3)
        rep = validate_flow(RhoFlow.zero(), g, c)
        assert rep.sources.size == 0 and rep.sinks.size == 0
        np.testing.assert_array_equal(rep.net, np.zeros(3))

    def test_full_transfer_boundary(self):
        g, c = path_graph(2)
        rep = validate_flow(RhoFlow({(0, 1): 1.0}), g, c)
        assert not rep.violations
        assert rep.sources.tolist() == [0]
        assert rep.sinks.tolist() == [1]

    def test_in_bound_violation_reported(self):
        g, c = path_graph(2, np.log([2.0, 1.0]))
        rep = validate_flow(RhoFlow({(0, 1): 0.6}), g, c)
        assert rep.violations == ((1, "in", pytest.approx(1.2)),)

    def test_negative_entry_raises(self):
        g, c = path_graph(2)
        with pytest.raises(MalformedFlow):
            validate_flow(RhoFlow({(0, 1): -0.1}), g, c)

    def test_nan_entry_raises(self):
        g, c = path_graph(2)
        with pytest.raises(MalformedFlow, match="is negative or not finite"):
            validate_flow(RhoFlow({(0, 1): float("nan")}), g, c)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_entry_raises(self, value):
        """+inf passes a sign test alone, and its in-flow makes a nan net."""
        g, c = path_graph(2)
        with pytest.raises(MalformedFlow, match="is negative or not finite"):
            validate_flow(RhoFlow({(0, 1): value}), g, c)

    def test_cross_component_raises(self):
        g, c = build_graph([], [0.0, 0.0])
        with pytest.raises(MalformedFlow):
            validate_flow(RhoFlow({(0, 1): 0.5}), g, c)

    @pytest.mark.parametrize("pair", [(0, 3), (3, 0), (-1, 2), (2, -1)])
    def test_endpoint_outside_the_graph_raises(self, pair):
        g, c = path_graph(3)
        with pytest.raises(MalformedFlow, match="outside 0..2"):
            validate_flow(RhoFlow({pair: 0.25}), g, c)

    def test_purity_fields(self):
        g, c = path_graph(3)
        rep = validate_flow(RhoFlow({(0, 1): 0.5, (1, 2): 0.5}), g, c)
        assert rep.pure_sources.tolist() == [0]
        assert rep.pure_sinks.tolist() == [2]


class TestDefineFlow:
    def test_zero_supply(self):
        _, c = path_graph(4)
        rel = EquivRel.from_classes([[0, 1, 2, 3]], 4)
        flow = define_flow(rel, c, [0, 1], [2, 3], {0: 0.0, 1: 0.0})
        assert flow.entries == {}

    def test_single_pair(self):
        _, c = path_graph(2)
        rel = EquivRel.from_classes([[0, 1]], 2)
        flow = define_flow(rel, c, [0], [1], {0: 0.5})
        assert flow.entries == {(0, 1): 0.5}

    def test_water_filling_split(self):
        # heavy sender saturates the first receiver, spills into the second
        _, c = path_graph(3, np.log([2.0, 1.0, 1.0]))
        rel = EquivRel.from_classes([[0, 1, 2]], 3)
        flow = define_flow(rel, c, [0], [1, 2], {0: 1.0})
        assert flow.entries[(0, 1)] == pytest.approx(0.5)
        assert flow.entries[(0, 2)] == pytest.approx(0.5)
        inn = flow.in_flow(c, 3)
        assert inn[1] == pytest.approx(1.0)
        assert inn[2] == pytest.approx(1.0)

    def test_insufficient_capacity_names_class(self):
        _, c = path_graph(2)
        rel = EquivRel.from_classes([[0, 1]], 2)
        with pytest.raises(InsufficientCapacity) as err:
            define_flow(rel, c, [0], [], {0: 0.5})
        assert err.value.class_anchor == 0

    def test_overlap_rejected(self):
        _, c = path_graph(2)
        rel = EquivRel.from_classes([[0, 1]], 2)
        with pytest.raises(NotDisjoint):
            define_flow(rel, c, [0], [0, 1], {0: 0.5})

    def test_per_class_conservation_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            g, c, rel, U, V, w = make_feasible_instance(rng, n)
            flow = define_flow(rel, c, U, V, w)
            rep = validate_flow(flow, g, c)
            assert not rep.violations
            out = flow.out_flow(c, n)
            for u, s in w.items():
                assert out[u] == pytest.approx(s, abs=1e-12)
            nw = np.exp(c.log_weight - c.log_weight.max())
            inn = flow.in_flow(c, n)
            for cls in rel.classes:
                cls_set = set(int(x) for x in cls)
                want = sum(w.get(u, 0.0) * nw[u] for u in cls_set)
                got = sum(inn[v] * nw[v] for v in cls_set if v in set(V.tolist()))
                assert got == pytest.approx(want, abs=1e-9 * max(1.0, want))

    def test_exact_mode_conservation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            g, c, rel, U, V, w = make_feasible_instance(rng, n)
            flow = define_flow(rel, c, U, V, w, exact=True)
            rep = validate_flow(flow, g, c)
            assert not rep.violations


class TestBalanceCheck:
    def test_zero(self):
        g, c = path_graph(3)
        assert balance_check(RhoFlow.zero(), g, c, [0], [1, 2]) == (0.0, 0.0)

    def test_define_flow_outputs_balance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            g, c = random_connected(rng, n)
            rel = EquivRel.from_classes([list(range(n))], n)
            k = n // 2
            U, V = np.arange(k), np.arange(k, n)
            nw = np.exp(c.log_weight - c.log_weight.max())
            cap = nw[V].sum()
            raw = rng.uniform(0, 1, size=k)
            demand = float((raw * nw[U]).sum())
            w = {int(u): float(raw[i] * min(1.0, 0.9 * cap / max(demand, 1e-12))) for i, u in enumerate(U)}
            flow = define_flow(rel, c, U, V, w)
            out_int, in_int = balance_check(flow, g, c, U, V)
            assert in_int == pytest.approx(out_int, abs=1e-9 * max(1.0, out_int))

    def test_fubini_oracle_random_flow(self):
        # equality against a direct double-sum over the entries
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(3, 15))
            g, c = random_connected(rng, n)
            entries = {}
            for _ in range(int(rng.integers(1, 2 * n))):
                x, y = rng.integers(0, n, size=2)
                if x != y:
                    entries[(int(x), int(y))] = float(rng.uniform(0, 0.2))
            flow = RhoFlow(entries)
            U = np.unique([p[0] for p in entries])
            V = np.unique([p[1] for p in entries])
            if np.intersect1d(U, V).size or not len(entries):
                U = np.arange(n)
                V = np.arange(n)
            anchor = c.log_weight.max()
            oracle = sum(v * np.exp(c.log_weight[x] - anchor) for (x, y), v in entries.items())
            out_int, in_int = balance_check(flow, g, c, np.arange(n), np.arange(n))
            assert out_int == pytest.approx(oracle, rel=1e-12)
            assert in_int == pytest.approx(out_int, abs=1e-9 * max(1.0, out_int))

    def test_exact_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            g, c = random_connected(rng, n)
            entries = {}
            for _ in range(n):
                x, y = rng.integers(0, n, size=2)
                if x != y:
                    entries[(int(x), int(y))] = float(rng.uniform(0, 0.2))
            out_int, in_int = balance_check(RhoFlow(entries), g, c, np.arange(n), np.arange(n), exact=True)
            assert out_int == in_int

    def test_leak_rejected(self):
        g, c = path_graph(3)
        with pytest.raises(NotClosed):
            balance_check(RhoFlow({(0, 1): 0.5}), g, c, [0], [2])


class TestGlobalBalance:
    def test_zero(self):
        g, c = path_graph(3)
        mu = RhoMeasure.from_cocycle(g, c)
        assert global_balance(RhoFlow.zero(), g, c, mu) == 0.0

    def test_invariant_measure_balances(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            g, c, rel, U, V, w = make_feasible_instance(rng, n)
            flow = define_flow(rel, c, U, V, w)
            mu = RhoMeasure.from_cocycle(g, c)
            assert abs(global_balance(flow, g, c, mu)) <= 1e-9

    def test_perturbed_measure_detected(self):
        g, c = path_graph(2)
        rel = EquivRel.from_classes([[0, 1]], 2)
        flow = define_flow(rel, c, [0], [1], {0: 0.5})
        mu = RhoMeasure.from_cocycle(g, c)
        crooked = RhoMeasure(component_mass=mu.component_mass, atoms=np.array([0.7, 0.3]))
        assert abs(global_balance(flow, g, c, crooked)) > 1e-3


class TestSumFlows:
    def test_zero_identity(self):
        g, c = path_graph(3)
        f1 = RhoFlow({(0, 1): 0.4})
        total = sum_flows([f1, RhoFlow.zero()], g, c)
        assert total.entries == f1.entries

    def test_disjoint_domains(self):
        g, c = path_graph(4)
        total = sum_flows([RhoFlow({(0, 1): 0.5}), RhoFlow({(2, 3): 0.5})], g, c)
        assert len(total.entries) == 2

    def test_bound_breach(self):
        g, c = path_graph(2)
        with pytest.raises(MalformedFlow):
            sum_flows([RhoFlow({(0, 1): 0.6}), RhoFlow({(0, 1): 0.6})], g, c)


class TestDisbalanceReport:
    def test_zero_everywhere_none(self):
        g, c = build_graph([(0, 1), (2, 3)], np.zeros(4))
        assert disbalance_report(RhoFlow.zero(), g, c) == {0: "none", 1: "none"}

    def test_split_transfer_mixed(self):
        _, c = path_graph(3, np.log([2.0, 1.0, 1.0]))
        g, _ = build_graph([(0, 1), (0, 2)], np.log([2.0, 1.0, 1.0]))
        rel = EquivRel.from_classes([[0, 1, 2]], 3)
        flow = define_flow(rel, c, [0], [1, 2], {0: 1.0})
        assert disbalance_report(flow, g, c) == {0: "mixed"}

    def test_chain_with_balanced_middle(self):
        g, c = path_graph(3)
        flow = RhoFlow({(0, 1): 0.5, (1, 2): 0.5})
        rep = validate_flow(flow, g, c)
        assert rep.sources.tolist() == [0]
        assert rep.sinks.tolist() == [2]
        assert disbalance_report(flow, g, c) == {0: "mixed"}

    def test_no_sources_only_with_invariant_measure(self):
        # with an invariant probability measure the net integral is zero, so
        # a component carrying flow cannot consist of sources alone
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            g, c, rel, U, V, w = make_feasible_instance(rng, n)
            flow = define_flow(rel, c, U, V, w)
            tags = disbalance_report(flow, g, c)
            rep = validate_flow(flow, g, c)
            for comp, tag in tags.items():
                members = set(g.component_members(comp).tolist())
                carries = any(x in members for (x, y) in flow.domain())
                if carries and (set(rep.sources.tolist()) | set(rep.sinks.tolist())) & members:
                    assert tag == "mixed"


class TestFlowFile:
    def test_round_trip(self, tmp_path):
        flow = RhoFlow({(0, 1): 0.25, (3, 2): 0.5})
        path = tmp_path / "flow.txt"
        write_flow_file(path, flow)
        back = read_flow_file(path)
        assert back.entries == flow.entries

    @pytest.mark.parametrize(
        "text",
        ["0 1 0.25\n2 3\n", "0 1 0.25 7\n", "0 x 0.25\n", "0 1.5 0.25\n", "0 1 abc\n"],
        ids=["two-tokens", "four-tokens", "non-integer", "fractional-vertex", "non-numeric-value"],
    )
    def test_unparsable_line_rejected(self, tmp_path, text):
        path = tmp_path / "flow.txt"
        path.write_text("# header comment\n" + text)
        line = 1 + text.count("\n")  # the last line, after the comment
        with pytest.raises(MalformedFlow, match=f"line {line} must be 'x y value'"):
            read_flow_file(path)
