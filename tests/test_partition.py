import numpy as np
import pytest

from ergodic_tiler import EquivRel, NotCoherent, Prepartition, build_graph, coherent_limit


class TestEquivRel:
    def test_identity(self):
        rel = EquivRel.identity(4)
        assert rel.class_count == 4
        assert rel.class_of.tolist() == [0, 1, 2, 3]

    def test_from_labels_canonical_order(self):
        rel = EquivRel.from_labels([9, 9, 4, 4, 9])
        assert [c.tolist() for c in rel.classes] == [[0, 1, 4], [2, 3]]

    def test_join(self):
        a = EquivRel.from_classes([[0, 1], [2], [3]], 4)
        b = EquivRel.from_classes([[0], [1, 2], [3]], 4)
        j = a.join(b)
        assert [c.tolist() for c in j.classes] == [[0, 1, 2], [3]]
        # random relations against a brute-force union-find over both
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            a = EquivRel.from_labels(rng.integers(0, n, size=n))
            b = EquivRel.from_labels(rng.integers(0, n, size=n))
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for rel in (a, b):
                for c in rel.classes:
                    for v in c[1:]:
                        parent[find(int(v))] = find(int(c[0]))
            j = a.join(b)
            expect = EquivRel.from_labels([find(v) for v in range(n)])
            assert j == expect
            assert j.class_of.tolist() == expect.class_of.tolist()

    def test_refines(self):
        fine = EquivRel.from_classes([[0], [1], [2, 3]], 4)
        coarse = EquivRel.from_classes([[0, 1], [2, 3]], 4)
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_graph_connected_flag(self):
        g, _ = build_graph([(0, 1), (1, 2)], np.zeros(3))
        assert EquivRel.from_classes([[0, 1], [2]], 3).is_graph_connected(g)
        assert not EquivRel.from_classes([[0, 2], [1]], 3).is_graph_connected(g)


class TestPrepartition:
    def test_from_cells_disjointness(self):
        with pytest.raises(ValueError):
            Prepartition.from_cells([[0, 1], [1, 2]], 3)

    def test_domain_and_equiv(self):
        p = Prepartition.from_cells([[1, 2]], 4)
        assert p.domain().tolist() == [1, 2]
        rel = p.to_equiv()
        assert [c.tolist() for c in rel.classes] == [[0], [1, 2], [3]]

    def test_invariance(self):
        p = Prepartition.from_cells([[0, 1], [3]], 5)
        assert p.is_invariant([0, 1, 2])
        assert not p.is_invariant([1, 2])
        assert p.is_invariant([2, 4])

    def test_cells_inside(self):
        p = Prepartition.from_cells([[0, 1], [3]], 5)
        assert p.cells_inside([0, 1, 3, 4]) == [0, 1]
        assert p.cells_inside([0, 2]) == []

    def test_dump_load_round_trip(self, tmp_path):
        p = Prepartition.from_cells([[4, 2], [0]], 6)
        path = tmp_path / "cells.txt"
        p.dump(path)
        q = Prepartition.load(path, 6)
        assert p == q


class TestCoherentLimit:
    def test_constant_sequence(self):
        p = Prepartition.from_cells([[0, 1], [2]], 4)
        res = coherent_limit([p, p, p])
        assert res.prepartition == p
        assert res.stabilized

    def test_merging_pairs(self):
        p1 = Prepartition.from_cells([[0], [1], [2], [3]], 5)
        p2 = Prepartition.from_cells([[0, 1], [2, 3]], 5)
        res = coherent_limit([p1, p2])
        assert [c.tolist() for c in res.prepartition.cells] == [[0, 1], [2, 3]]
        assert res.stabilized

    def test_cutting_rejected(self):
        p1 = Prepartition.from_cells([[0, 1]], 4)
        p2 = Prepartition.from_cells([[1, 2]], 4)
        with pytest.raises(NotCoherent):
            coherent_limit([p1, p2])

    def test_union_of_relations_vs_union_find_oracle(self):
        # classes of the limit match a hand-rolled union-find over all cells
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(4, 14))
            seq = []
            current = [[v] for v in range(n)]
            for _ in range(int(rng.integers(1, 4))):
                chosen = [c for c in current if rng.random() < 0.7]
                if not chosen:
                    chosen = current[:1]
                seq.append(Prepartition.from_cells(chosen, n))
                # coarsen: merge a random adjacent pair of chosen cells
                if len(chosen) >= 2:
                    i, j = rng.choice(len(chosen), size=2, replace=False)
                    merged = sorted(set(int(v) for v in chosen[i]) | set(int(v) for v in chosen[j]))
                    current = [c for k, c in enumerate(chosen) if k not in (i, j)] + [merged]
                else:
                    current = chosen
            res = coherent_limit(seq)

            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            covered = set()
            for p in seq:
                for c in p.cells:
                    covered.update(int(v) for v in c)
                    for v in c[1:]:
                        parent[find(int(v))] = find(int(c[0]))
            expect = {}
            for v in sorted(covered):
                expect.setdefault(find(v), []).append(v)
            expected_cells = sorted([sorted(vs) for vs in expect.values()])
            got = sorted([c.tolist() for c in res.prepartition.cells])
            assert got == expected_cells

    def test_unstabilized_flagged(self):
        # the limit merges two cells that never appear together in the sequence
        p1 = Prepartition.from_cells([[0, 1], [2, 3]], 4)
        p2 = Prepartition.from_cells([[0, 1, 2, 3]], 4)
        res = coherent_limit([p1, p2])
        assert res.stabilized  # the merged cell does appear in p2
        p3 = Prepartition.from_cells([[0, 1]], 4)
        p4 = Prepartition.from_cells([[2, 3]], 4)
        res2 = coherent_limit([p3, p4])
        assert res2.stabilized
