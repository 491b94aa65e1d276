import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_tiler import EquivRel, NotCoherent, Prepartition, build_graph, coherent_limit


# Reference constructions for the label canonicaliser: one Python sort and
# one assignment loop per class.
def ref_canonical_classes(groups):
    cleaned = [np.array(sorted(int(v) for v in g), dtype=np.int64) for g in groups if len(g)]
    cleaned.sort(key=lambda a: int(a[0]))
    return cleaned


def ref_from_labels(labels):
    groups = {}
    for v, lab in enumerate(np.asarray(labels, dtype=np.int64)):
        groups.setdefault(int(lab), []).append(v)
    classes = ref_canonical_classes(groups.values())
    class_of = np.empty(len(labels), dtype=np.int64)
    for i, c in enumerate(classes):
        class_of[c] = i
    return class_of, classes


def ref_from_groups(groups, n):
    """(labels, groups) with -1 on vertices in no group; groups assumed disjoint."""
    canon = ref_canonical_classes(groups)
    labels = np.full(n, -1, dtype=np.int64)
    for i, c in enumerate(canon):
        labels[c] = i
    return labels, canon


def ref_to_equiv(cells, cell_of):
    groups = list(cells) + [[v] for v in np.flatnonzero(cell_of < 0)]
    return ref_from_groups(groups, len(cell_of))


@st.composite
def labelled_groups(draw, cover):
    """(n, groups): disjoint groups in shuffled order with shuffled members,
    covering every vertex when cover is set, plus some empty groups."""
    n = draw(st.integers(0, 30))
    low = 0 if cover else -1
    labels = draw(st.lists(st.integers(low, max(n - 1, 0)), min_size=n, max_size=n))
    groups = [draw(st.permutations([v for v in range(n) if labels[v] == lab])) for lab in set(labels) if lab >= 0]
    groups += [[]] * draw(st.integers(0, 2))
    return n, draw(st.permutations(groups))


def assert_same_members(got, expect):
    assert len(got) == len(expect)
    assert all(np.array_equal(a, b) for a, b in zip(got, expect))


class TestCanonicalLabels:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 8), max_size=30))
    def test_from_labels_matches_reference(self, labels):
        rel = EquivRel.from_labels(labels)
        class_of, classes = ref_from_labels(labels)
        assert rel.class_of.tolist() == class_of.tolist()
        assert rel.class_count == len(classes)
        assert_same_members(rel.classes, classes)

    @settings(max_examples=200, deadline=None)
    @given(labelled_groups(cover=True))
    def test_from_classes_matches_reference(self, case):
        n, groups = case
        rel = EquivRel.from_classes(groups, n)
        class_of, classes = ref_from_groups(groups, n)
        assert rel.class_of.tolist() == class_of.tolist()
        assert_same_members(rel.classes, classes)

    @settings(max_examples=200, deadline=None)
    @given(labelled_groups(cover=False))
    def test_from_cells_and_to_equiv_match_reference(self, case):
        n, groups = case
        part = Prepartition.from_cells(groups, n)
        cell_of, cells = ref_from_groups(groups, n)
        assert part.cell_of.tolist() == cell_of.tolist()
        assert part.cell_count == len(cells)
        assert_same_members(part.cells, cells)
        assert part == Prepartition.from_labels(cell_of)
        rel = part.to_equiv()
        class_of, classes = ref_to_equiv(cells, cell_of)
        assert rel.class_of.tolist() == class_of.tolist()
        assert_same_members(rel.classes, classes)

    def test_errors(self):
        with pytest.raises(IndexError, match="cell vertex out of range"):
            Prepartition.from_cells([[0, 3]], 3)
        with pytest.raises(IndexError, match="cell vertex out of range"):
            Prepartition.from_cells([[-1, 0]], 3)
        with pytest.raises(IndexError, match="class vertex out of range"):
            EquivRel.from_classes([[0, 1], [2, 3]], 3)
        with pytest.raises(ValueError, match="classes overlap"):
            EquivRel.from_classes([[0, 1], [1, 2]], 3)
        with pytest.raises(ValueError, match="classes must cover every vertex"):
            EquivRel.from_classes([[0]], 2)

    def test_identity_builds_no_classes_until_read(self):
        rel = EquivRel.identity(5)
        assert rel._classes is None
        assert [c.tolist() for c in rel.classes] == [[0], [1], [2], [3], [4]]


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
        # a vertex repeated inside one cell overlaps that cell
        with pytest.raises(ValueError, match="cells must be pairwise disjoint"):
            Prepartition.from_cells([[1, 1]], 3)

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
