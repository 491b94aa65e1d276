"""Prepartitions (disjoint cell families) and full equivalence relations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotCoherent
from .graph import is_connected_set, label_components
from .validation import as_vertex_array


def _canonical_classes(groups):
    """Sort members within each class and classes by smallest member."""
    cleaned = [np.array(sorted(int(v) for v in g), dtype=np.int64) for g in groups if len(g)]
    cleaned.sort(key=lambda a: int(a[0]))
    return cleaned


def _first_member_edges(labels):
    """Edges from each labelled vertex to the smallest vertex sharing its label.

    Label -1 marks an unlabelled vertex, which gets no edge.
    """
    members = np.flatnonzero(labels >= 0)
    _, first, inverse = np.unique(labels[members], return_index=True, return_inverse=True)
    return np.stack([members, members[first][inverse]], axis=1)


def _groups(labels, count):
    """Sorted members of each label 0..count-1, in label order.

    Vertices labelled -1 sort first and are left out.
    """
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels[labels >= 0], minlength=count)
    return np.split(order[len(order) - int(sizes.sum()):], np.cumsum(sizes))[:-1]


class EquivRel:
    """Partition of all vertices; classes ordered by their smallest member."""

    __slots__ = ("class_of", "classes")

    def __init__(self, class_of, classes):
        self.class_of = class_of
        self.classes = classes

    @classmethod
    def identity(cls, n):
        class_of = np.arange(n, dtype=np.int64)
        classes = [np.array([i], dtype=np.int64) for i in range(n)]
        return cls(class_of, classes)

    @classmethod
    def from_labels(cls, labels):
        labels = np.asarray(labels, dtype=np.int64)
        groups = {}
        for v, lab in enumerate(labels):
            groups.setdefault(int(lab), []).append(v)
        classes = _canonical_classes(groups.values())
        class_of = np.empty(len(labels), dtype=np.int64)
        for i, c in enumerate(classes):
            class_of[c] = i
        return cls(class_of, classes)

    @classmethod
    def from_classes(cls, groups, n):
        classes = _canonical_classes(groups)
        class_of = np.full(n, -1, dtype=np.int64)
        for i, c in enumerate(classes):
            if np.any(class_of[c] != -1):
                raise ValueError("classes overlap")
            class_of[c] = i
        if np.any(class_of == -1):
            raise ValueError("classes must cover every vertex")
        return cls(class_of, classes)

    @property
    def vertex_count(self):
        return len(self.class_of)

    @property
    def class_count(self):
        return len(self.classes)

    def join(self, other):
        """Smallest common coarsening (classes of the union of both relations)."""
        edges = np.concatenate([_first_member_edges(self.class_of), _first_member_edges(other.class_of)])
        labels, count = label_components(self.vertex_count, edges)
        return EquivRel(labels, _groups(labels, count))

    def is_graph_connected(self, graph):
        return all(is_connected_set(graph, c) for c in self.classes)

    def refines(self, other):
        """True iff every class of self is contained in a class of other."""
        return all(np.unique(other.class_of[c]).size == 1 for c in self.classes)

    def __eq__(self, other):
        if not isinstance(other, EquivRel):
            return NotImplemented
        return len(self.classes) == len(other.classes) and all(
            np.array_equal(a, b) for a, b in zip(self.classes, other.classes)
        )


class Prepartition:
    """Pairwise disjoint nonempty cells; vertices off the domain are free."""

    __slots__ = ("cells", "cell_of")

    def __init__(self, cells, cell_of):
        self.cells = cells
        self.cell_of = cell_of

    @classmethod
    def empty(cls, n):
        return cls([], np.full(n, -1, dtype=np.int64))

    @classmethod
    def from_cells(cls, cells, n):
        canon = _canonical_classes(cells)
        cell_of = np.full(n, -1, dtype=np.int64)
        for i, c in enumerate(canon):
            if c[0] < 0 or c[-1] >= n:
                raise IndexError("cell vertex out of range")
            if np.any(cell_of[c] != -1):
                raise ValueError("cells must be pairwise disjoint")
            cell_of[c] = i
        return cls(canon, cell_of)

    @property
    def vertex_count(self):
        return len(self.cell_of)

    @property
    def cell_count(self):
        return len(self.cells)

    def domain(self):
        return np.flatnonzero(self.cell_of >= 0)

    def domain_mask(self):
        return self.cell_of >= 0

    def to_equiv(self):
        """Induced relation: the cells, plus singletons off the domain."""
        groups = list(self.cells) + [[v] for v in np.flatnonzero(self.cell_of < 0)]
        return EquivRel.from_classes(groups, self.vertex_count)

    def is_invariant(self, U):
        """True iff U is a union of cells plus free vertices (cuts no cell)."""
        U = as_vertex_array(U, self.vertex_count)
        mask = np.zeros(self.vertex_count, dtype=bool)
        mask[U] = True
        for ci in np.unique(self.cell_of[U]):
            if ci >= 0 and not mask[self.cells[ci]].all():
                return False
        return True

    def cells_inside(self, U):
        """Indices of cells entirely contained in U."""
        U = as_vertex_array(U, self.vertex_count)
        mask = np.zeros(self.vertex_count, dtype=bool)
        mask[U] = True
        out = []
        for ci in np.unique(self.cell_of[U]):
            if ci >= 0 and mask[self.cells[ci]].all():
                out.append(int(ci))
        return out

    def __eq__(self, other):
        if not isinstance(other, Prepartition):
            return NotImplemented
        return len(self.cells) == len(other.cells) and all(
            np.array_equal(a, b) for a, b in zip(self.cells, other.cells)
        )

    def dump(self, path):
        """One line per cell: space-separated vertex ids."""
        with open(path, "w", encoding="utf-8") as fh:
            for c in self.cells:
                fh.write(" ".join(str(int(v)) for v in c) + "\n")

    @classmethod
    def load(cls, path, n):
        cells = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    cells.append([int(t) for t in line.split()])
        return cls.from_cells(cells, n)


@dataclass(frozen=True)
class CoherentLimit:
    prepartition: Prepartition
    stabilized: bool


def coherent_limit(parts):
    """Limit of a coherent sequence of prepartitions.

    Classes of the joined induced relations, restricted to the union of the
    domains. Raises NotCoherent (naming the offending pair) if a later cell
    cuts an earlier one. The stabilized flag records whether every limit cell
    already appears in some member of the sequence.
    """
    if not parts:
        raise ValueError("need at least one prepartition")
    n = parts[0].vertex_count
    for idx, p in enumerate(parts):
        if p.vertex_count != n:
            raise ValueError("prepartitions must share a vertex set")
        for j in range(idx + 1, len(parts)):
            later = parts[j]
            for c in later.cells:
                if not p.is_invariant(c):
                    raise NotCoherent(
                        f"prepartition {j} has a cell cutting a cell of prepartition {idx}"
                    )

    covered = np.zeros(n, dtype=bool)
    for p in parts:
        covered |= p.domain_mask()
    edges = np.concatenate([_first_member_edges(p.cell_of) for p in parts])
    labels, count = label_components(n, edges, keep=covered)
    limit = Prepartition.from_cells(_groups(labels, count), n)

    seen = set()
    for p in parts:
        for c in p.cells:
            seen.add(tuple(int(v) for v in c))
    stabilized = all(tuple(int(v) for v in c) in seen for c in limit.cells)
    return CoherentLimit(prepartition=limit, stabilized=stabilized)
