"""Prepartitions (disjoint cell families) and full equivalence relations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotCoherent
from .graph import is_connected_set, label_components
from .validation import as_vertex_array, sorted_distinct


def _canonical_labels(labels):
    """Renumber classes 0..count-1 in the order of their smallest members.

    Label -1 (any negative label) marks a free vertex and stays -1. Returns
    (labels, count).
    """
    labels = np.asarray(labels, dtype=np.int64)
    members = np.flatnonzero(labels >= 0)
    _, first, inverse = np.unique(labels[members], return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    # first holds distinct values, so any sort gives this order; the stable
    # kernel is the one _groups already loads (the default one pages in
    # another 256 KiB of code on its first call)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    out = np.full(labels.shape, -1, dtype=np.int64)
    out[members] = rank[inverse]
    return out, int(first.size)


def _group_labels(groups, n, noun, overlap):
    """Canonical labels of disjoint vertex groups; vertices in no group get -1.

    Raises IndexError for a vertex outside 0..n-1, and ValueError(overlap)
    when a vertex appears twice, in two groups or twice in one.
    """
    groups = [np.asarray(g, dtype=np.int64).ravel() for g in groups]
    members = np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
    if members.size and (members.min() < 0 or members.max() >= n):
        raise IndexError(f"{noun} vertex out of range")
    if members.size and np.bincount(members, minlength=n).max() > 1:
        raise ValueError(overlap)
    labels = np.full(n, -1, dtype=np.int64)
    labels[members] = np.repeat(np.arange(len(groups)), [g.size for g in groups])
    return _canonical_labels(labels)


def _first_member_edges(labels):
    """Edges from each labelled vertex to the smallest vertex sharing its label.

    Label -1 marks an unlabelled vertex, which gets no edge, and so does the
    smallest vertex of each label, whose edge would be a loop.
    """
    members = np.flatnonzero(labels >= 0)
    _, first, inverse = np.unique(labels[members], return_index=True, return_inverse=True)
    heads = members[first][inverse]
    moved = heads != members
    return np.stack([members[moved], heads[moved]], axis=1)


def _groups(labels, count):
    """Sorted members of each label 0..count-1, in label order.

    Vertices labelled -1 sort first and are left out.
    """
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels[labels >= 0], minlength=count)
    return np.split(order[len(order) - int(sizes.sum()):], np.cumsum(sizes))[:-1]


class EquivRel:
    """Partition of all vertices, stored as one canonical label per vertex.

    Classes are numbered by their smallest member; the member arrays are
    built on first read of `classes`.
    """

    __slots__ = ("class_of", "class_count", "_classes")

    def __init__(self, class_of, class_count):
        self.class_of = class_of
        self.class_count = class_count
        self._classes = None

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n, dtype=np.int64), n)

    @classmethod
    def from_labels(cls, labels):
        """Classes of equal labels; any integer may serve as a label."""
        labels = np.asarray(labels, dtype=np.int64)
        return cls(*_canonical_labels(np.unique(labels, return_inverse=True)[1]))

    @classmethod
    def from_classes(cls, groups, n):
        class_of, count = _group_labels(groups, n, "class", "classes overlap")
        if np.any(class_of < 0):
            raise ValueError("classes must cover every vertex")
        return cls(class_of, count)

    @property
    def classes(self):
        if self._classes is None:
            self._classes = _groups(self.class_of, self.class_count)
        return self._classes

    @property
    def vertex_count(self):
        return len(self.class_of)

    def join(self, other):
        """Smallest common coarsening (classes of the union of both relations)."""
        edges = np.concatenate([_first_member_edges(self.class_of), _first_member_edges(other.class_of)])
        return EquivRel(*label_components(self.vertex_count, edges))

    def is_graph_connected(self, graph):
        return all(is_connected_set(graph, c) for c in self.classes)

    def refines(self, other):
        """True iff every class of self is contained in a class of other."""
        return all(sorted_distinct(other.class_of[c]).size == 1 for c in self.classes)

    def __eq__(self, other):
        if not isinstance(other, EquivRel):
            return NotImplemented
        return np.array_equal(self.class_of, other.class_of)


class Prepartition:
    """Pairwise disjoint nonempty cells; vertices off the domain are free.

    Stored as one canonical cell label per vertex, -1 off the domain; the
    member arrays are built on first read of `cells`.
    """

    __slots__ = ("cell_of", "cell_count", "_cells")

    def __init__(self, cell_of, cell_count):
        self.cell_of = cell_of
        self.cell_count = cell_count
        self._cells = None

    @classmethod
    def empty(cls, n):
        return cls(np.full(n, -1, dtype=np.int64), 0)

    @classmethod
    def from_labels(cls, labels):
        """Cells of equal nonnegative labels; negative labels mark free vertices."""
        return cls(*_canonical_labels(labels))

    @classmethod
    def from_cells(cls, cells, n):
        return cls(*_group_labels(cells, n, "cell", "cells must be pairwise disjoint"))

    @property
    def cells(self):
        if self._cells is None:
            self._cells = _groups(self.cell_of, self.cell_count)
        return self._cells

    @property
    def vertex_count(self):
        return len(self.cell_of)

    def domain(self):
        return np.flatnonzero(self.cell_of >= 0)

    def domain_mask(self):
        return self.cell_of >= 0

    def to_equiv(self):
        """Induced relation: the cells, plus singletons off the domain."""
        free = self.cell_of < 0
        labels = self.cell_of.copy()
        labels[free] = self.cell_count + np.arange(np.count_nonzero(free))
        return EquivRel(*_canonical_labels(labels))

    def is_invariant(self, U):
        """True iff U is a union of cells plus free vertices (cuts no cell)."""
        U = as_vertex_array(U, self.vertex_count)
        mask = np.zeros(self.vertex_count, dtype=bool)
        mask[U] = True
        for ci in sorted_distinct(self.cell_of[U]):
            if ci >= 0 and not mask[self.cells[ci]].all():
                return False
        return True

    def cells_inside(self, U):
        """Indices of cells entirely contained in U."""
        U = as_vertex_array(U, self.vertex_count)
        mask = np.zeros(self.vertex_count, dtype=bool)
        mask[U] = True
        out = []
        for ci in sorted_distinct(self.cell_of[U]):
            if ci >= 0 and mask[self.cells[ci]].all():
                out.append(int(ci))
        return out

    def __eq__(self, other):
        if not isinstance(other, Prepartition):
            return NotImplemented
        return np.array_equal(self.cell_of, other.cell_of)

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
    labels, _ = label_components(n, edges, keep=covered)
    limit = Prepartition.from_labels(labels)

    seen = set()
    for p in parts:
        for c in p.cells:
            seen.add(tuple(int(v) for v in c))
    stabilized = all(tuple(int(v) for v in c) in seen for c in limit.cells)
    return CoherentLimit(prepartition=limit, stabilized=stabilized)
