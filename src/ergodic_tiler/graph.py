"""Finite weighted graphs, multiplicative vertex weights, and invariant measures.

A cocycle on a finite connected graph is always a coboundary, so it is stored
as one log-weight per vertex; every pairwise ratio is a difference of logs.
Quantities that must not depend on a reference vertex are computed after
dividing by the largest weight of the set at hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DisconnectedClass, MalformedGraph
from .validation import as_values_array, as_vertex_array, require_nonempty, require_same_component


class WeightedGraph:
    """Simple undirected graph in CSR form with per-vertex component labels."""

    __slots__ = ("vertex_count", "indptr", "indices", "component_id", "_edges")

    def __init__(self, vertex_count, indptr, indices, component_id, edges):
        self.vertex_count = int(vertex_count)
        self.indptr = indptr
        self.indices = indices
        self.component_id = component_id
        self._edges = edges

    def neighbors(self, v):
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def edge_count(self):
        return len(self._edges)

    def edges(self):
        """Edges as an (m, 2) array with u < v, sorted lexicographically."""
        return self._edges

    @property
    def component_count(self):
        return int(self.component_id.max()) + 1 if self.vertex_count else 0

    def component_members(self, c):
        return np.flatnonzero(self.component_id == c)


def label_components(n, edges, keep=None):
    """Connected pieces of the graph on vertices 0..n-1 with the given edges.

    Returns (labels, count). Pieces are numbered in the order of their
    smallest vertices. With a boolean mask keep, only the subgraph induced on
    the kept vertices is labelled; edges touching other vertices are ignored
    and those vertices get label -1.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        edges = edges[keep[edges[:, 0]] & keep[edges[:, 1]]]
        local = np.cumsum(keep) - 1
        inner, count = label_components(int(np.count_nonzero(keep)), local[edges])
        labels = np.full(n, -1, dtype=np.int64)
        labels[keep] = inner
        return labels, count
    # Hook each root onto the smallest root across its edges, then point every
    # vertex straight at its root; roots only move down, so each piece ends
    # rooted at its smallest vertex. Edges inside one piece are dropped.
    root = np.arange(n)
    u, v = edges[:, 0], edges[:, 1]
    while u.size:
        ru, rv = root[u], root[v]
        split = ru != rv
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        if not u.size:
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    heads = root == np.arange(n)
    return (np.cumsum(heads) - 1)[root], int(np.count_nonzero(heads))


@dataclass(frozen=True)
class Cocycle:
    """Positive vertex weights in the log domain.

    ratio(x, y) is the mass of x relative to y; the multiplicative identity
    ratio(x,y) * ratio(y,z) = ratio(x,z) telescopes exactly because every
    ratio is a difference of the same per-vertex logs.
    """

    log_weight: np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.log_weight, dtype=float)
        object.__setattr__(self, "log_weight", lw)

    def log_ratio(self, x, y):
        return self.log_weight[x] - self.log_weight[y]

    def ratio(self, x, y):
        return math.exp(self.log_weight[x] - self.log_weight[y])

    def component_normalized_weights(self, graph):
        """Weights divided by the max weight of their own component."""
        lw = self.log_weight
        n_comp = graph.component_count
        comp_max = np.full(n_comp, -np.inf)
        np.maximum.at(comp_max, graph.component_id, lw)
        return np.exp(lw - comp_max[graph.component_id])


def build_graph(edges, log_weights):
    """Build a simple symmetric graph with its component labels.

    Rejects edges that are not vertex pairs, self-loops, duplicate edges (in
    either orientation), endpoints out of range, and non-finite weights; the
    message names the first offending edge in input order.
    """
    lw = np.asarray(log_weights, dtype=float)
    n = len(lw)
    if n and not np.all(np.isfinite(lw)):
        raise MalformedGraph("log-weights must be finite")

    try:
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    except OverflowError:
        raise MalformedGraph(f"edge endpoint out of range for {n} vertices") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    elif pairs.ndim != 2 or pairs.shape[1] != 2:
        raise MalformedGraph("edges must be vertex pairs")
    keys = np.sort(pairs, axis=1)
    # every edge before the first self-loop or out-of-range edge lies in
    # range, so its key codes as lo * n + hi; a stable sort puts each
    # repeated code after its first occurrence
    bad = np.flatnonzero((keys[:, 0] == keys[:, 1]) | (keys[:, 0] < 0) | (keys[:, 1] >= n))
    stop = int(bad[0]) if bad.size else len(keys)
    codes = keys[:stop, 0] * n + keys[:stop, 1]
    by_code = np.argsort(codes, kind="stable")
    repeats = by_code[1:][codes[by_code[1:]] == codes[by_code[:-1]]]
    if repeats.size:
        u, v = keys[repeats.min()].tolist()
        raise MalformedGraph(f"duplicate edge {(u, v)}")
    if stop < len(keys):
        u, v = pairs[stop].tolist()
        if u == v:
            raise MalformedGraph(f"self-loop at vertex {u}")
        raise MalformedGraph(f"edge ({u}, {v}) endpoint out of range for {n} vertices")

    if len(keys):
        earr = keys[by_code]
        both = np.concatenate([earr, earr[:, ::-1]])
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        counts = np.bincount(both[:, 0], minlength=n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        indices = both[:, 1].copy()
    else:
        earr = np.empty((0, 2), dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(0, dtype=np.int64)

    component_id, _ = label_components(n, earr)
    graph = WeightedGraph(n, indptr, indices, component_id, earr)
    return graph, Cocycle(lw)


def outer_boundary(graph, U):
    """Vertices outside U adjacent to some vertex of U."""
    U = as_vertex_array(U, graph.vertex_count)
    require_nonempty(U)
    in_u = np.zeros(graph.vertex_count, dtype=bool)
    in_u[U] = True
    out = set()
    for u in U:
        for v in graph.neighbors(u):
            if not in_u[v]:
                out.add(int(v))
    return np.array(sorted(out), dtype=np.int64)


def is_connected_set(graph, U):
    """True iff the induced subgraph on U is connected; empty and singletons count."""
    U = as_vertex_array(U, graph.vertex_count)
    if U.size <= 1:
        return True
    # gather the CSR rows of U only, so the cost is O(|U| + edges at U), not O(n)
    lo, hi = graph.indptr[U], graph.indptr[U + 1]
    degree = hi - lo
    rows = np.repeat(lo - np.cumsum(degree) + degree, degree) + np.arange(degree.sum())
    nbr = graph.indices[rows]
    pos = np.searchsorted(U, nbr)
    inside = U[np.minimum(pos, U.size - 1)] == nbr
    src = np.repeat(np.arange(U.size), degree)
    return label_components(U.size, np.stack([src[inside], pos[inside]], axis=1))[1] == 1


def rho_max_ratio(graph, cocycle, U):
    """Total mass of U over its largest single mass; in [1, len(U)]."""
    U = as_vertex_array(U, graph.vertex_count)
    require_nonempty(U)
    require_same_component(graph, U)
    lw = cocycle.log_weight[U]
    return float(np.exp(lw - lw.max()).sum())


def rho_order_key(cocycle, x):
    """Sort key for the weight order with vertex-id tie-break.

    Ascending sort gives the increasing weight order; reverse it for the
    decreasing enumeration (ties then come out in increasing id order).
    """
    return (float(cocycle.log_weight[x]), -int(x))


def rho_sorted(cocycle, vertices):
    """Vertices in decreasing weight order, ties in increasing id order."""
    verts = [int(v) for v in vertices]
    verts.sort(key=lambda v: rho_order_key(cocycle, v), reverse=True)
    return verts


@dataclass(frozen=True)
class RhoMeasure:
    """Probability measure whose atom ratios within a component equal the weight ratios."""

    component_mass: np.ndarray
    atoms: np.ndarray

    @classmethod
    def from_cocycle(cls, graph, cocycle, component_mass=None):
        """Size-proportional component masses by default, so a trivial cocycle
        yields the uniform measure."""
        n_comp = graph.component_count
        if component_mass is None:
            sizes = np.bincount(graph.component_id, minlength=n_comp).astype(float)
            component_mass = sizes / sizes.sum() if graph.vertex_count else sizes
        else:
            component_mass = np.asarray(component_mass, dtype=float)
            if component_mass.shape != (n_comp,):
                raise ValueError(f"need one mass per component ({n_comp})")
            if np.any(component_mass <= 0):
                raise ValueError("component masses must be positive")
            if not math.isclose(component_mass.sum(), 1.0, rel_tol=1e-12):
                raise ValueError("component masses must sum to 1")
        nw = cocycle.component_normalized_weights(graph)
        comp_tot = np.zeros(n_comp)
        np.add.at(comp_tot, graph.component_id, nw)
        atoms = component_mass[graph.component_id] * nw / comp_tot[graph.component_id]
        return cls(component_mass=component_mass, atoms=atoms)

    @staticmethod
    def fraction_atoms(graph, cocycle, component_mass=None):
        """Exact rational atoms built from the same normalized weights the
        float path uses, so identities involving both sides telescope in Q."""
        n_comp = graph.component_count
        if component_mass is None:
            sizes = np.bincount(graph.component_id, minlength=n_comp)
            total = int(sizes.sum())
            component_mass = [Fraction(int(s), total) for s in sizes]
        nw = cocycle.component_normalized_weights(graph)
        w = [Fraction(float(x)) for x in nw]
        comp_tot = [Fraction(0)] * n_comp
        for v in range(graph.vertex_count):
            comp_tot[graph.component_id[v]] += w[v]
        return [
            component_mass[graph.component_id[v]] * w[v] / comp_tot[graph.component_id[v]]
            for v in range(graph.vertex_count)
        ]

    def mass(self, U):
        U = np.asarray(list(U) if not isinstance(U, np.ndarray) else U, dtype=np.int64)
        return float(self.atoms[U].sum()) if U.size else 0.0

    def total(self):
        return float(self.atoms.sum())

    def integrate(self, values):
        return float(np.dot(self.atoms, as_values_array(values, len(self.atoms))))


@dataclass(frozen=True)
class QuotientResult:
    """Contraction of a graph along connected equivalence classes.

    class_of is the relation's own label array: base vertex to quotient vertex.
    """

    graph: WeightedGraph
    cocycle: Cocycle
    values: np.ndarray
    class_of: np.ndarray


def class_means(cocycle, class_of, k, f, g=None):
    """Weighted mean of f over each of the k classes, and each class's log-mass.

    Every class is weighted relative to its own heaviest vertex, so no class
    mass underflows however far apart the log-weights lie. With g, the mean
    is sum(f w) / sum(g w): the mean of f/g under the g-rescaled weights.
    """
    lw = cocycle.log_weight
    top = np.full(k, -np.inf)
    np.maximum.at(top, class_of, lw)
    w = np.exp(lw - top[class_of])
    tot = np.bincount(class_of, weights=w, minlength=k)
    num = np.bincount(class_of, weights=f * w, minlength=k)
    den = tot if g is None else np.bincount(class_of, weights=g * w, minlength=k)
    return num / den, top + np.log(tot)


def quotient(graph, cocycle, values, relation):
    """Contract each class of the relation to a single vertex.

    The new weight of a class is the sum of its members' weights, the new
    function value is the weighted mean over the class, and two classes are
    adjacent iff some edge crosses between them. Every class must induce a
    connected subgraph.
    """
    values = as_values_array(values, graph.vertex_count)
    class_of = relation.class_of
    k = relation.class_count
    base_edges = graph.edges()

    # the intra-class edges split each class into its pieces: one piece per
    # class iff every class is connected
    ends = class_of[base_edges]
    pieces, count = label_components(graph.vertex_count, base_edges[ends[:, 0] == ends[:, 1]])
    if count != k:
        first_members = np.unique(pieces, return_index=True)[1]
        bad_class = np.flatnonzero(np.bincount(class_of[first_members], minlength=k) > 1)[0]
        bad = np.flatnonzero(class_of == bad_class)
        raise DisconnectedClass(f"class with members {bad[:8].tolist()}... is not connected")

    q_vals, q_logw = class_means(cocycle, class_of, k, values)
    out_edges = np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)
    qgraph, qcocycle = build_graph(out_edges, q_logw)
    return QuotientResult(graph=qgraph, cocycle=qcocycle, values=q_vals, class_of=class_of)


def cocycle_identity_holds(cocycle, x, y, z):
    """Exact check of the multiplicative identity, done in rational arithmetic."""
    a = Fraction(float(cocycle.log_weight[x]))
    b = Fraction(float(cocycle.log_weight[y]))
    c = Fraction(float(cocycle.log_weight[z]))
    return (a - b) + (b - c) == a - c


def read_graph_file(path):
    """Parse the line-oriented graph format.

    Header ``n m``, then m edge lines ``u v``, then n lines ``logw f``.
    ``#`` starts a comment.
    """
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line.split())
    if not tokens:
        raise MalformedGraph(f"{path}: empty graph file")
    header = tokens[0]
    if len(header) != 2:
        raise MalformedGraph(f"{path}: header must be 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(tokens) != 1 + m + n:
        raise MalformedGraph(f"{path}: expected {1 + m + n} lines, found {len(tokens)}")
    edges = [(int(t[0]), int(t[1])) for t in tokens[1:1 + m]]
    logw = np.empty(n)
    vals = np.empty(n)
    for i, t in enumerate(tokens[1 + m:]):
        if len(t) != 2:
            raise MalformedGraph(f"{path}: vertex line {i} must be 'logw f'")
        logw[i] = float(t[0])
        vals[i] = float(t[1])
    graph, cocycle = build_graph(edges, logw)
    return graph, cocycle, vals


def write_graph_file(path, graph, cocycle, values):
    values = as_values_array(values, graph.vertex_count)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.vertex_count} {graph.edge_count}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
        for lw, fv in zip(cocycle.log_weight, values):
            fh.write(f"{float(lw)!r} {float(fv)!r}\n")
