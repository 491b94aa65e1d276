"""Finite weighted graphs, multiplicative vertex weights, and invariant measures.

A cocycle on a finite connected graph is always a coboundary, so it is stored
as one log-weight per vertex; every pairwise ratio is a difference of logs.
Quantities that must not depend on a reference vertex are computed after
dividing by the largest weight of the set at hand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DisconnectedClass, MalformedGraph
from .validation import as_values_array, as_vertex_array, require_nonempty, require_same_component, sorted_distinct


class WeightedGraph:
    """Simple undirected graph in CSR form with per-vertex component labels."""

    __slots__ = ("vertex_count", "indptr", "indices", "component_id", "_edges", "_bounds")

    def __init__(self, vertex_count, indptr, indices, component_id, edges):
        self.vertex_count = int(vertex_count)
        self.indptr = indptr
        self.indices = indices
        self.component_id = component_id
        self._edges = edges
        # row bounds as plain Python ints, for the greedy search's per-vertex reads
        self._bounds = memoryview(indptr)

    def neighbors(self, v):
        bounds = self._bounds
        return self.indices[bounds[v]:bounds[v + 1]]

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
            if (up == root).all():
                break
            root = up
    heads = root == np.arange(n)
    return (np.cumsum(heads) - 1)[root], int(np.count_nonzero(heads))


@dataclass(frozen=True)
class Cocycle:
    """Positive vertex weights in the log domain.

    ratio(x, y) is the mass of x relative to y. Every ratio is the exp of a
    difference of the same per-vertex logs, so the multiplicative identity
    ratio(x,y) * ratio(y,z) = ratio(x,z) holds up to rounding.
    """

    log_weight: np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.log_weight, dtype=float)
        object.__setattr__(self, "log_weight", lw)

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
        pairs = _edge_array(edges)
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

    edges = keys[by_code]
    return _assemble(n, edges, label_components(n, edges)[0]), Cocycle(lw)


def _edge_array(edges):
    """Edges as an int64 array, for build_graph to check. A list of 2-tuples
    or 2-lists is read flat, several times faster than numpy's conversion of
    nested sequences; anything else, or a pair that is not two numbers, goes
    through that conversion."""
    if isinstance(edges, np.ndarray):
        return np.asarray(edges, dtype=np.int64)
    edges = list(edges)
    if set(map(type, edges)) <= {tuple, list} and set(map(len, edges)) == {2}:
        try:
            return np.fromiter(itertools.chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)
        except (TypeError, ValueError):
            pass
    return np.asarray(edges, dtype=np.int64)


def _assemble(n, edges, component_id):
    """CSR graph on n vertices from distinct (lo, hi) edges, lo < hi, in
    lexicographic order; nothing is validated."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    # every directed edge has its own code, so any sort gives the same order
    order = np.argsort(src * n + dst, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return WeightedGraph(n, indptr, dst[order], component_id, edges)


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
    return _is_connected_sorted(graph, as_vertex_array(U, graph.vertex_count))


def _is_connected_sorted(graph, U):
    """is_connected_set for an int64 array U that is already sorted, distinct
    and in range, as as_vertex_array returns it."""
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
    if k == graph.vertex_count:
        # Every class is a singleton, and canonical labels make class_of the
        # identity, so the general path below would only copy its inputs: its
        # weights are exp(0) = 1, its means f * 1 / 1 = f, its log-weights
        # lw + log(1), which differ from lw at most in the sign of a zero,
        # and its edges are the input's, already sorted and distinct.
        return QuotientResult(graph=graph, cocycle=cocycle, values=values, class_of=class_of)
    base_edges = graph.edges()

    # the intra-class edges split each class into its pieces: one piece per
    # class iff every class is connected
    cu, cv = class_of[base_edges[:, 0]], class_of[base_edges[:, 1]]
    cross = cu != cv
    pieces, count = label_components(graph.vertex_count, base_edges[~cross])
    if count != k:
        first_members = np.unique(pieces, return_index=True)[1]
        bad_class = np.flatnonzero(np.bincount(class_of[first_members], minlength=k) > 1)[0]
        bad = np.flatnonzero(class_of == bad_class)
        raise DisconnectedClass(f"class with members {bad[:8].tolist()}... is not connected")

    # each crossing edge codes its class pair as lo * k + hi; sorted and
    # deduplicated, the codes are the quotient's edges in (lo, hi) order
    codes = sorted_distinct(np.minimum(cu, cv)[cross] * k + np.maximum(cu, cv)[cross])
    edges = np.stack(np.divmod(codes, k), axis=1)
    # every class is connected, so its members share one component label,
    # and both labellings number components by their smallest member
    component_id = np.empty(k, dtype=np.int64)
    component_id[class_of] = graph.component_id
    q_vals, q_logw = class_means(cocycle, class_of, k, values)
    qgraph = _assemble(k, edges, component_id)
    return QuotientResult(graph=qgraph, cocycle=Cocycle(q_logw), values=q_vals, class_of=class_of)


def read_graph_file(path):
    """Parse the line-oriented graph format.

    Header ``n m``, then m edge lines ``u v``, then n lines ``logw f``.
    ``#`` starts a comment. Every f must be finite. A line with the wrong
    number of tokens, or a token that does not parse, raises MalformedGraph
    naming the line.
    """
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line.split())
    if not tokens:
        raise MalformedGraph(f"{path}: empty graph file")
    # a wrong token count fails an unpacking with a ValueError, as a bad token does
    try:
        n, m = map(int, tokens[0])
    except ValueError:
        raise MalformedGraph(f"{path}: header must be 'n m'") from None
    if len(tokens) != 1 + m + n:
        raise MalformedGraph(f"{path}: expected {1 + m + n} lines, found {len(tokens)}")
    edges = []
    for i, t in enumerate(tokens[1:1 + m]):
        try:
            u, v = map(int, t)
        except ValueError:
            raise MalformedGraph(f"{path}: edge line {i} must be 'u v', two integers") from None
        edges.append((u, v))
    logw = np.empty(n)
    vals = np.empty(n)
    for i, t in enumerate(tokens[1 + m:]):
        try:
            logw[i], vals[i] = map(float, t)
        except ValueError:
            raise MalformedGraph(f"{path}: vertex line {i} must be 'logw f', two numbers") from None
        if not math.isfinite(vals[i]):
            raise MalformedGraph(f"{path}: vertex line {i} has a non-finite f")
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
