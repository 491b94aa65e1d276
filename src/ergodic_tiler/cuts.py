"""Component-size cuts, their prices, and small measure-limit utilities.

On finite models "leaves only small pieces" is the whole story, so cuts are
parameterized by the component-size threshold K and every report carries the
K it was computed at.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeForExact, VanishingPrecondition
from .graph import label_components
from .validation import as_vertex_array, sorted_distinct

EXACT_COMPONENT_LIMIT = 20


@dataclass(frozen=True)
class CutReport:
    mode: str
    method: str
    K: int
    cut: tuple
    price: float
    largest_component: int
    largest_ratio: float | None
    exact: bool


def _piece_sizes(n, edges, keep=None):
    """Vertex count of each piece, and the per-vertex piece labels."""
    labels, count = label_components(n, edges, keep)
    return np.bincount(labels[labels >= 0], minlength=count), labels


def _vertex_cut_pieces(graph, V):
    """Piece sizes and labels once the vertices V are removed."""
    keep = np.ones(graph.vertex_count, dtype=bool)
    keep[np.asarray(V, dtype=np.int64)] = False
    return _piece_sizes(graph.vertex_count, graph.edges(), keep)


def is_K_finitizing_vertex_cut(graph, V, K):
    """True iff removing V leaves only components with at most K vertices."""
    if K < 1:
        raise ValueError("K must be at least 1")
    sizes, _ = _vertex_cut_pieces(graph, as_vertex_array(V, graph.vertex_count))
    return bool(sizes.size == 0 or sizes.max() <= K)


def is_K_finitizing_edge_cut(graph, H, K):
    """True iff deleting the edges H leaves only components of at most K vertices."""
    if K < 1:
        raise ValueError("K must be at least 1")
    n, edges = graph.vertex_count, graph.edges()
    cut = np.sort(np.asarray(H, dtype=np.int64).reshape(-1, 2), axis=1)
    kept = ~np.isin(edges[:, 0] * n + edges[:, 1], cut[:, 0] * n + cut[:, 1])
    return bool(_piece_sizes(n, edges[kept])[0].max(initial=0) <= K)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return self.size[ra]
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return self.size[ra]

    def snapshot(self):
        return (list(self.parent), list(self.size))

    def restore(self, snap):
        self.parent, self.size = list(snap[0]), list(snap[1])


def _exact_cut(w, joins, nodes, K):
    """Minimum-weight cut among elements 0..len(w)-1 by branch and bound.

    Elements are decided in index order, keep before cut. Keeping element i
    unions the node pairs joins(i, kept) names; a union above K vertices
    prunes the branch, as does a cut weight at or above the incumbent.
    Returns the indices of the best cut.
    """
    n = len(w)
    best_cut, best_cost = list(range(n)), sum(w)
    kept = [False] * n
    uf = _UnionFind(nodes)

    def recurse(i, cost):
        nonlocal best_cut, best_cost
        if cost >= best_cost:
            return
        if i == n:
            best_cost = cost
            best_cut = [j for j in range(n) if not kept[j]]
            return
        snap = uf.snapshot()
        kept[i] = True
        if all(uf.union(a, b) <= K for a, b in joins(i, kept)):
            recurse(i + 1, cost)
        uf.restore(snap)
        kept[i] = False
        recurse(i + 1, cost + w[i])

    recurse(0, 0.0)
    return best_cut


def _greedy_cut(alive, inside, w, touch, pieces, K):
    """Upper bound: from the largest piece over K, repeatedly remove the alive
    element whose removal leaves that piece's largest part smallest, the
    lighter and then the lower-numbered one on ties.

    Element i lies in the piece of vertex touch[i]; pieces(alive, keep) gives
    the piece sizes and vertex labels on the vertex mask keep.
    """
    alive = alive.copy()
    cut = []
    while True:
        sizes, labels = pieces(alive, inside)
        if sizes.max(initial=0) <= K:
            return cut
        piece = labels == int(np.argmax(sizes))

        def key(i):
            alive[i] = False
            worst = int(pieces(alive, piece)[0].max(initial=0))
            alive[i] = True
            return (worst, w[i], i)

        best = min(key(i) for i in np.flatnonzero(alive & piece[touch]).tolist())[2]
        cut.append(best)
        alive[best] = False


def _prune_cut(cut, w, alive, inside, pieces, K):
    """Drop cut elements heaviest first while the pieces the rest leaves stay at most K."""
    cut = set(cut)
    for x in sorted(cut, key=lambda x: (-w[x], x)):
        rest = alive.copy()
        rest[sorted(cut - {x})] = False
        if pieces(rest, inside)[0].max(initial=0) <= K:
            cut.discard(x)
    return sorted(cut)


def _price(graph, K, method, w, touch, pieces, exact_cut):
    """Sorted element numbers of a cut leaving pieces of at most K vertices.

    Element i weighs w[i] and lies in the component of vertex touch[i];
    pieces(alive, keep) gives the piece sizes and vertex labels on the vertex
    mask keep once the elements not alive are removed, and exact_cut(members)
    is the cheapest cut of one component.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if method not in ("exact", "greedy", "local"):
        raise ValueError(f"unknown method {method!r}")
    cut = []
    for c in range(graph.component_count):
        members = graph.component_members(c)
        if len(members) <= K:
            continue
        if method == "exact":
            if len(members) > EXACT_COMPONENT_LIMIT:
                raise TooLargeForExact(
                    f"component {c} has {len(members)} vertices > {EXACT_COMPONENT_LIMIT}"
                )
            cut.extend(exact_cut(members))
            continue
        inside = graph.component_id == c
        alive = inside[touch]
        part = _greedy_cut(alive, inside, w, touch, pieces, K)
        if method == "local":
            part = _prune_cut(part, w, alive, inside, pieces, K)
        cut.extend(part)
    return sorted(cut)


def vertex_price(graph, mu, K, method="exact", cocycle=None):
    """Cheapest vertex set whose removal leaves pieces of at most K vertices.

    The exact method is a per-component branch and bound, limited to
    components of at most 20 vertices; greedy and local produce labeled upper
    bounds on graphs of any size. local drops from the greedy cut, heaviest
    first, each vertex the rest of the cut does not need.
    """
    n, edges = graph.vertex_count, graph.edges()
    w = mu.atoms.tolist()

    def pieces(alive, keep):
        return _piece_sizes(n, edges, alive & keep)

    def exact_cut(members):
        # decreasing degree first
        order = sorted(members.tolist(), key=lambda v: (-graph.degree(v), v))
        local = {v: i for i, v in enumerate(order)}
        nbrs = [[local[u] for u in graph.neighbors(v).tolist() if u in local] for v in order]

        def joins(i, kept):
            # a kept vertex joins its kept earlier neighbours
            return [(i, j) for j in nbrs[i] if j < i and kept[j]]

        return [order[j] for j in _exact_cut([w[v] for v in order], joins, len(order), K)]

    cut = _price(graph, K, method, w, np.arange(n), pieces, exact_cut)
    sizes, labels = _vertex_cut_pieces(graph, cut)
    largest = int(sizes.max()) if sizes.size else 0
    largest_ratio = None
    if cocycle is not None and sizes.size:
        nw = cocycle.component_normalized_weights(graph)
        parts = [nw[labels == lab] for lab in range(len(sizes))]
        largest_ratio = max(float(pw.sum() / pw.max()) for pw in parts)
    return CutReport(
        mode="vertex",
        method=method,
        K=int(K),
        cut=tuple(cut),
        price=float(mu.atoms[cut].sum()) if cut else 0.0,
        largest_component=largest,
        largest_ratio=largest_ratio,
        exact=(method == "exact"),
    )


def uniform_edge_measure(graph):
    m = graph.edge_count
    if m == 0:
        return {}
    return {(int(u), int(v)): 1.0 / m for u, v in graph.edges()}


def edge_measure_from_maps(maps, mu):
    """Geometric-weight lift of a vertex measure along a list of partial maps.

    Each map is a dict from vertex to vertex; the n-th map contributes
    2^-(n+1) * mu(x) to the edge {x, map(x)}.
    """
    nu = {}
    for n, mp in enumerate(maps):
        scale = 2.0 ** (-(n + 1))
        for x, y in mp.items():
            if x == y:
                continue
            e = (min(int(x), int(y)), max(int(x), int(y)))
            nu[e] = nu.get(e, 0.0) + scale * float(mu.atoms[int(x)])
    return nu


def edge_price(graph, nu=None, K=1, method="exact"):
    """Cheapest edge set whose deletion leaves pieces of at most K vertices.

    The methods are those of vertex_price, local dropping edges instead of
    vertices. nu defaults to the uniform distribution on edges.
    """
    n, edges = graph.vertex_count, graph.edges()
    # the edges are sorted, so row order is tuple order and ties break alike
    rows = [tuple(e) for e in edges.tolist()]
    if nu is None:
        nu = uniform_edge_measure(graph)
    else:
        nu = {(min(int(u), int(v)), max(int(u), int(v))): float(x) for (u, v), x in nu.items()}
    w = [nu.get(e, 0.0) for e in rows]

    def pieces(alive, keep):
        return _piece_sizes(n, edges[alive], keep)

    def exact_cut(members):
        # heaviest edge first
        order = sorted(np.flatnonzero(np.isin(edges[:, 0], members)).tolist(), key=lambda i: (-w[i], i))
        local = {v: i for i, v in enumerate(members.tolist())}
        ends = [(local[rows[i][0]], local[rows[i][1]]) for i in order]
        # a kept edge joins its two ends
        cut = _exact_cut([w[i] for i in order], lambda i, kept: (ends[i],), len(members), K)
        return [order[j] for j in cut]

    cut = _price(graph, K, method, w, edges[:, 0], pieces, exact_cut)
    sizes = _piece_sizes(n, np.delete(edges, cut, axis=0))[0]
    if sizes.size and sizes.max() > K:
        raise RuntimeError("internal: produced edge set is not a valid cut")
    return CutReport(
        mode="edge",
        method=method,
        K=int(K),
        cut=tuple(rows[i] for i in cut),
        price=float(sum(w[i] for i in cut)),
        largest_component=int(sizes.max()) if sizes.size else 0,
        largest_ratio=None,
        exact=(method == "exact"),
    )


def vanishing_sequence(sets, mu):
    """Tail unions B_n of the input sets: decreasing, with null intersection
    whenever the input masses actually vanish.

    As in `limsup_mass`, a finite list stands for the sequence in which the
    last set repeats forever, so the tails vanish exactly when the last set
    is null. Warns when the last input set keeps positive mass (degenerate
    input); the returned tails are the same either way.
    """
    n_sets = len(sets)
    arrays = [as_vertex_array(s) for s in sets]
    out = []
    for i in range(n_sets):
        tail = arrays[i + 1:]
        if tail:
            out.append(sorted_distinct(np.concatenate(tail)))
        else:
            out.append(np.empty(0, dtype=np.int64))
    if arrays and mu.mass(arrays[-1]) > 0:
        warnings.warn(
            "input sets do not vanish: the last input set keeps positive mass, "
            "and it repeats forever",
            VanishingPrecondition,
            stacklevel=2,
        )
    return out


def limsup_mass(sets, mu, period=None):
    """Mass of the limit-superior set versus the limit-superior of the masses.

    A finite list stands for an infinite sequence: by default the last set
    repeats forever; with a period p, the last p sets cycle forever. The
    first return value always dominates the second.
    """
    if not sets:
        raise ValueError("need at least one set")
    arrays = [as_vertex_array(s) for s in sets]
    if period is None:
        tail = [arrays[-1]]
    else:
        if not (1 <= period <= len(arrays)):
            raise ValueError("period must be between 1 and len(sets)")
        tail = arrays[-period:]
    limsup_set = sorted_distinct(np.concatenate(tail))
    mass_of_limsup = mu.mass(limsup_set)
    limsup_of_mass = max(mu.mass(a) for a in tail)
    return mass_of_limsup, limsup_of_mass
