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
from .validation import as_vertex_array

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


def _edge_cut_sizes(graph, H, keep=None):
    """Piece sizes on the mask keep (default all) once the edges H, in either orientation, are deleted."""
    n = graph.vertex_count
    edges = graph.edges()
    cut = np.sort(np.asarray(H, dtype=np.int64).reshape(-1, 2), axis=1)
    kept = ~np.isin(edges[:, 0] * n + edges[:, 1], cut[:, 0] * n + cut[:, 1])
    return _piece_sizes(n, edges[kept], keep)[0]


def _vertex_cut_pieces(graph, V, keep=None):
    """Piece sizes and labels on the mask keep (default all) once the vertices V are removed."""
    keep = np.ones(graph.vertex_count, dtype=bool) if keep is None else keep.copy()
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
    sizes = _edge_cut_sizes(graph, H)
    return bool(sizes.size == 0 or sizes.max() <= K)


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


def _exact_vertex_cut_component(graph, members, weight, K):
    """Minimum-weight vertex cut leaving pieces of at most K, by branch and bound.

    Vertices are decided in decreasing-degree order; a kept piece exceeding K
    prunes the branch, as does a cut weight at or above the incumbent.
    """
    members = [int(v) for v in members]
    order = sorted(members, key=lambda v: (-graph.degree(v), v))
    local = {v: i for i, v in enumerate(order)}
    nbrs = [[local[int(u)] for u in graph.neighbors(v) if int(u) in local] for v in order]
    w = [float(weight[v]) for v in order]
    n = len(order)

    best_cut = list(range(n))
    best_cost = sum(w)

    state = ["?"] * n
    uf = _UnionFind(n)

    def recurse(i, cost):
        nonlocal best_cut, best_cost
        if cost >= best_cost:
            return
        if i == n:
            best_cost = cost
            best_cut = [j for j in range(n) if state[j] == "cut"]
            return
        # keep branch first: cheap when no small-K violation appears
        snap = uf.snapshot()
        ok = True
        state[i] = "keep"
        for j in nbrs[i]:
            if j < i and state[j] == "keep":
                if uf.union(i, j) > K:
                    ok = False
                    break
        if ok and uf.size[uf.find(i)] <= K:
            recurse(i + 1, cost)
        uf.restore(snap)

        state[i] = "cut"
        recurse(i + 1, cost + w[i])
        state[i] = "?"

    recurse(0, 0.0)
    return [order[j] for j in best_cut], best_cost


def _greedy_vertex_cut_component(graph, members, weight, K):
    """Upper bound: repeatedly split the largest oversized piece at its best separator."""
    members = set(int(v) for v in members)
    cut = []
    while True:
        keep_mask = np.zeros(graph.vertex_count, dtype=bool)
        keep_mask[list(members)] = True
        sizes, labels = _piece_sizes(graph.vertex_count, graph.edges(), keep_mask)
        over = [c for c in range(len(sizes)) if sizes[c] > K]
        if not over:
            return cut
        target = max(over, key=lambda c: sizes[c])
        piece = [v for v in members if labels[v] == target]
        best = None
        for v in sorted(piece):
            mask2 = keep_mask.copy()
            mask2[v] = False
            s2, labels2 = _piece_sizes(graph.vertex_count, graph.edges(), mask2)
            local = [s2[labels2[u]] for u in piece if u != v]
            key = (max(local) if local else 0, float(weight[v]), v)
            if best is None or key < best[0]:
                best = (key, v)
        v = best[1]
        cut.append(v)
        members.discard(v)


def _prune_cut(cut, weight, sizes_without, K):
    """Drop cut elements heaviest first while the pieces the rest leaves stay at most K."""
    cut = set(cut)
    for x in sorted(cut, key=lambda x: (-weight(x), x)):
        if sizes_without(sorted(cut - {x})).max(initial=0) <= K:
            cut.discard(x)
    return sorted(cut)


def vertex_price(graph, mu, K, method="exact", cocycle=None):
    """Cheapest vertex set whose removal leaves pieces of at most K vertices.

    The exact method is a per-component branch and bound, limited to
    components of at most 20 vertices; greedy and local produce labeled upper
    bounds on graphs of any size. local drops from the greedy cut, heaviest
    first, each vertex the rest of the cut does not need.
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
            part, _ = _exact_vertex_cut_component(graph, members, mu.atoms, K)
        else:
            part = _greedy_vertex_cut_component(graph, members, mu.atoms, K)
            if method == "local":
                inside = graph.component_id == c
                part = _prune_cut(part, mu.atoms.item, lambda r: _vertex_cut_pieces(graph, r, inside)[0], K)
        cut.extend(int(v) for v in part)

    cut = sorted(cut)
    sizes, labels = _vertex_cut_pieces(graph, cut)
    largest = int(sizes.max()) if sizes.size else 0
    largest_ratio = None
    if cocycle is not None and sizes.size:
        nw = cocycle.component_normalized_weights(graph)
        best = 0.0
        for lab in range(len(sizes)):
            piece = np.flatnonzero(labels == lab)
            if piece.size:
                pw = nw[piece]
                best = max(best, float(pw.sum() / pw.max()))
        largest_ratio = best
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


def _exact_edge_cut_component(graph, members, nu, K):
    members = set(int(v) for v in members)
    edges = [
        (int(u), int(v))
        for u, v in graph.edges()
        if int(u) in members and int(v) in members
    ]
    edges.sort(key=lambda e: (-(nu.get(e, 0.0)), e))
    n_e = len(edges)
    best_cost = sum(nu.get(e, 0.0) for e in edges)
    best_cut = list(edges)
    idx = {v: i for i, v in enumerate(sorted(members))}

    chosen = []

    def recurse(i, cost, uf):
        nonlocal best_cost, best_cut
        if cost >= best_cost:
            return
        if i == n_e:
            best_cost = cost
            best_cut = list(chosen)
            return
        e = edges[i]
        # keep the edge
        snap = uf.snapshot()
        if uf.union(idx[e[0]], idx[e[1]]) <= K:
            recurse(i + 1, cost, uf)
        uf.restore(snap)
        # cut the edge
        chosen.append(e)
        recurse(i + 1, cost + nu.get(e, 0.0), uf)
        chosen.pop()

    recurse(0, 0.0, _UnionFind(len(members)))
    return best_cut, best_cost


def _greedy_edge_cut_component(graph, members, nu, K):
    """Upper bound: repeatedly cut the edge of the largest oversized piece that
    leaves its largest remaining piece smallest."""
    n = graph.vertex_count
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    alive = graph.edges()
    alive = alive[inside[alive[:, 0]] & inside[alive[:, 1]]]
    cut = []
    while True:
        sizes, labels = _piece_sizes(n, alive, inside)
        if sizes.max() <= K:
            return cut
        piece = labels == int(np.argmax(sizes))
        best = None
        for i in np.flatnonzero(piece[alive[:, 0]]):
            e = (int(alive[i, 0]), int(alive[i, 1]))
            worst = int(_piece_sizes(n, np.delete(alive, i, axis=0), piece)[0].max())
            key = (worst, nu.get(e, 0.0), e)
            if best is None or key < best[0]:
                best = (key, i)
        cut.append(best[0][2])
        alive = np.delete(alive, best[1], axis=0)


def edge_price(graph, nu=None, K=1, method="exact"):
    """Cheapest edge set whose deletion leaves pieces of at most K vertices.

    The methods are those of vertex_price, local dropping edges instead of
    vertices. nu defaults to the uniform distribution on edges.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if method not in ("exact", "greedy", "local"):
        raise ValueError(f"unknown method {method!r}")
    if nu is None:
        nu = uniform_edge_measure(graph)
    else:
        nu = {(min(int(u), int(v)), max(int(u), int(v))): float(x) for (u, v), x in nu.items()}

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
            part, _ = _exact_edge_cut_component(graph, members, nu, K)
        else:
            part = _greedy_edge_cut_component(graph, members, nu, K)
            if method == "local":
                inside = graph.component_id == c
                part = _prune_cut(part, lambda e: nu.get(e, 0.0), lambda r: _edge_cut_sizes(graph, r, inside), K)
        cut.extend(part)

    cut = sorted(set(cut))
    price = sum(nu.get(e, 0.0) for e in cut)
    sizes = _edge_cut_sizes(graph, cut)
    if sizes.size and sizes.max() > K:
        raise RuntimeError("internal: produced edge set is not a valid cut")
    return CutReport(
        mode="edge",
        method=method,
        K=int(K),
        cut=tuple(cut),
        price=float(price),
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
            out.append(np.unique(np.concatenate(tail)))
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
    limsup_set = np.unique(np.concatenate([a for a in tail] + [np.empty(0, dtype=np.int64)]))
    mass_of_limsup = mu.mass(limsup_set)
    limsup_of_mass = max(mu.mass(a) for a in tail)
    return mass_of_limsup, limsup_of_mass
