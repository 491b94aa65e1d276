"""Weight-averaged function values over sets and equivalence classes."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotDisjoint, TargetOutOfRange
from .graph import class_means, is_connected_set
from .validation import (
    as_values_array,
    as_vertex_array,
    check_unit_interval,
    require_nonempty,
    require_same_component,
)


class VertexFunction:
    """Per-vertex real values with a cached sup norm."""

    __slots__ = ("values", "_sup")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        self._sup = float(np.abs(self.values).max()) if self.values.size else 0.0

    @property
    def sup_norm(self):
        return self._sup

    def l1_norm(self, mu):
        return float(np.dot(mu.atoms, np.abs(self.values)))

    def mean(self, mu):
        return float(np.dot(mu.atoms, self.values))

    def centered(self, mu):
        return VertexFunction(self.values - self.mean(mu))

    def __len__(self):
        return len(self.values)


def weighted_average(values, cocycle, U, exact=False):
    """Weight-averaged value of f over U; independent of the reference vertex.

    Weights inside U are divided by their maximum before summing, so the
    computation never overflows and is anchored at the heaviest point.
    """
    U = as_vertex_array(U)
    require_nonempty(U)
    vals = as_values_array(values)[U]
    lw = cocycle.log_weight[U]
    w = np.exp(lw - lw.max())
    if exact:
        num = sum(Fraction(float(v)) * Fraction(float(x)) for v, x in zip(vals, w))
        return num / sum(Fraction(float(x)) for x in w)
    return float(np.dot(vals, w) / w.sum())


def union_identity_check(values, cocycle, U, V):
    """Both sides of the two-set mixing identity for averages.

    lhs is the average over the union; rhs mixes the two averages with the
    sets' relative masses. Returns (lhs, rhs).
    """
    U = as_vertex_array(U)
    V = as_vertex_array(V)
    require_nonempty(U, "U")
    require_nonempty(V, "V")
    if np.intersect1d(U, V, assume_unique=True).size:
        raise NotDisjoint("U and V overlap")
    lhs = weighted_average(values, cocycle, np.concatenate([U, V]))
    anchor = float(max(cocycle.log_weight[U].max(), cocycle.log_weight[V].max()))
    mu_u = float(np.exp(cocycle.log_weight[U] - anchor).sum())
    mu_v = float(np.exp(cocycle.log_weight[V] - anchor).sum())
    au = weighted_average(values, cocycle, U)
    av = weighted_average(values, cocycle, V)
    rhs = (mu_u * au + mu_v * av) / (mu_u + mu_v)
    return lhs, rhs


def mean_over(graph, values, cocycle, relation, exact=False):
    """Class-wise weighted mean, returned as a function constant on classes.

    In exact mode the weights are the component-normalized ones as exact
    rationals, shared with RhoMeasure.fraction_atoms, so the expectation
    identity holds with no tolerance.
    """
    vals = as_values_array(values, graph.vertex_count)
    class_of = relation.class_of
    # each class keeps the component of one member; a member elsewhere splits it
    class_comp = np.empty(relation.class_count, dtype=np.int64)
    class_comp[class_of] = graph.component_id
    split = class_of[class_comp[class_of] != graph.component_id]
    if split.size:
        require_same_component(graph, np.flatnonzero(class_of == split.min()), "equivalence class")
    if exact:
        nw = cocycle.component_normalized_weights(graph)
        w = [Fraction(float(x)) for x in nw]
        out_exact = [None] * graph.vertex_count
        for cls in relation.classes:
            num = sum(Fraction(float(vals[v])) * w[v] for v in cls)
            den = sum(w[v] for v in cls)
            a = num / den
            for v in cls:
                out_exact[v] = a
        return out_exact
    means, _ = class_means(cocycle, class_of, relation.class_count, vals)
    return VertexFunction(means[class_of])


def chebyshev_restriction(graph, values, cocycle, relation, mu, eps):
    """Union of classes where the class mean is at most l1(f)/eps in absolute value.

    The discarded classes carry mass at most eps.
    """
    check_unit_interval(eps, "eps")
    f = values if isinstance(values, VertexFunction) else VertexFunction(as_values_array(values, graph.vertex_count))
    bound = f.l1_norm(mu) / eps
    means = mean_over(graph, f.values, cocycle, relation)
    return np.flatnonzero(np.abs(means.values) <= bound)


@dataclass(frozen=True)
class GrowthResult:
    vertices: np.ndarray
    average: float
    delta: float
    target: float


def growth_slack(values, cocycle, U, V):
    """The one-step average perturbation bound for growing U inside V.

    Adding a vertex v of weight w_v to a set S between U and V moves the
    average a of S by w_v (f_v - a) / (mass(S) + w_v), and |f_v - a| is at
    most |f_v| + |a|, with |a| at most sup|f| over V. So a step moves it by
    at most max_rest * (sup_rest + sup_V) / mass_U, where rest is V minus U.
    """
    U = as_vertex_array(U)
    V = as_vertex_array(V)
    rest = np.setdiff1d(V, U, assume_unique=True)
    if rest.size == 0:
        return 0.0
    vals = as_values_array(values)
    sup_rest = float(np.abs(vals[rest]).max())
    sup_v = float(np.abs(vals[V]).max())
    anchor = float(cocycle.log_weight[V].max())
    max_rest = float(np.exp(cocycle.log_weight[rest] - anchor).max())
    mass_u = float(np.exp(cocycle.log_weight[U] - anchor).sum())
    return max_rest * (sup_rest + sup_v) / mass_u


def intermediate_value_grow(graph, values, cocycle, U, V, r):
    """Grow U toward V one vertex at a time, steering the average toward r.

    Both sets must be connected with U inside V and r between their averages.
    Returns the connected intermediate set whose average came closest to r,
    together with the instance's perturbation bound.
    """
    U = as_vertex_array(U, graph.vertex_count)
    V = as_vertex_array(V, graph.vertex_count)
    require_nonempty(U, "U")
    if np.setdiff1d(U, V, assume_unique=True).size:
        raise ValueError("U must be contained in V")
    require_same_component(graph, V)
    if not is_connected_set(graph, U) or not is_connected_set(graph, V):
        raise ValueError("U and V must both be connected")

    vals = as_values_array(values, graph.vertex_count)
    a_u = weighted_average(vals, cocycle, U)
    a_v = weighted_average(vals, cocycle, V)
    lo, hi = min(a_u, a_v), max(a_u, a_v)
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - slack <= r <= hi + slack):
        raise TargetOutOfRange(f"r={r} outside [{lo}, {hi}]")

    delta = growth_slack(vals, cocycle, U, V)

    anchor = float(cocycle.log_weight[V].max())
    w = np.exp(cocycle.log_weight - anchor)
    in_v = np.zeros(graph.vertex_count, dtype=bool)
    in_v[V] = True
    in_cur = np.zeros(graph.vertex_count, dtype=bool)
    in_cur[U] = True

    mass = float(w[U].sum())
    fsum = float(np.dot(vals[U], w[U]))
    frontier = set()
    for u in U:
        for v in graph.neighbors(u):
            if in_v[v] and not in_cur[v]:
                frontier.add(int(v))

    best_set = U.copy()
    best_err = abs(fsum / mass - r)
    current = list(U)

    while frontier:
        pick, pick_err = None, None
        for v in sorted(frontier):
            err = abs((fsum + vals[v] * w[v]) / (mass + w[v]) - r)
            if pick is None or err < pick_err:
                pick, pick_err = v, err
        frontier.discard(pick)
        in_cur[pick] = True
        current.append(pick)
        mass += w[pick]
        fsum += vals[pick] * w[pick]
        for v in graph.neighbors(pick):
            if in_v[v] and not in_cur[v]:
                frontier.add(int(v))
        err = abs(fsum / mass - r)
        if err < best_err:
            best_err = err
            best_set = np.array(sorted(current), dtype=np.int64)

    avg = weighted_average(vals, cocycle, best_set)
    return GrowthResult(vertices=best_set, average=avg, delta=delta, target=float(r))
