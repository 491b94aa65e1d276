"""Generators for the discretized dynamical systems used in experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averages import VertexFunction
from .errors import BadModel
from .graph import Cocycle, RhoMeasure, WeightedGraph, build_graph
from .validation import sorted_distinct

MODEL_KINDS = ("rotation", "odometer", "bernoulli", "free_tree", "random_regular")


@dataclass(frozen=True)
class ModelSpec:
    """Which system to discretize and at which size.

    n is the size parameter: point count for rotation, bit depth for odometer
    and bernoulli, ball radius for free_tree, vertex count for random_regular.
    p and q parameterize the vertex weights where the model uses them.
    """

    kind: str
    n: int
    p: float = 0.5
    q: float = 0.5
    seed: int = 0
    degree: int = 4


@dataclass(frozen=True)
class ModelBundle:
    """A generated model: everything a tiling run reads, as arrays.

    graph holds the CSR adjacency, edges and component labels; cocycle one
    log-weight per vertex; measure the rho-invariant probability atoms;
    values the observable, centred to mean zero under the measure; frontier
    the sorted vertices where a truncated system was cut off (empty for the
    finite systems); raw_mean the measure's mean of the uncentred observable.
    """

    spec: ModelSpec
    graph: WeightedGraph
    cocycle: Cocycle
    measure: RhoMeasure
    values: VertexFunction
    frontier: np.ndarray
    raw_mean: float


def _bundle(spec, graph, cocycle, raw, frontier=()):
    """The model with the observable raw centred under its invariant measure.

    Weights spread so far that an atom underflows to zero give no rho-invariant
    measure, since a zero atom's ratio to any other is not its weight ratio."""
    measure = RhoMeasure.from_cocycle(graph, cocycle)
    if not np.all(measure.atoms > 0):
        raise BadModel(f"{np.count_nonzero(measure.atoms == 0)} atoms underflow to zero; narrow the weights")
    m = measure.integrate(raw)
    frontier = np.array(frontier, dtype=np.int64)
    return ModelBundle(spec, graph, cocycle, measure, VertexFunction(raw - m), frontier, m)


GOLDEN_STEP = (math.sqrt(5.0) - 1.0) / 2.0


def _rotation(spec):
    n = spec.n
    if n < 3:
        raise BadModel("rotation needs at least 3 points")
    edges = [(k, (k + 1) % n) for k in range(n)]
    graph, cocycle = build_graph(edges, np.zeros(n))
    angles = (np.arange(n) * GOLDEN_STEP) % 1.0
    raw = (angles < 0.5).astype(float)
    return _bundle(spec, graph, cocycle, raw)


def _odometer(spec):
    d = spec.n
    if not (1 <= d <= 24):
        raise BadModel("odometer depth must be between 1 and 24")
    if not (0.0 < spec.p < 1.0):
        raise BadModel("odometer weight parameter p must lie in (0, 1)")
    size = 1 << d
    # on 2 points the cycle is the one edge (0, 1)
    edges = [(k, (k + 1) % size) for k in range(size if size > 2 else 1)]
    ks = np.arange(size, dtype=np.int64)
    ones = np.zeros(size)
    for bit in range(d):
        ones += (ks >> bit) & 1
    logw = ones * math.log(spec.p / (1.0 - spec.p))
    graph, cocycle = build_graph(edges, logw)
    raw = (ks & 1).astype(float)
    return _bundle(spec, graph, cocycle, raw)


def _bernoulli(spec):
    """Shift graph on depth-d binary strings with a density-ratio cocycle.

    Vertex x1..xd connects to its shifts x2..xd b; the weight of a string is
    the product over coordinates of p/q for a one and (1-p)/(1-q) for a zero.
    """
    d = spec.n
    p, q = spec.p, spec.q
    if not (1 <= d <= 22):
        raise BadModel("bernoulli depth must be between 1 and 22")
    if not (0.0 < p < 1.0) or not (0.0 < q < 1.0):
        raise BadModel("bernoulli parameters p, q must lie strictly inside (0, 1)")
    size = 1 << d
    mask = size - 1
    xs = np.arange(size, dtype=np.int64)
    x = np.repeat(xs, 2)
    y = ((x << 1) & mask) | np.tile([0, 1], size)
    x, y = x[x != y], y[x != y]
    # code each pair as lo * size + hi; the sorted distinct codes are the
    # edges in (lo, hi) order
    edges = np.stack(np.divmod(sorted_distinct(np.minimum(x, y) * size + np.maximum(x, y)), size), axis=1)
    ones = np.zeros(size)
    for bit in range(d):
        ones += (xs >> bit) & 1
    log_one = math.log(p) - math.log(q)
    log_zero = math.log(1.0 - p) - math.log(1.0 - q)
    logw = ones * log_one + (d - ones) * log_zero
    graph, cocycle = build_graph(edges, logw)
    raw = ((xs >> (d - 1)) & 1).astype(float)
    return _bundle(spec, graph, cocycle, raw)


_GENERATORS = "aAbB"
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _free_tree(spec):
    """Ball of the given radius in the 4-regular tree, weights geometric in
    word length; leaves are the truncation frontier."""
    radius = spec.n
    if not (1 <= radius <= 8):
        raise BadModel("free_tree radius must be between 1 and 8")
    if not (0.0 < spec.p < 1.0):
        raise BadModel("free_tree weight parameter p must lie in (0, 1)")
    words = [""]
    index = {"": 0}
    edges = []
    frontier = []
    queue = [""]
    while queue:
        w = queue.pop(0)
        if len(w) == radius:
            frontier.append(index[w])
            continue
        for g in _GENERATORS:
            if w and _INVERSE[w[-1]] == g:
                continue
            nw = w + g
            index[nw] = len(words)
            words.append(nw)
            edges.append((index[w], index[nw]))
            queue.append(nw)
    base = math.log(spec.p / (1.0 - spec.p))
    logw = np.array([len(w) * base for w in words])
    graph, cocycle = build_graph(edges, logw)
    raw = np.array([1.0 if w[:1] in ("a", "A") else 0.0 for w in words])
    return _bundle(spec, graph, cocycle, raw, sorted(frontier))


def _random_regular(spec):
    import networkx as nx

    n, d = spec.n, spec.degree
    if n < d + 1 or (n * d) % 2 != 0:
        raise BadModel(f"no {d}-regular graph on {n} vertices")
    rng = np.random.default_rng(spec.seed)
    for attempt in range(64):
        g = nx.random_regular_graph(d, n, seed=int(spec.seed) + 7919 * attempt)
        if nx.is_connected(g):
            break
    else:
        raise BadModel("failed to draw a connected regular graph")
    spread = 2.0 * spec.p
    logw = rng.uniform(-spread, spread, size=n)
    raw = rng.integers(0, 2, size=n).astype(float)
    graph, cocycle = build_graph(sorted((min(u, v), max(u, v)) for u, v in g.edges()), logw)
    return _bundle(spec, graph, cocycle, raw)


def generate_model(spec):
    """Build the graph, weights, invariant measure, and observable of a model."""
    if spec.kind == "rotation":
        return _rotation(spec)
    if spec.kind == "odometer":
        return _odometer(spec)
    if spec.kind == "bernoulli":
        return _bernoulli(spec)
    if spec.kind == "free_tree":
        return _free_tree(spec)
    if spec.kind == "random_regular":
        return _random_regular(spec)
    raise BadModel(f"unknown model kind {spec.kind!r}; choose from {MODEL_KINDS}")
