"""Weight-bounded neighborhoods: blocks, cones, and the climbing iteration.

The block of x at magnification alpha is the connected piece around x of the
vertices whose weight is at most alpha times the weight of x. Blocks at a
common magnification form a laminar family, which drives the climbing map
used to certify that finite instances always merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadMagnification, InvariantBreach, NoNextBlock
from .graph import label_components, outer_boundary


@dataclass(frozen=True)
class Block:
    vertices: np.ndarray
    dominus: int
    alpha: float

    def __contains__(self, v):
        return bool(np.isin(int(v), self.vertices))

    @property
    def size(self):
        return len(self.vertices)


def block(graph, cocycle, x, alpha=1.0):
    """Connected component of x inside the alpha-sublevel set of x's weight."""
    if alpha < 1.0:
        raise BadMagnification(f"alpha must be >= 1, got {alpha}")
    x = int(x)
    lw = cocycle.log_weight
    labels, _ = label_components(graph.vertex_count, graph.edges(), keep=lw <= lw[x] + np.log(alpha))
    return Block(vertices=np.flatnonzero(labels == labels[x]), dominus=x, alpha=float(alpha))


def nested_or_disjoint_check(b1, b2):
    """Classify a pair of blocks; a genuine crossing breaks the block laws."""
    s1 = set(int(v) for v in b1.vertices)
    s2 = set(int(v) for v in b2.vertices)
    if s1 <= s2 or s2 <= s1:
        return "nested"
    if not (s1 & s2):
        return "disjoint"
    raise InvariantBreach(
        f"blocks of {b1.dominus} (alpha={b1.alpha}) and {b2.dominus} (alpha={b2.alpha}) cross"
    )


def _min_weight_vertex(cocycle, vertices):
    verts = sorted(int(v) for v in vertices)
    return min(verts, key=lambda v: (float(cocycle.log_weight[v]), v))


def _max_weight_vertices(cocycle, vertices):
    lw = cocycle.log_weight[vertices]
    top = lw.max()
    return [int(v) for v, w in zip(vertices, lw) if w == top]


def next_block(graph, cocycle, b):
    """Inclusion-least block strictly containing b.

    Taken at the lightest outer-boundary vertex; any choice among ties gives
    the same block. Raises if b already fills its component.
    """
    boundary = outer_boundary(graph, b.vertices)
    if not boundary.size:
        raise NoNextBlock(f"block of {b.dominus} fills its component")
    nxt = block(graph, cocycle, _min_weight_vertex(cocycle, boundary), 1.0)
    if not set(b.vertices.tolist()) < set(nxt.vertices.tolist()):
        raise InvariantBreach("next block does not strictly contain the current one")
    return nxt


def dominus_step(graph, cocycle, x):
    """One step of the climbing map: the chosen heaviest vertex of the next block.

    On a block that already fills its component the step selects inside the
    block itself, making the map settle at a fixed vertex.
    """
    b = block(graph, cocycle, int(x), 1.0)
    try:
        target = next_block(graph, cocycle, b)
    except NoNextBlock:
        target = b
    return min(_max_weight_vertices(cocycle, target.vertices))


def dominus_orbit(graph, cocycle, x, limit=None):
    """Iterate the climbing map until it repeats; returns the visited chain."""
    if limit is None:
        limit = graph.vertex_count + 1
    chain = [int(x)]
    seen = {int(x)}
    for _ in range(limit):
        nxt = dominus_step(graph, cocycle, chain[-1])
        chain.append(nxt)
        if nxt in seen:
            return chain
        seen.add(nxt)
    raise InvariantBreach("climbing iteration failed to settle within the vertex budget")


def orbit_merge_test(graph, cocycle):
    """True iff in every component all climbing orbits settle at one vertex."""
    for c in range(graph.component_count):
        members = graph.component_members(c)
        endpoints = set()
        for v in members:
            chain = dominus_orbit(graph, cocycle, int(v))
            endpoints.add(chain[-1])
            if len(endpoints) > 1:
                return False
    return True


def cone(graph, cocycle, x):
    """Vertices y whose unit block contains x (the points that can see x)."""
    x = int(x)
    comp = graph.component_members(graph.component_id[x])
    out = []
    for y in comp:
        if x in block(graph, cocycle, int(y), 1.0):
            out.append(int(y))
    return np.array(sorted(out), dtype=np.int64)


def block_decomposition(graph, cocycle, alpha=1.0):
    """Distinct blocks at one magnification, as a nesting forest per component.

    Returns a list of (block, depth) pairs in preorder; depth counts proper
    ancestors among the listed blocks.
    """
    uniq = {}
    for v in range(graph.vertex_count):
        b = block(graph, cocycle, v, alpha)
        key = tuple(int(u) for u in b.vertices)
        if key not in uniq or b.dominus < uniq[key].dominus:
            uniq[key] = b
    blocks = sorted(uniq.values(), key=lambda b: (-b.size, int(b.vertices[0])))
    out = []
    for b in blocks:
        depth = 0
        bs = set(int(v) for v in b.vertices)
        for other in blocks:
            if other.size > b.size and bs < set(int(v) for v in other.vertices):
                depth += 1
        out.append((b, depth))
    out.sort(key=lambda pair: (int(pair[0].vertices[0]), pair[1]))
    return out
