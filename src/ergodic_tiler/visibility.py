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
from .validation import sorted_distinct


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


def _levels(graph, cocycle, alpha, levels):
    """Per log-weight level: the level's vertices as a mask, and the labels of
    the pieces of log-weight <= level + log alpha, -1 off them. A vertex's
    block at alpha is its piece at its own level."""
    if alpha < 1.0:
        raise BadMagnification(f"alpha must be >= 1, got {alpha}")
    lw = cocycle.log_weight
    for level in levels:
        yield lw == level, label_components(graph.vertex_count, graph.edges(), keep=lw <= level + np.log(alpha))[0]


def block(graph, cocycle, x, alpha=1.0):
    """Connected component of x inside the alpha-sublevel set of x's weight."""
    x = int(x)
    _, labels = next(_levels(graph, cocycle, alpha, [cocycle.log_weight[x]]))
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


def next_block(graph, cocycle, b):
    """Inclusion-least block strictly containing b.

    Taken at the lightest outer-boundary vertex; any choice among ties gives
    the same block. Raises if b already fills its component.
    """
    boundary = outer_boundary(graph, b.vertices)
    if not boundary.size:
        raise NoNextBlock(f"block of {b.dominus} fills its component")
    nxt = block(graph, cocycle, boundary[np.argmin(cocycle.log_weight[boundary])], 1.0)
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
    # the vertices ascend, so argmax takes the smallest of the heaviest
    return int(target.vertices[np.argmax(cocycle.log_weight[target.vertices])])


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
    lw = cocycle.log_weight
    sees = np.zeros(graph.vertex_count, dtype=bool)
    # a piece holds x only at levels at or above x's
    for at, labels in _levels(graph, cocycle, 1.0, sorted_distinct(lw[lw >= lw[x]])):
        sees |= at & (labels == labels[x])
    return np.flatnonzero(sees)


def block_decomposition(graph, cocycle, alpha=1.0):
    """Distinct blocks at one magnification, as a nesting forest per component.

    Returns a list of (block, depth) pairs in preorder; depth counts proper
    ancestors among the listed blocks.
    """
    # blocks are laminar: a first vertex and a size name one
    uniq = {}
    for at, labels in _levels(graph, cocycle, alpha, sorted_distinct(cocycle.log_weight)):
        members = np.flatnonzero(at)
        pieces, head = np.unique(labels[members], return_index=True)
        for piece, dominus in zip(pieces, members[head].tolist()):
            vertices = np.flatnonzero(labels == piece)
            key = (int(vertices[0]), vertices.size)
            if key not in uniq or dominus < uniq[key].dominus:
                uniq[key] = Block(vertices=vertices, dominus=dominus, alpha=float(alpha))
    # larger first, so the blocks painted over a first vertex are its ancestors
    painted = np.zeros(graph.vertex_count, dtype=np.int64)
    out = []
    for b in sorted(uniq.values(), key=lambda b: -b.size):
        out.append((b, int(painted[b.vertices[0]])))
        painted[b.vertices] += 1
    return sorted(out, key=lambda pair: (int(pair[0].vertices[0]), pair[1]))
