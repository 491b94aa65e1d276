"""Weight-bounded neighborhoods: blocks, cones, and the block decomposition.

The block of x at magnification alpha is the connected piece around x of the
vertices whose weight is at most alpha times the weight of x. Blocks at a
common magnification form a laminar family, which block_decomposition lists
as a nesting forest per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadMagnification
from .graph import label_components
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
    # NaN fails every comparison, so only this form refuses it
    if not alpha >= 1.0:
        raise BadMagnification(f"alpha must be >= 1, got {alpha}")
    lw = cocycle.log_weight
    for level in levels:
        yield lw == level, label_components(graph.vertex_count, graph.edges(), keep=lw <= level + np.log(alpha))[0]


def block(graph, cocycle, x, alpha=1.0):
    """Connected component of x inside the alpha-sublevel set of x's weight."""
    x = int(x)
    _, labels = next(_levels(graph, cocycle, alpha, [cocycle.log_weight[x]]))
    return Block(vertices=np.flatnonzero(labels == labels[x]), dominus=x, alpha=float(alpha))


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
