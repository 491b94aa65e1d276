"""Observables on vertices and their conditional expectation on a relation.

On a finite model the conditional expectation E[f | R] of an observable f
on the sets a relation R leaves invariant is the weighted mean of f over
each class of R. The tile averages of the staged tiling are this expectation
taken on the relation built so far; mean_over computes it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graph import class_means
from .validation import as_values_array, require_same_component


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

    def __len__(self):
        return len(self.values)


def mean_over(graph, values, cocycle, relation, exact=False):
    """E[f | R]: each vertex's value is the weighted mean of f over its class.

    Returns a float array, constant on every class. Every class must lie in
    one component. In exact mode the weights are the component-normalized
    ones as exact rationals, shared with RhoMeasure.fraction_atoms, and the
    result is a list of Fractions, so E[E[f | R]] = E[f] holds with no
    tolerance.
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
    return means[class_of]
