"""Unit-bounded mass flows along weighted pairs.

An entry phi(x, y) is the fraction of x's mass sent to x's neighbor y; the
receiving side books phi(x, y) * w(x) / w(y). A flow is valid when every
vertex sends at most its whole mass (out <= 1) and receives at most its whole
mass (in <= 1). Absent pairs mean zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CrossComponent, InsufficientCapacity, MalformedFlow, NotClosed, NotDisjoint
from .graph import rho_sorted
from .validation import as_vertex_array, sorted_distinct

NET_TOL = 1e-12
BOUND_TOL = 1e-12
FEAS_SLACK = 1e-12


@dataclass(frozen=True)
class RhoFlow:
    """Sparse nonnegative function on ordered vertex pairs."""

    entries: dict

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))

    @classmethod
    def zero(cls):
        return cls(entries={})

    def domain(self):
        return [p for p, v in self.entries.items() if v != 0]

    def out_flow(self, cocycle, n):
        out = np.zeros(n)
        for (x, _y), v in self.entries.items():
            out[x] += v
        return out

    def in_flow(self, cocycle, n):
        inn = np.zeros(n)
        for (x, y), v in self.entries.items():
            inn[y] += v * cocycle.ratio(x, y)
        return inn

    def net_flow(self, cocycle, n):
        return self.in_flow(cocycle, n) - self.out_flow(cocycle, n)


@dataclass(frozen=True)
class BalanceReport:
    net: np.ndarray
    sources: np.ndarray
    sinks: np.ndarray
    pure_sources: np.ndarray
    pure_sinks: np.ndarray
    violations: tuple
    global_integral: float | None


def validate_flow(flow, graph, cocycle, mu=None):
    """Check entry signs and pair sanity, then report nets and bound breaches.

    Negative or NaN entries, endpoints outside the graph and cross-component
    or diagonal pairs raise; bound violations (out or in above 1) are reported,
    not raised.
    """
    n = graph.vertex_count
    for (x, y), v in flow.entries.items():
        if not (0 <= x < n and 0 <= y < n):
            raise MalformedFlow(f"pair ({x},{y}) has an endpoint outside 0..{n - 1}")
        if not v >= 0:
            raise MalformedFlow(f"entry phi({x},{y}) = {v} is negative or not a number")
        if x == y:
            raise MalformedFlow(f"diagonal entry at vertex {x}")
        if graph.component_id[x] != graph.component_id[y]:
            raise MalformedFlow(f"pair ({x},{y}) crosses components")

    out = flow.out_flow(cocycle, n)
    inn = flow.in_flow(cocycle, n)
    net = inn - out
    violations = []
    for x in np.flatnonzero(out > 1 + BOUND_TOL):
        violations.append((int(x), "out", float(out[x])))
    for y in np.flatnonzero(inn > 1 + BOUND_TOL):
        violations.append((int(y), "in", float(inn[y])))

    sources = np.flatnonzero(net < -NET_TOL)
    sinks = np.flatnonzero(net > NET_TOL)
    pure_sources = sources[inn[sources] == 0]
    pure_sinks = sinks[out[sinks] == 0]
    global_integral = float(np.dot(mu.atoms, net)) if mu is not None else None
    return BalanceReport(
        net=net,
        sources=sources,
        sinks=sinks,
        pure_sources=pure_sources,
        pure_sinks=pure_sinks,
        violations=tuple(violations),
        global_integral=global_integral,
    )


def define_flow(relation, cocycle, U, V, w, exact=False):
    """Greedy water-filling transfer from U to V inside each class.

    Both sides are processed in decreasing weight order; each transfer is
    capped by min(remaining supply, remaining receiving capacity). Requires,
    per class, receiving mass at least the weighted supply; then every u in U
    ends with out-flow exactly w(u).
    """
    U = as_vertex_array(U, relation.vertex_count)
    V = as_vertex_array(V, relation.vertex_count)
    if np.intersect1d(U, V, assume_unique=True).size:
        raise NotDisjoint("U and V overlap")

    if isinstance(w, dict):
        supply = {int(u): float(w[u]) for u in U}
    else:
        w_arr = np.asarray(w, dtype=float)
        if w_arr.shape == (relation.vertex_count,):
            supply = {int(u): float(w_arr[u]) for u in U}
        elif w_arr.shape == (len(U),):
            supply = {int(u): float(x) for u, x in zip(U, w_arr)}
        else:
            raise ValueError("w must map U to [0, inf)")
    for u, s in supply.items():
        if s < 0:
            raise ValueError(f"w({u}) must be nonnegative")
        if s > 1 + BOUND_TOL:
            raise MalformedFlow(f"w({u}) = {s} exceeds the unit out-flow bound")

    num = Fraction if exact else float
    slack = 0 if exact else FEAS_SLACK
    entries = {}
    for ci in sorted_distinct(relation.class_of[U]).tolist():
        cls = relation.classes[ci]
        cls_u = [int(x) for x in cls if x in supply and supply[int(x)] > 0]
        if not cls_u:
            continue
        in_v = np.isin(cls, V)
        cls_v = [int(x) for x in cls[in_v]]

        anchor = float(cocycle.log_weight[cls].max())
        wt = {int(x): num(math.exp(cocycle.log_weight[x] - anchor)) for x in cls}
        sup = {u: num(supply[u]) for u in cls_u}

        demand = sum(sup[u] * wt[u] for u in cls_u)
        capacity = sum(wt[v] for v in cls_v)
        if capacity < demand * (1 - slack):
            raise InsufficientCapacity(
                f"class of vertex {int(cls[0])}: capacity {float(capacity)} < demand {float(demand)}",
                class_anchor=int(cls[0]),
            )

        us = rho_sorted(cocycle, cls_u)
        vs = rho_sorted(cocycle, cls_v)
        in_acc = dict.fromkeys(vs, 0)
        j = 0
        for u in us:
            remaining = sup[u]
            tol = slack * max(1.0, supply[u])
            while remaining > tol and j < len(vs):
                v = vs[j]
                cap = (1 - in_acc[v]) * wt[v] / wt[u]
                if cap <= 0:
                    j += 1
                    continue
                t = cap if cap < remaining else remaining
                entries[(u, v)] = entries.get((u, v), 0) + t
                in_acc[v] += t * wt[u] / wt[v]
                remaining -= t
                if remaining > 0 and t == cap:
                    j += 1
            # exact arithmetic always places the whole supply
            if remaining > tol:
                raise InsufficientCapacity(
                    f"class of vertex {int(cls[0])}: vertex {u} left with supply {float(remaining)}",
                    class_anchor=int(cls[0]),
                )

    return RhoFlow(entries={p: float(v) for p, v in entries.items() if v != 0})


def balance_check(flow, graph, cocycle, U, V, exact=False):
    """Weighted totals sent from U and received by V; equal when U x V is closed.

    Values are anchored at the heaviest vertex of U union V. The flow must not
    touch (U x V-complement) or (U-complement x V).
    """
    U = as_vertex_array(U, graph.vertex_count)
    V = as_vertex_array(V, graph.vertex_count)
    all_v = sorted_distinct(np.concatenate([U, V]))
    if all_v.size == 0:
        return (0.0, 0.0)
    comps = sorted_distinct(graph.component_id[all_v])
    if comps.size > 1:
        raise CrossComponent("U and V must lie in one component")

    u_set = set(int(x) for x in U)
    v_set = set(int(x) for x in V)
    for (x, y), val in flow.entries.items():
        if val == 0:
            continue
        if (x in u_set) != (y in v_set):
            raise NotClosed(f"pair ({x},{y}) leaks outside U x V")

    anchor = float(cocycle.log_weight[all_v].max())
    num = Fraction if exact else float

    def wt(x):
        return num(math.exp(cocycle.log_weight[x] - anchor))

    out_per = {}
    in_per = {}
    for (x, y), v in flow.entries.items():
        out_per[x] = out_per.get(x, 0) + num(v)
        in_per[y] = in_per.get(y, 0) + num(v) * wt(x) / wt(y)
    out_int = sum(out_per.get(int(u), 0) * wt(int(u)) for u in U)
    in_int = sum(in_per.get(int(v), 0) * wt(int(v)) for v in V)
    return out_int, in_int


def global_balance(flow, graph, cocycle, mu):
    """Integral of the net flow against the measure; zero for invariant measures."""
    net = flow.net_flow(cocycle, graph.vertex_count)
    return float(np.dot(mu.atoms, net))


def sum_flows(flows, graph, cocycle):
    """Entrywise sum, re-validated against the unit bounds."""
    entries = {}
    for fl in flows:
        for p, v in fl.entries.items():
            entries[p] = entries.get(p, 0.0) + v
    total = RhoFlow(entries=entries)
    report = validate_flow(total, graph, cocycle)
    if report.violations:
        x, kind, val = report.violations[0]
        raise MalformedFlow(f"sum violates the {kind}-bound at vertex {x}: {val}")
    return total


def disbalance_report(flow, graph, cocycle):
    """Per-component tag: sources-only, sinks-only, mixed, or none."""
    report = validate_flow(flow, graph, cocycle)
    if report.violations:
        x, kind, val = report.violations[0]
        raise MalformedFlow(f"invalid flow: {kind}-bound at vertex {x} is {val}")
    tags = {}
    src = set(int(x) for x in report.sources)
    snk = set(int(x) for x in report.sinks)
    for c in range(graph.component_count):
        members = graph.component_members(c)
        has_src = any(int(v) in src for v in members)
        has_snk = any(int(v) in snk for v in members)
        if has_src and has_snk:
            tags[c] = "mixed"
        elif has_src:
            tags[c] = "sources-only"
        elif has_snk:
            tags[c] = "sinks-only"
        else:
            tags[c] = "none"
    return tags


def read_flow_file(path):
    """Parse lines ``x y value`` into a flow; ``#`` starts a comment.

    A line with the wrong number of tokens, or a token that does not parse,
    raises MalformedFlow naming the line.
    """
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            # a wrong token count fails the unpacking with a ValueError, as a bad token does
            try:
                x, y, v = line.split()
                entries[(int(x), int(y))] = float(v)
            except ValueError:
                raise MalformedFlow(f"{path}: line {number} must be 'x y value'") from None
    return RhoFlow(entries=entries)


def write_flow_file(path, flow):
    with open(path, "w", encoding="utf-8") as fh:
        for (x, y) in sorted(flow.entries):
            v = flow.entries[(x, y)]
            if v != 0:
                fh.write(f"{x} {y} {v!r}\n")
