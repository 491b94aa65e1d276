"""Construction of packed and saturated cell families on finite graphs.

A pack over a prepartition is a set that respects existing cells and brings
proportionally much new mass; packed means no such set exists within the
given family. Saturation additionally forbids growing any single cell inside
the family. Both are driven by one deterministic candidate search: greedy
connected growth from an anchor, absorbing whole cells when touched, with
full enumeration taking over on small components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averages import weighted_average
from .errors import EmptySet, InvariantBreach
from .graph import is_connected_set, rho_max_ratio
from .partition import Prepartition
from .validation import as_values_array, as_vertex_array, require_same_component


@dataclass(frozen=True)
class SearchBudget:
    """Candidate search limits.

    Components with at most exhaustive_limit vertices are searched by full
    enumeration (the search is then complete); larger ones use greedy growth
    capped at max_units atoms per candidate, where an atom is a free vertex or
    a whole existing cell.
    """

    exhaustive_limit: int = 12
    max_units: int = 64


DEFAULT_BUDGET = SearchBudget()
MAX_PASSES = 10_000
MAX_ROUNDS = 64


class CellFamily:
    """Deterministic membership oracle over vertex sets.

    values, when set, are the per-vertex values the growth search steers
    toward balance with.
    """

    values = None

    def contains(self, graph, cocycle, vertices):
        raise NotImplementedError

    def admits(self, mass, fdot, wmax):
        """Cheap admission test from a candidate's running totals.

        mass, fdot and wmax are the candidate's normalized mass, its
        values-weighted mass and its heaviest normalized atom; the search
        only offers candidates that pass this test to contains.
        """
        return True


class ConnectedFamily(CellFamily):
    """All nonempty connected sets."""

    def contains(self, graph, cocycle, vertices):
        v = as_vertex_array(vertices, graph.vertex_count)
        return v.size > 0 and is_connected_set(graph, v)


class CentralFamily(CellFamily):
    """Connected sets with near-zero weighted mean and large mass ratio.

    Admits U iff |average of f over U| < lam and mass(U)/max-atom(U) >= min_ratio.
    """

    def __init__(self, values, lam, min_ratio=1.0):
        self.values = np.asarray(as_values_array(values), dtype=float)
        self.lam = float(lam)
        self.min_ratio = float(min_ratio)

    def contains(self, graph, cocycle, vertices):
        v = as_vertex_array(vertices, graph.vertex_count)
        if v.size == 0 or not is_connected_set(graph, v):
            return False
        if rho_max_ratio(graph, cocycle, v) < self.min_ratio:
            return False
        return abs(weighted_average(self.values, cocycle, v)) < self.lam

    def admits(self, mass, fdot, wmax):
        if mass <= 0 or mass < self.min_ratio * wmax:
            return False
        return abs(fdot) < self.lam * mass


@dataclass(frozen=True)
class PackCertificate:
    """Witness that a set is a valid p-pack over a prepartition."""

    vertices: np.ndarray
    absorbed_cells: tuple
    new_mass: float
    covered_mass: float
    p: float


def is_p_pack(graph, cocycle, prepart, A, p):
    """Certificate iff A respects the cells and carries enough new mass.

    Masses are taken relative to the heaviest vertex of A.
    """
    A = as_vertex_array(A, graph.vertex_count)
    if A.size == 0:
        raise EmptySet("pack candidate must be nonempty")
    require_same_component(graph, A, "pack candidate")
    if not prepart.is_invariant(A):
        return None
    anchor = float(cocycle.log_weight[A].max())
    w = np.exp(cocycle.log_weight[A] - anchor)
    covered = prepart.cell_of[A] >= 0
    covered_mass = float(w[covered].sum())
    new_mass = float(w[~covered].sum())
    if new_mass < p * covered_mass or (new_mass == 0.0 and covered_mass == 0.0):
        return None
    return PackCertificate(
        vertices=A,
        absorbed_cells=tuple(prepart.cells_inside(A)),
        new_mass=new_mass,
        covered_mass=covered_mass,
        p=float(p),
    )


class _Search:
    """A mutable prepartition and the candidate search over it.

    Cells are sorted vertex arrays under ids that are never reused, so the
    per-cell stats cache cannot go stale. A unit is a free vertex or a whole
    cell, named by its smallest vertex; head maps every vertex to its unit.
    """

    def __init__(self, graph, cocycle, family, budget, cells=()):
        self.graph = graph
        self.cocycle = cocycle
        self.family = family
        self.budget = budget
        n = graph.vertex_count
        self.cell_of = np.full(n, -1, dtype=np.int64)
        self.head = np.arange(n, dtype=np.int64)
        self.cells = {}
        self._stats = {}
        self._next_id = 0
        for c in cells:
            self._install(c)
        self.nw = cocycle.component_normalized_weights(graph)
        self.fnw = None if family.values is None else self.nw * family.values
        sizes = np.bincount(graph.component_id, minlength=graph.component_count)
        self.small = sizes <= budget.exhaustive_limit

    def _install(self, vertices):
        ci = self._next_id
        self._next_id += 1
        self.cells[ci] = vertices
        self.cell_of[vertices] = ci
        self.head[vertices] = vertices[0]

    def cuts_a_cell(self, vertices):
        """True iff some cell meets the vertices without lying inside them."""
        inside = self.cell_of[vertices]
        inside = inside[inside >= 0]
        return sum(len(self.cells[ci]) for ci in np.unique(inside).tolist()) != inside.size

    def apply(self, vertices):
        """Install a new cell, absorbing every cell it meets."""
        if self.cuts_a_cell(vertices):
            raise InvariantBreach("candidate cuts an existing cell")
        for ci in np.unique(self.cell_of[vertices]).tolist():
            if ci >= 0:
                del self.cells[ci]
        self._install(vertices)

    def freeze(self):
        return Prepartition.from_labels(self.cell_of)

    def unit_vertices(self, unit):
        ci = self.cell_of[unit]
        return self.cells[ci] if ci >= 0 else (unit,)

    def unit_stats(self, unit):
        """(size, mass, values-weighted mass, heaviest atom) of one unit."""
        ci = int(self.cell_of[unit])
        if ci < 0:
            fdot = float(self.fnw[unit]) if self.fnw is not None else 0.0
            return (1, float(self.nw[unit]), fdot, float(self.nw[unit]))
        st = self._stats.get(ci)
        if st is None:
            cell = self.cells[ci]
            fdot = float(self.fnw[cell].sum()) if self.fnw is not None else 0.0
            st = (len(cell), float(self.nw[cell].sum()), fdot, float(self.nw[cell].max()))
            self._stats[ci] = st
        return st

    def candidates(self, comp, max_cells, p, anchor_at_cells, last=False):
        """Oracle-verified candidates of one component.

        A component within the exhaustive limit yields every candidate of
        the complete search. A larger one yields, anchor by anchor in vertex
        order, the first (or, with last, the last) verified snapshot of each
        greedy chain. The stream is lazy, so a caller may apply a candidate
        before the next chain grows. Cells anchor chains only when
        anchor_at_cells is set.
        """
        members = self.graph.component_members(comp)
        if self.small[comp]:
            yield from self._exhaustive(members, max_cells, p)
            return
        for v in members.tolist():
            if self.head[v] != v or (self.cell_of[v] >= 0 and not anchor_at_cells):
                continue
            snaps = self.chain(v, max_cells, p)
            if last:
                snaps = reversed(list(snaps))
            for cand in snaps:
                if self.family.contains(self.graph, self.cocycle, cand):
                    yield cand
                    break

    def chain(self, anchor, max_cells, p):
        """Greedy connected growth from an anchor unit; yields admissible vertex sets.

        The candidate's total vertex count on the current graph is capped at
        the budget's max_units, so repeated growth rounds cannot snowball a
        cell past the budget. max_cells caps how many existing cells may be
        absorbed (None means unlimited). Only candidates whose fresh mass is
        positive and at least p times their absorbed mass, and which pass
        the family's admits test, are yielded; growth steers toward balance
        when the family has values.
        """
        graph = self.graph
        head = self.head
        cell_of = self.cell_of
        admits = self.family.admits
        cap = self.budget.max_units
        balance = self.fnw is not None

        in_units = set()
        vertices = []
        # frontier stored as parallel arrays for vectorized selection
        f_pos = {}
        f_units = np.empty(cap * 8, dtype=np.int64)
        f_sizes = np.empty(cap * 8, dtype=np.int64)
        f_fdots = np.empty(cap * 8)
        f_cell = np.empty(cap * 8, dtype=bool)
        f_active = np.zeros(cap * 8, dtype=bool)
        f_len = 0
        mass = 0.0
        new_mass = 0.0
        old_mass = 0.0
        fsum = 0.0
        wmax = 0.0
        cells_used = 0

        def push_frontier(unit):
            nonlocal f_len, f_units, f_sizes, f_fdots, f_cell, f_active
            if f_len == len(f_units):
                f_units, f_sizes, f_fdots, f_cell, f_active = (
                    np.concatenate([a, np.zeros_like(a)])
                    for a in (f_units, f_sizes, f_fdots, f_cell, f_active)
                )
            size, _, fdot, _ = self.unit_stats(unit)
            f_units[f_len] = unit
            f_sizes[f_len] = size
            f_fdots[f_len] = fdot
            f_cell[f_len] = cell_of[unit] >= 0
            f_active[f_len] = True
            f_pos[unit] = f_len
            f_len += 1

        def add_unit(unit):
            nonlocal mass, new_mass, old_mass, fsum, wmax, cells_used
            in_units.add(unit)
            pos = f_pos.pop(unit, None)
            if pos is not None:
                f_active[pos] = False
            _, umass, fdot, umax = self.unit_stats(unit)
            mass += umass
            fsum += fdot
            wmax = max(wmax, umax)
            if cell_of[unit] >= 0:
                old_mass += umass
                cells_used += 1
            else:
                new_mass += umass
            for v in self.unit_vertices(unit):
                vertices.append(int(v))
                for u in graph.neighbors(v):
                    w_unit = int(head[u])
                    if w_unit in in_units or w_unit in f_pos:
                        continue
                    push_frontier(w_unit)

        if self.unit_stats(anchor)[0] > cap:
            return
        add_unit(anchor)
        while True:
            if new_mass > 0.0 and new_mass >= p * old_mass and admits(mass, fsum, wmax):
                yield np.array(sorted(vertices), dtype=np.int64)
            room = cap - len(vertices)
            if room <= 0 or not f_pos:
                return
            mask = f_active[:f_len] & (f_sizes[:f_len] <= room)
            if max_cells is not None and cells_used >= max_cells:
                mask &= ~f_cell[:f_len]
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                return
            if balance:
                scores = np.abs(fsum + f_fdots[idx])
                ties = idx[scores == scores.min()]
            else:
                ties = idx
            # units are named by their smallest vertex, which breaks ties
            add_unit(int(f_units[ties[0]] if ties.size == 1 else f_units[ties].min()))

    def _exhaustive(self, members, max_cells, p):
        """All connected invariant candidates of one small component that
        pass the oracle, ordered by (smallest vertex, size, lexicographic
        members)."""
        units = np.unique(self.head[members]).tolist()
        k = len(units)
        pos = {u: i for i, u in enumerate(units)}
        unit_adj = [set() for _ in range(k)]
        for i, u in enumerate(units):
            for v in self.unit_vertices(u):
                for nb in self.graph.neighbors(v):
                    j = pos[int(self.head[nb])]
                    if j != i:
                        unit_adj[i].add(j)
        is_cell = [bool(self.cell_of[u] >= 0) for u in units]
        masses = [self.unit_stats(u)[1] for u in units]

        found = []
        for mask in range(1, 1 << k):
            chosen = [i for i in range(k) if mask >> i & 1]
            if max_cells is not None and sum(is_cell[i] for i in chosen) > max_cells:
                continue
            csel = set(chosen)
            seen = {chosen[0]}
            stack = [chosen[0]]
            while stack:
                i = stack.pop()
                for j in unit_adj[i]:
                    if j in csel and j not in seen:
                        seen.add(j)
                        stack.append(j)
            if len(seen) != len(chosen):
                continue
            new_mass = sum(masses[i] for i in chosen if not is_cell[i])
            old_mass = sum(masses[i] for i in chosen if is_cell[i])
            if new_mass <= 0.0 or new_mass < p * old_mass:
                continue
            cand = np.array(
                sorted(int(v) for i in chosen for v in self.unit_vertices(units[i])), dtype=np.int64
            )
            if self.family.contains(self.graph, self.cocycle, cand):
                found.append(cand)
        found.sort(key=lambda a: (int(a[0]), len(a), tuple(int(x) for x in a)))
        return found


def find_pack(graph, cocycle, family, prepart, p, budget=DEFAULT_BUDGET, injective=False):
    """First pack over the prepartition found within the family, or None.

    Complete on components within the exhaustive limit, greedy beyond it.
    Every candidate has passed the family oracle once; a returned pack is
    re-checked against the mass condition and always carries fresh mass.
    """
    search = _Search(graph, cocycle, family, budget, prepart.cells)
    max_cells = 1 if injective else None
    for comp in range(graph.component_count):
        for cand in search.candidates(comp, max_cells, p, anchor_at_cells=injective):
            cert = is_p_pack(graph, cocycle, prepart, cand, p)
            if cert is None or cert.new_mass <= 0.0:
                continue
            if injective and len(cert.absorbed_cells) > 1:
                continue
            return cert
    return None


def packed(graph, cocycle, family, p, budget=DEFAULT_BUDGET):
    """Grow a prepartition inside the family until no p-pack is found.

    Candidates are examined anchor by anchor in vertex-id order and applied
    immediately; every accepted pack strictly increases the covered mass, so
    the loop terminates on finite graphs. Completeness holds only on
    components within the exhaustive limit.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    search = _Search(graph, cocycle, family, budget)
    for _ in range(MAX_PASSES):
        changed = False
        for comp in range(graph.component_count):
            if search.small[comp]:
                # apply the first complete-search candidate, then enumerate again
                while (cand := next(search.candidates(comp, None, p, False), None)) is not None:
                    search.apply(cand)
                    changed = True
            else:
                for cand in search.candidates(comp, None, p, False, last=True):
                    search.apply(cand)
                    changed = True
        if not changed:
            return search.freeze()
    raise InvariantBreach("packing failed to stabilize within the pass cap")


def saturate(graph, cocycle, family, prepart, budget=DEFAULT_BUDGET):
    """Extend cells (and plant new ones) until no injective family set remains.

    A growth step replaces one cell by a family superset absorbing only free
    vertices, or adds a brand-new cell disjoint from the domain. Per pass the
    collected growths are applied biggest mass gain first, smallest leading
    vertex breaking ties; stale proposals are dropped and retried next pass.
    """
    search = _Search(graph, cocycle, family, budget, prepart.cells)

    def gain_key(cand):
        free = cand[search.cell_of[cand] < 0]
        return (-float(search.nw[free].sum()), int(cand[0]), tuple(int(x) for x in cand))

    for _ in range(MAX_PASSES):
        proposals = [
            cand
            for comp in range(graph.component_count)
            for cand in search.candidates(comp, 1, 0.0, anchor_at_cells=True, last=True)
        ]
        applied = False
        # keys are all taken before the first growth is applied
        for cand in sorted(proposals, key=gain_key):
            # stale unless it still meets free vertices and at most one cell
            labels = np.unique(search.cell_of[cand])
            if labels[0] >= 0 or labels.size > 2 or search.cuts_a_cell(cand):
                continue
            search.apply(cand)
            applied = True
        if not applied:
            return search.freeze()
    raise InvariantBreach("saturation failed to stabilize within the pass cap")


def packed_and_saturated(graph, cocycle, family, p, budget=DEFAULT_BUDGET):
    """Prepartition that is simultaneously p-packed and saturated in the family.

    Packs are installed at p/2 first; saturation then grows cells, which keeps
    the result packed at any threshold above p/2. If the budgeted search still
    finds a p-pack afterwards it is applied and the round repeats.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    current = packed(graph, cocycle, family, p / 2.0, budget)
    for _ in range(MAX_ROUNDS):
        current = saturate(graph, cocycle, family, current, budget)
        cert = find_pack(graph, cocycle, family, current, p, budget)
        if cert is None:
            return current
        # a pack cuts no cell, so one new label absorbs every cell it meets
        labels = current.cell_of.copy()
        labels[cert.vertices] = current.cell_count
        current = Prepartition.from_labels(labels)
    raise InvariantBreach("packed_and_saturated failed to reach a joint fixpoint")


def audit_packed(graph, cocycle, family, prepart, p, budget=DEFAULT_BUDGET):
    """Budgeted re-search for packs; None means none found."""
    return find_pack(graph, cocycle, family, prepart, p, budget)


def audit_saturated(graph, cocycle, family, prepart, budget=DEFAULT_BUDGET):
    """Budgeted re-search for injective family growths; None means none found."""
    return find_pack(graph, cocycle, family, prepart, p=0.0, budget=budget, injective=True)
