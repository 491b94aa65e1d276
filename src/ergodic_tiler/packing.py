"""Construction of packed and saturated cell families on finite graphs.

A pack over a prepartition is a set that respects existing cells and brings
proportionally much new mass; packed means no such set exists within the
given family. Saturation additionally forbids growing any single cell inside
the family. Both are driven by one deterministic candidate search: greedy
connected growth from an anchor, absorbing whole cells when touched, with
full enumeration taking over on small components.

Each public call builds one search object and runs all of its work on it;
packed_and_saturated runs its packing, saturation and re-check rounds on a
single search, so a greedy chain known to admit nothing is not grown again
until a cell is installed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import EmptySet, InvariantBreach
from .graph import _is_connected_sorted, quotient
from .partition import Prepartition
from .validation import as_values_array, as_vertex_array, check_positive, require_same_component, sorted_distinct


@dataclass(frozen=True)
class SearchBudget:
    """Candidate search limits.

    Components with at most exhaustive_limit vertices are searched by full
    enumeration (the search is then complete); larger ones use greedy growth
    capped at max_units vertices per candidate, an absorbed cell counting
    with all of its vertices.
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
    min_ratio = 0.0

    def contains(self, graph, cocycle, vertices):
        raise NotImplementedError

    def admits(self, mass, fdot, wmax):
        """Cheap admission test from a candidate's running totals.

        mass, fdot and wmax are the candidate's normalized mass, its
        values-weighted mass and its heaviest normalized atom; the search
        only offers candidates that pass this test to contains. It must
        reject mass < min_ratio * wmax: a greedy chain ends once that
        product exceeds any mass the chain could reach.
        """
        return True


class ConnectedFamily(CellFamily):
    """All nonempty connected sets."""

    def contains(self, graph, cocycle, vertices):
        v = as_vertex_array(vertices, graph.vertex_count)
        return v.size > 0 and _is_connected_sorted(graph, v)


class CentralFamily(CellFamily):
    """The paper's family S.

    U is in S iff it is connected, |sum f w| < lam * sum w and
    sum w >= min_ratio * max w, with w the vertex weights over U. admits is
    this test on a candidate's running totals; contains is connectivity plus
    admits on U's own totals.
    """

    def __init__(self, values, lam, min_ratio=1.0):
        self.values = np.asarray(as_values_array(values), dtype=float)
        self.lam = float(lam)
        self.min_ratio = float(min_ratio)

    def contains(self, graph, cocycle, vertices):
        v = as_vertex_array(vertices, graph.vertex_count)
        if v.size == 0 or not _is_connected_sorted(graph, v):
            return False
        lw = cocycle.log_weight[v]
        w = np.exp(lw - lw.max())
        return self.admits(w.sum(), np.dot(self.values[v], w), 1.0)

    def admits(self, mass, fdot, wmax):
        if mass <= 0 or mass < self.min_ratio * wmax:
            return False
        return abs(fdot) < self.lam * mass


def family_S_membership(graph, values, cocycle, U, lam, min_ratio, relation):
    """Membership of U in the family S over a relation, decided on its contraction.

    U must be a union of classes; it is in S iff its classes are in S on the
    contraction, since contracting keeps connectivity, masses and weighted
    sums. Every class must be connected, or quotient raises DisconnectedClass.
    """
    check_positive(lam, "lam")
    check_positive(min_ratio, "min_ratio")
    U = as_vertex_array(U, graph.vertex_count)
    classes = sorted_distinct(relation.class_of[U])
    if np.isin(relation.class_of, classes).sum() != U.size:
        return False
    q = quotient(graph, cocycle, values, relation)
    return CentralFamily(q.values, lam, min_ratio).contains(q.graph, q.cocycle, classes)


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


def _pick(order, units, fsum, room, no_cells):
    """The eligible frontier unit with the smallest (abs(fsum + fdot), unit), or None.

    order is the frontier sorted by (fdot, unit), and units maps each unit
    on it to (its unit_stats, whether it is a cell); fdot is a unit's
    values-weighted mass, the third of its unit_stats, and a unit is named
    by its smallest vertex. A unit is eligible when its size is at most room
    and, with no_cells set, it is not a cell. From the split, the first entry
    with fdot >= -fsum, rightward fsum + fdot is >= 0 and non-decreasing, and
    leftward it is <= 0 and non-increasing; float rounding is monotone, so
    this holds for the computed sums too, and the score never falls moving
    away from the split on either side. The walk therefore visits the groups
    of equal fdot outward from the split, right side first, and stops on a
    side at the first group scoring above the best found. Inside a group
    every score is equal and units ascend, so the group's first eligible unit
    is its best: the right walk skips the rest of a group by bisect once it
    meets one, and the left walk scans each group from its start.
    """
    best_score, best = inf, None
    split = bisect_left(order, (-fsum, -1))
    i = split
    while i < len(order):
        fdot, unit = order[i]
        score = abs(fsum + fdot)
        if score > best_score:
            break
        stats, is_cell = units[unit]
        if stats[0] <= room and not (no_cells and is_cell):
            # score <= best_score here, so this compares (score, unit)
            if best is None or score < best_score or unit < best:
                best_score, best = score, unit
            i = bisect_left(order, (fdot, inf), i)
        else:
            i += 1
    i = split - 1
    while i >= 0:
        fdot = order[i][0]
        score = abs(fsum + fdot)
        if score > best_score:
            break
        lo = bisect_left(order, (fdot, -1), 0, i)
        for _, unit in order[lo : i + 1]:
            stats, is_cell = units[unit]
            if stats[0] <= room and not (no_cells and is_cell):
                if best is None or score < best_score or unit < best:
                    best_score, best = score, unit
                break
        i = lo - 1
    return best


class _Search:
    """A mutable prepartition and the candidate search over it.

    Each public entry point builds one search and runs all of its passes and
    rounds on it through pack, saturate and find_pack. Cells are sorted
    vertex arrays under ids that are never reused, so the per-cell stats
    cache cannot go stale. A unit is a free vertex or a whole cell, named by
    its smallest vertex; head maps every vertex to its unit.

    head, cell_of, nw and fnw are written only in place, never rebound, so
    the memoryviews over them, made once here, stay in step with them; the
    greedy steps read plain Python numbers through these views and copy no
    array. A family without values has fnw all zero.

    dead holds the anchors whose last greedy chain ended, absorbed no cell
    and had no snapshot with fresh mass that passed family.admits. Such a
    chain never consulted p (its absorbed mass stayed zero) nor a max_cells
    of at least one, and where the ratio floor ended it early, admits
    rejects the rest of the chain whatever p and max_cells are; so it yields
    nothing for any of them and candidates skips its anchor. Installing a
    cell can change how every chain grows, so apply empties the set.
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
        self.dead = set()
        for c in cells:
            # the search runs one component at a time
            require_same_component(graph, c, f"cell starting at vertex {int(c[0])}")
            self._install(c)
        self.nw = cocycle.component_normalized_weights(graph)
        self.fnw = np.zeros(n) if family.values is None else self.nw * family.values
        self.head_v = memoryview(self.head)
        self.cell_of_v = memoryview(self.cell_of)
        self.nw_v = memoryview(self.nw)
        self.fnw_v = memoryview(self.fnw)
        # No float sum of a component's nw exceeds its mass_bound: k positive
        # terms summed in any order round to within a relative (k - 1)u of
        # their exact total S, u = 2**-53 (Jeannerod and Rump 2013), so a
        # chain's mass is at most S(1 + nu) and bincount's total at least
        # S(1 - nu); the float 1 + 4nu, rounded product and all, covers that.
        totals = np.bincount(graph.component_id, weights=self.nw, minlength=graph.component_count)
        self.mass_bound = totals * (1.0 + 4.0 * n * 2.0**-53)
        sizes = np.bincount(graph.component_id, minlength=graph.component_count)
        self.small = sizes <= budget.exhaustive_limit

    def _install(self, vertices):
        ci = self._next_id
        self._next_id += 1
        self.cells[ci] = vertices
        self.cell_of[vertices] = ci
        self.head[vertices] = vertices[0]

    def met_cells(self, vertices):
        """Ids of the cells meeting the vertices, ascending, and whether one of
        them is cut: meets the vertices without lying inside them. The ids go
        through sorted_distinct, as a plain np.unique would load numpy.ma
        inside a run."""
        inside = self.cell_of[vertices]
        inside = inside[inside >= 0]
        met = sorted_distinct(inside).tolist()
        return met, sum(len(self.cells[ci]) for ci in met) != inside.size

    def apply(self, vertices):
        """Install a new cell, absorbing every cell it meets."""
        met, cut = self.met_cells(vertices)
        if cut:
            raise InvariantBreach("candidate cuts an existing cell")
        for ci in met:
            del self.cells[ci]
        self._install(vertices)
        self.dead.clear()

    def freeze(self):
        return Prepartition.from_labels(self.cell_of)

    def unit_vertices(self, unit):
        ci = self.cell_of[unit]
        return self.cells[ci] if ci >= 0 else (unit,)

    def unit_stats(self, unit):
        """(size, mass, values-weighted mass, heaviest atom) of one unit."""
        ci = self.cell_of_v[unit]
        if ci < 0:
            w = self.nw_v[unit]
            return (1, w, self.fnw_v[unit], w)
        st = self._stats.get(ci)
        if st is None:
            cell = self.cells[ci]
            nw = self.nw[cell]
            st = (len(cell), float(nw.sum()), float(self.fnw[cell].sum()), float(nw.max()))
            self._stats[ci] = st
        return st

    def candidates(self, comp, max_cells, p, anchor_at_cells, last=False):
        """Oracle-verified candidates of one component.

        A component within the exhaustive limit yields every candidate of
        the complete search, lazily, one smallest vertex at a time. A larger
        one yields, anchor by anchor in vertex order, the first (or, with
        last, the last) verified snapshot of each greedy chain. The stream
        is lazy, so a caller may apply a candidate before the next chain
        grows. Cells anchor chains only when anchor_at_cells is set, and
        dead anchors anchor none.
        """
        members = self.graph.component_members(comp)
        if self.small[comp]:
            yield from self._exhaustive(members, max_cells, p)
            return
        possible = self.head[members] == members
        if not anchor_at_cells:
            possible &= self.cell_of[members] < 0
        # An apply between two chains only shrinks these sets: it turns free
        # vertices into cell members, and a new cell's head, its smallest
        # vertex, is a free vertex or the head of a cell it absorbs. So the
        # masked anchors are tested again as the stream reaches them.
        head, cell_of = self.head_v, self.cell_of_v
        for v in members[possible].tolist():
            if head[v] != v or (cell_of[v] >= 0 and not anchor_at_cells) or v in self.dead:
                continue
            grown = []
            sizes = self.chain(v, max_cells, p, grown)
            if last:
                # the whole chain grows first; a vertex set is sorted only
                # once the oracle asks for it, which is mostly the last one
                sizes = reversed(list(sizes))
            for size in sizes:
                cand = np.array(sorted(grown[:size]), dtype=np.int64)
                if self.family.contains(self.graph, self.cocycle, cand):
                    yield cand
                    break

    def chain(self, anchor, max_cells, p, vertices):
        """Greedy connected growth from an anchor unit; yields admissible prefix lengths.

        The candidate's total vertex count on the current graph is capped at
        the budget's max_units, so repeated growth rounds cannot snowball a
        cell past the budget. max_cells caps how many existing cells may be
        absorbed (None means unlimited). Only candidates whose fresh mass is
        positive and at least p times their absorbed mass, and which pass
        the family's admits test, are yielded, as the length of the prefix
        of vertices, the list the growth appends to.

        Each step adds the frontier unit that keeps the candidate closest to
        balance: among the units that fit the remaining room (and are not
        cells once max_cells are absorbed), the one with the smallest
        (abs(fsum + fdot), unit), where fsum is the candidate's
        values-weighted mass and fdot the unit's. The frontier is kept sorted
        by (fdot, unit), and the score never falls moving away from the
        first entry with fdot >= -fsum, so the pick walks outward from there
        in groups of equal fdot and may stop on each side at the first group
        scoring above the best found; see _pick. A family without
        values has fdot 0 everywhere, so the smallest fitting unit is added.
        The chain also ends once the ratio floor times its heaviest atom,
        tested as that atom grows, exceeds the component's mass_bound:
        admits then rejects every later snapshot. A chain that ends without
        absorbing a cell or yielding marks its anchor dead.

        Each added vertex reads its neighbours once, through one
        graph.neighbors call, unless its unit ends the chain, by filling it
        to max_units or by the ratio floor: an ended chain stops before its
        next pick, and neither the yield test nor the dead-anchor rule reads
        the frontier, so that unit's neighbours are never read.
        """
        neighbors = self.graph.neighbors
        head, cell_of, nw, fnw = self.head_v, self.cell_of_v, self.nw_v, self.fnw_v
        unit_stats = self.unit_stats
        admits = self.family.admits
        floor = self.family.min_ratio
        bound = float(self.mass_bound[self.graph.component_id[anchor]])
        cap = self.budget.max_units

        # units added or on the frontier
        reached = {anchor}
        # the frontier: (fdot, unit) sorted, and unit -> (unit_stats, is a cell)
        order = []
        units = {}
        mass = 0.0
        new_mass = 0.0
        old_mass = 0.0
        fsum = 0.0
        wmax = 0.0
        cells_used = 0
        yielded = False

        unit = anchor
        stats = unit_stats(anchor)
        if stats[0] > cap:
            return
        while True:
            _, umass, fdot, umax = stats
            mass += umass
            fsum += fdot
            ci = cell_of[unit]
            if ci >= 0:
                old_mass += umass
                cells_used += 1
                members = self.cells[ci].tolist()
                vertices.extend(members)
            else:
                new_mass += umass
                members = (unit,)
                vertices.append(unit)
            # a full chain ends before it would pick from a frontier
            ended = len(vertices) >= cap
            if umax > wmax:
                wmax = umax
                # admits rejects mass < floor * wmax, this very product
                ended = ended or floor * wmax > bound
            if not ended:
                for v in members:
                    for w in neighbors(v).tolist():
                        u = head[w]
                        if u in reached:
                            continue
                        reached.add(u)
                        if cell_of[u] < 0:
                            x = nw[u]
                            entry = ((1, x, fnw[u], x), False)
                        else:
                            entry = (unit_stats(u), True)
                        insort(order, (entry[0][2], u))
                        units[u] = entry
            if new_mass > 0.0 and new_mass >= p * old_mass and admits(mass, fsum, wmax):
                yielded = True
                yield len(vertices)
            if ended:
                break
            unit = _pick(order, units, fsum, cap - len(vertices), max_cells is not None and cells_used >= max_cells)
            if unit is None:
                break
            stats = units.pop(unit)[0]
            del order[bisect_left(order, (stats[2], unit))]
        if not yielded and cells_used == 0:
            self.dead.add(anchor)

    def _exhaustive(self, members, max_cells, p):
        """All connected invariant candidates of one small component that
        pass the oracle, ordered by (smallest vertex, size, lexicographic
        members).

        ESU (Wernicke 2006) grows the connected unit sets of each smallest
        unit a, and so of smallest vertex a, in turn. Adding a unit w extends
        the set's extension by w's neighbours above a that are neither in the
        set nor next to it; a unit thus enters an extension only with the
        first member it touches and leaves for good once popped, so each set
        is built once and is connected. The oracle still tests the vertex
        set, as a cell may be disconnected. A set past max_cells cells is not
        grown. A group is sorted and checked only when the caller asks past
        the group before it.
        """
        head, cell_of, unit_stats = self.head_v, self.cell_of_v, self.unit_stats
        adj = {
            u: {head[w] for v in self.unit_vertices(u) for w in self.graph.neighbors(v).tolist()} - {u}
            for u in sorted_distinct(self.head[members]).tolist()
        }
        for a in adj:
            group = []
            # (units of the set, its extension, the set and its neighbours)
            stack = [((a,), {w for w in adj[a] if w > a}, adj[a] | {a})]
            while stack:
                chosen, ext, near = stack.pop()
                # ascending, so the sums do not depend on the order of additions
                chosen = sorted(chosen)
                cells = [u for u in chosen if cell_of[u] >= 0]
                if max_cells is not None and len(cells) > max_cells:
                    continue
                new_mass = sum(unit_stats(u)[1] for u in chosen if cell_of[u] < 0)
                old_mass = sum(unit_stats(u)[1] for u in cells)
                if not (new_mass <= 0.0 or new_mass < p * old_mass):
                    group.append(sorted(int(v) for u in chosen for v in self.unit_vertices(u)))
                while ext:
                    w = ext.pop()
                    stack.append(((*chosen, w), ext | {x for x in adj[w] - near if x > a}, near | adj[w]))
            for cand in sorted(group, key=lambda c: (len(c), c)):
                cand = np.array(cand, dtype=np.int64)
                if self.family.contains(self.graph, self.cocycle, cand):
                    yield cand

    def pack(self, p):
        """Apply p-packs until a pass finds none; see packed."""
        for _ in range(MAX_PASSES):
            changed = False
            for comp in range(self.graph.component_count):
                if self.small[comp]:
                    # apply the first complete-search candidate, then enumerate again
                    while (cand := next(self.candidates(comp, None, p, False), None)) is not None:
                        self.apply(cand)
                        changed = True
                else:
                    for cand in self.candidates(comp, None, p, False, last=True):
                        self.apply(cand)
                        changed = True
            if not changed:
                return
        raise InvariantBreach("packing failed to stabilize within the pass cap")

    def saturate(self):
        """Apply injective family growths until a pass finds none; see saturate."""

        def gain_key(cand):
            free = cand[self.cell_of[cand] < 0]
            return (-float(self.nw[free].sum()), int(cand[0]), tuple(int(x) for x in cand))

        for _ in range(MAX_PASSES):
            proposals = [
                cand
                for comp in range(self.graph.component_count)
                for cand in self.candidates(comp, 1, 0.0, anchor_at_cells=True, last=True)
            ]
            applied = False
            # keys are all taken before the first growth is applied
            for cand in sorted(proposals, key=gain_key):
                # stale unless it still meets free vertices and at most one
                # cell, cutting none; an uncut candidate inside one cell is it
                met, cut = self.met_cells(cand)
                if cut or len(met) > 1 or (met and len(self.cells[met[0]]) == len(cand)):
                    continue
                self.apply(cand)
                applied = True
            if not applied:
                return
        raise InvariantBreach("saturation failed to stabilize within the pass cap")

    def find_pack(self, p, injective=False):
        """First pack over the current cells, or None; see find_pack."""
        max_cells = 1 if injective else None
        prepart = None
        for comp in range(self.graph.component_count):
            for cand in self.candidates(comp, max_cells, p, anchor_at_cells=injective):
                if prepart is None:
                    prepart = self.freeze()
                cert = is_p_pack(self.graph, self.cocycle, prepart, cand, p)
                if cert is None or cert.new_mass <= 0.0:
                    continue
                if injective and len(cert.absorbed_cells) > 1:
                    continue
                return cert
        return None


def find_pack(graph, cocycle, family, prepart, p, budget=DEFAULT_BUDGET, injective=False):
    """First pack over the prepartition found within the family, or None.

    Complete on components within the exhaustive limit, greedy beyond it.
    Every candidate has passed the family oracle once; a returned pack is
    re-checked against the mass condition and always carries fresh mass.
    """
    return _Search(graph, cocycle, family, budget, prepart.cells).find_pack(p, injective)


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
    search.pack(p)
    return search.freeze()


def saturate(graph, cocycle, family, prepart, budget=DEFAULT_BUDGET):
    """Extend cells (and plant new ones) until no injective family set remains.

    A growth step replaces one cell by a family superset absorbing only free
    vertices, or adds a brand-new cell disjoint from the domain. Per pass the
    collected growths are applied biggest mass gain first, smallest leading
    vertex breaking ties; stale proposals are dropped and retried next pass.
    """
    search = _Search(graph, cocycle, family, budget, prepart.cells)
    search.saturate()
    return search.freeze()


def packed_and_saturated(graph, cocycle, family, p, budget=DEFAULT_BUDGET):
    """Prepartition that is simultaneously p-packed and saturated in the family.

    Packs are installed at p/2 first; saturation then grows cells, which keeps
    the result packed at any threshold above p/2. If the budgeted search still
    finds a p-pack afterwards it is applied and the round repeats. All rounds
    run on one search.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    search = _Search(graph, cocycle, family, budget)
    search.pack(p / 2.0)
    for _ in range(MAX_ROUNDS):
        search.saturate()
        cert = search.find_pack(p)
        if cert is None:
            return search.freeze()
        # a pack cuts no cell, so it absorbs every cell it meets
        search.apply(cert.vertices)
    raise InvariantBreach("packed_and_saturated failed to reach a joint fixpoint")


def audit_packed(graph, cocycle, family, prepart, p, budget=DEFAULT_BUDGET):
    """Budgeted re-search for packs; None means none found."""
    return find_pack(graph, cocycle, family, prepart, p, budget)


def audit_saturated(graph, cocycle, family, prepart, budget=DEFAULT_BUDGET):
    """Budgeted re-search for injective family growths; None means none found."""
    return find_pack(graph, cocycle, family, prepart, p=0.0, budget=budget, injective=True)
