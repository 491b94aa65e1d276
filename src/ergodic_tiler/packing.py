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
from .graph import is_connected_set, quotient, rho_max_ratio
from .partition import EquivRel, Prepartition
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


class CellFamily:
    """Deterministic membership oracle over vertex sets."""

    balance_guided = False

    def contains(self, graph, cocycle, vertices):
        raise NotImplementedError

    def tracker(self, graph, cocycle):
        """Incremental admission state for the growth search; None means the
        search must fall back to the full oracle at every step."""
        return None


class ConnectedFamily(CellFamily):
    """All nonempty connected sets."""

    def contains(self, graph, cocycle, vertices):
        v = as_vertex_array(vertices, graph.vertex_count)
        return v.size > 0 and is_connected_set(graph, v)

    def tracker(self, graph, cocycle):
        return _AlwaysAdmits()


class SingletonFamily(CellFamily):
    def contains(self, graph, cocycle, vertices):
        return len(as_vertex_array(vertices, graph.vertex_count)) == 1

    def tracker(self, graph, cocycle):
        return _SizeWindowTracker(1, 1)


class SizeWindowFamily(CellFamily):
    """Connected sets whose size lies in [min_size, max_size]."""

    def __init__(self, min_size=1, max_size=None):
        self.min_size = int(min_size)
        self.max_size = None if max_size is None else int(max_size)

    def contains(self, graph, cocycle, vertices):
        v = as_vertex_array(vertices, graph.vertex_count)
        if v.size < self.min_size:
            return False
        if self.max_size is not None and v.size > self.max_size:
            return False
        return v.size > 0 and is_connected_set(graph, v)

    def tracker(self, graph, cocycle):
        return _SizeWindowTracker(self.min_size, self.max_size)


class CentralFamily(CellFamily):
    """Connected sets with near-zero weighted mean and large mass ratio.

    Admits U iff |average of f over U| < lam and mass(U)/max-atom(U) >= min_ratio.
    """

    balance_guided = True

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

    def tracker(self, graph, cocycle):
        return _CentralTracker(self.lam, self.min_ratio)


class _AlwaysAdmits:
    __slots__ = ()

    def add(self, size, mass, fdot, wmax):
        pass

    def admits(self):
        return True


class _SizeWindowTracker:
    __slots__ = ("lo", "hi", "size")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        self.size = 0

    def add(self, size, mass, fdot, wmax):
        self.size += size

    def admits(self):
        if self.size < self.lo:
            return False
        return self.hi is None or self.size <= self.hi


class _CentralTracker:
    __slots__ = ("lam", "min_ratio", "mass", "fdot", "wmax")

    def __init__(self, lam, min_ratio):
        self.lam = lam
        self.min_ratio = min_ratio
        self.mass = 0.0
        self.fdot = 0.0
        self.wmax = 0.0

    def add(self, size, mass, fdot, wmax):
        self.mass += mass
        self.fdot += fdot
        self.wmax = max(self.wmax, wmax)

    def admits(self):
        if self.mass <= 0 or self.mass < self.min_ratio * self.wmax:
            return False
        return abs(self.fdot) < self.lam * self.mass


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


class _Builder:
    """Mutable prepartition state; cells are immutable arrays keyed by id."""

    def __init__(self, graph, cells=()):
        self.n = graph.vertex_count
        self.cells = {}
        self.cell_of = np.full(self.n, -1, dtype=np.int64)
        self.next_id = 0
        for c in cells:
            self.add(np.asarray(c, dtype=np.int64))

    def add(self, vertices):
        ci = self.next_id
        self.next_id += 1
        self.cells[ci] = vertices
        self.cell_of[vertices] = ci
        return ci

    def remove(self, ci):
        self.cell_of[self.cells[ci]] = -1
        del self.cells[ci]

    def cell_vertices(self, ci):
        return self.cells[ci]

    def apply(self, vertices):
        """Install a new cell, absorbing every cell it intersects."""
        for ci in np.unique(self.cell_of[vertices]):
            if ci >= 0:
                if not np.isin(self.cells[ci], vertices).all():
                    raise InvariantBreach("candidate cuts an existing cell")
                self.remove(int(ci))
        return self.add(vertices)

    def freeze(self):
        return Prepartition.from_cells(list(self.cells.values()), self.n)


class _FrozenState:
    """Read adapter so a Prepartition can drive the search directly."""

    def __init__(self, prepart):
        self.cell_of = prepart.cell_of
        self._cells = prepart.cells

    def cell_vertices(self, ci):
        return self._cells[ci]


class _SearchContext:
    """Greedy candidate growth over free vertices and whole cells."""

    def __init__(self, graph, cocycle, family, state, budget):
        self.graph = graph
        self.cocycle = cocycle
        self.family = family
        self.state = _FrozenState(state) if isinstance(state, Prepartition) else state
        self.budget = budget
        self.n = graph.vertex_count
        self.nw = cocycle.component_normalized_weights(graph)
        vals = getattr(family, "values", None)
        self.fnw = self.nw * np.asarray(vals, dtype=float) if vals is not None else None
        self._cell_stats = {}

    def unit_of(self, v):
        ci = self.state.cell_of[v]
        return self.n + int(ci) if ci >= 0 else int(v)

    def unit_vertices(self, unit):
        if unit >= self.n:
            return self.state.cell_vertices(unit - self.n)
        return (unit,)

    def unit_stats(self, unit):
        if unit >= self.n:
            ci = unit - self.n
            st = self._cell_stats.get(ci)
            if st is None:
                cell = self.state.cell_vertices(ci)
                fdot = float(self.fnw[cell].sum()) if self.fnw is not None else 0.0
                st = (len(cell), float(self.nw[cell].sum()), fdot, float(self.nw[cell].max()))
                self._cell_stats[ci] = st
            return st
        fdot = float(self.fnw[unit]) if self.fnw is not None else 0.0
        return (1, float(self.nw[unit]), fdot, float(self.nw[unit]))

    def unit_min_id(self, unit):
        if unit >= self.n:
            return int(self.state.cell_vertices(unit - self.n)[0])
        return unit

    def chain_candidates(self, anchor_unit, max_cells, p):
        """Greedy connected growth from an anchor; yields admissible vertex sets.

        The candidate's total vertex count on the current graph is capped at
        the budget's max_units, so repeated growth rounds cannot snowball a
        cell past the budget. max_cells caps how many existing cells may be
        absorbed (None means unlimited). When p is not None, only candidates
        whose fresh mass is at least p times their absorbed mass (and
        positive) are yielded. Family admission uses the incremental tracker
        when one exists, otherwise the full oracle at every step.
        """
        tracker = self.family.tracker(self.graph, self.cocycle)
        graph = self.graph
        n = self.n
        cap = self.budget.max_units
        balance = bool(getattr(self.family, "balance_guided", False)) and self.fnw is not None

        in_units = set()
        vertices = []
        # frontier stored as parallel arrays for vectorized selection
        f_pos = {}
        f_units = np.empty(cap * 8, dtype=np.int64)
        f_sizes = np.empty(cap * 8, dtype=np.int64)
        f_fdots = np.empty(cap * 8)
        f_minid = np.empty(cap * 8, dtype=np.int64)
        f_active = np.zeros(cap * 8, dtype=bool)
        f_len = 0
        new_mass = 0.0
        old_mass = 0.0
        cells_used = 0
        fsum = 0.0

        def push_frontier(unit):
            nonlocal f_len, f_units, f_sizes, f_fdots, f_minid, f_active
            if f_len == len(f_units):
                f_units = np.concatenate([f_units, np.empty_like(f_units)])
                f_sizes = np.concatenate([f_sizes, np.empty_like(f_sizes)])
                f_fdots = np.concatenate([f_fdots, np.empty_like(f_fdots)])
                f_minid = np.concatenate([f_minid, np.empty_like(f_minid)])
                f_active = np.concatenate([f_active, np.zeros_like(f_active)])
            size, mass, fdot, wmax = self.unit_stats(unit)
            f_units[f_len] = unit
            f_sizes[f_len] = size
            f_fdots[f_len] = fdot
            f_minid[f_len] = self.unit_min_id(unit)
            f_active[f_len] = True
            f_pos[unit] = f_len
            f_len += 1

        def add_unit(unit):
            nonlocal new_mass, old_mass, cells_used, fsum
            in_units.add(unit)
            pos = f_pos.pop(unit, None)
            if pos is not None:
                f_active[pos] = False
            size, mass, fdot, wmax = self.unit_stats(unit)
            if tracker is not None:
                tracker.add(size, mass, fdot, wmax)
            fsum += fdot
            if unit >= n:
                old_mass += mass
                cells_used += 1
            else:
                new_mass += mass
            for v in self.unit_vertices(unit):
                vertices.append(int(v))
                for u in graph.neighbors(v):
                    w_unit = self.unit_of(int(u))
                    if w_unit in in_units or w_unit in f_pos:
                        continue
                    push_frontier(w_unit)

        if self.unit_stats(anchor_unit)[0] > cap:
            return
        add_unit(anchor_unit)
        while True:
            pack_ok = p is None or (new_mass > 0.0 and new_mass >= p * old_mass)
            if pack_ok:
                if tracker is not None:
                    family_ok = tracker.admits()
                else:
                    family_ok = self.family.contains(
                        graph, self.cocycle, np.array(sorted(vertices), dtype=np.int64)
                    )
                if family_ok:
                    yield np.array(sorted(vertices), dtype=np.int64)
            room = cap - len(vertices)
            if room <= 0 or not f_pos:
                return
            mask = f_active[:f_len] & (f_sizes[:f_len] <= room)
            if max_cells is not None and cells_used >= max_cells:
                mask &= f_units[:f_len] < n
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                return
            if balance:
                scores = np.abs(fsum + f_fdots[idx])
                best = scores.min()
                ties = idx[scores == best]
            else:
                ties = idx
            if ties.size == 1:
                pick = int(f_units[ties[0]])
            else:
                pick = int(f_units[ties[np.argmin(f_minid[ties])]])
            add_unit(pick)


def _exhaustive_candidates(ctx, comp, max_cells, p):
    """All connected invariant candidates of one small component, ordered by
    (smallest vertex, size, lexicographic members)."""
    members = ctx.graph.component_members(comp)
    units = sorted({ctx.unit_of(int(v)) for v in members}, key=ctx.unit_min_id)
    k = len(units)
    pos = {u: i for i, u in enumerate(units)}
    unit_adj = [set() for _ in range(k)]
    for i, u in enumerate(units):
        for v in ctx.unit_vertices(u):
            for nb in ctx.graph.neighbors(int(v)):
                w_unit = ctx.unit_of(int(nb))
                if w_unit != u:
                    unit_adj[i].add(pos[w_unit])

    found = []
    for mask in range(1, 1 << k):
        chosen = [i for i in range(k) if mask >> i & 1]
        n_cells = sum(1 for i in chosen if units[i] >= ctx.n)
        if max_cells is not None and n_cells > max_cells:
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
        if p is not None:
            new_mass = sum(ctx.unit_stats(units[i])[1] for i in chosen if units[i] < ctx.n)
            old_mass = sum(ctx.unit_stats(units[i])[1] for i in chosen if units[i] >= ctx.n)
            if new_mass <= 0.0 or new_mass < p * old_mass:
                continue
        cand = np.array(
            sorted(int(v) for i in chosen for v in ctx.unit_vertices(units[i])), dtype=np.int64
        )
        if ctx.family.contains(ctx.graph, ctx.cocycle, cand):
            found.append(cand)
    found.sort(key=lambda a: (int(a[0]), len(a), tuple(int(x) for x in a)))
    return found


def find_pack(graph, cocycle, family, prepart, p, budget=DEFAULT_BUDGET, injective=False):
    """First pack over the prepartition found within the family, or None.

    Complete on components within the exhaustive limit, greedy beyond it; any
    returned pack is re-verified against the family oracle and the mass
    condition, and always carries fresh mass.
    """
    ctx = _SearchContext(graph, cocycle, family, prepart, budget)
    max_cells = 1 if injective else None
    comp_sizes = np.bincount(graph.component_id, minlength=graph.component_count)

    for comp in range(graph.component_count):
        if comp_sizes[comp] <= budget.exhaustive_limit:
            candidates = _exhaustive_candidates(ctx, comp, max_cells, p)
        else:
            candidates = _greedy_component_candidates(ctx, comp, max_cells, p, injective)
        for cand in candidates:
            cert = is_p_pack(graph, cocycle, prepart, cand, p)
            if cert is None or cert.new_mass <= 0.0:
                continue
            if injective and len(cert.absorbed_cells) > 1:
                continue
            if family.contains(graph, cocycle, cand):
                return cert
    return None


def _greedy_component_candidates(ctx, comp, max_cells, p, anchor_at_cells, last=False):
    members = ctx.graph.component_members(comp)
    seen_units = set()
    out = []
    for v in members:
        unit = ctx.unit_of(int(v))
        if unit in seen_units:
            continue
        seen_units.add(unit)
        if unit >= ctx.n and not anchor_at_cells:
            continue
        cand = _chain_pick(ctx, unit, max_cells, p, last=last)
        if cand is not None:
            out.append(cand)
    return out


def _chain_pick(ctx, unit, max_cells, p, last):
    """First or last oracle-verified admissible snapshot of one greedy chain."""
    snaps = []
    for cand in ctx.chain_candidates(unit, max_cells=max_cells, p=p):
        if not last:
            if ctx.family.contains(ctx.graph, ctx.cocycle, cand):
                return cand
            continue
        snaps.append(cand)
    for cand in reversed(snaps):
        if ctx.family.contains(ctx.graph, ctx.cocycle, cand):
            return cand
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
    builder = _Builder(graph)
    comp_sizes = np.bincount(graph.component_id, minlength=graph.component_count)

    for _ in range(MAX_PASSES):
        changed = False
        ctx = _SearchContext(graph, cocycle, family, builder, budget)
        for comp in range(graph.component_count):
            if comp_sizes[comp] <= budget.exhaustive_limit:
                while True:
                    cands = _exhaustive_candidates(ctx, comp, None, p)
                    applied = False
                    for cand in cands:
                        if family.contains(graph, cocycle, cand):
                            builder.apply(cand)
                            ctx._cell_stats.clear()
                            changed = True
                            applied = True
                            break
                    if not applied:
                        break
                continue
            for v in graph.component_members(comp):
                if builder.cell_of[v] >= 0:
                    continue
                cand = _chain_pick(ctx, int(v), None, p, last=True)
                if cand is not None:
                    builder.apply(cand)
                    changed = True
        if not changed:
            return builder.freeze()
    raise InvariantBreach("packing failed to stabilize within the pass cap")


def saturate(graph, cocycle, family, prepart, budget=DEFAULT_BUDGET):
    """Extend cells (and plant new ones) until no injective family set remains.

    A growth step replaces one cell by a family superset absorbing only free
    vertices, or adds a brand-new cell disjoint from the domain. Per pass the
    collected growths are applied biggest mass gain first, smallest leading
    vertex breaking ties; stale proposals are dropped and retried next pass.
    """
    builder = _Builder(graph, cells=prepart.cells)
    nw = cocycle.component_normalized_weights(graph)
    comp_sizes = np.bincount(graph.component_id, minlength=graph.component_count)

    for _ in range(MAX_PASSES):
        current = builder.freeze()
        ctx = _SearchContext(graph, cocycle, family, current, budget)
        proposals = []
        for comp in range(graph.component_count):
            if comp_sizes[comp] <= budget.exhaustive_limit:
                proposals.extend(_exhaustive_candidates(ctx, comp, max_cells=1, p=0.0))
            else:
                proposals.extend(_greedy_component_candidates(ctx, comp, 1, 0.0, True, last=True))
        if not proposals:
            return current

        def gain_key(cand):
            free = cand[current.cell_of[cand] < 0]
            return (-float(nw[free].sum()), int(cand[0]), tuple(int(x) for x in cand))

        applied = False
        for cand in sorted(proposals, key=gain_key):
            inside_now = builder.cell_of[cand]
            touched = [int(ci) for ci in np.unique(inside_now) if ci >= 0]
            if len(touched) > 1 or not np.any(inside_now < 0):
                continue
            if any(not np.isin(builder.cells[ci], cand).all() for ci in touched):
                continue
            if not family.contains(graph, cocycle, cand):
                continue
            builder.apply(cand)
            applied = True
        if not applied:
            return builder.freeze()
    raise InvariantBreach("saturation failed to stabilize within the pass cap")


def packed_and_saturated(graph, cocycle, family, p, budget=DEFAULT_BUDGET, max_rounds=64):
    """Prepartition that is simultaneously p-packed and saturated in the family.

    Packs are installed at p/2 first; saturation then grows cells, which keeps
    the result packed at any threshold above p/2. If the budgeted search still
    finds a p-pack afterwards it is applied and the round repeats.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    current = packed(graph, cocycle, family, p / 2.0, budget)
    for _ in range(max_rounds):
        current = saturate(graph, cocycle, family, current, budget)
        cert = find_pack(graph, cocycle, family, current, p, budget)
        if cert is None:
            return current
        builder = _Builder(graph, cells=current.cells)
        builder.apply(cert.vertices)
        current = builder.freeze()
    raise InvariantBreach("packed_and_saturated failed to reach a joint fixpoint")


def audit_packed(graph, cocycle, family, prepart, p, budget=DEFAULT_BUDGET):
    """Budgeted re-search for packs; None means none found."""
    return find_pack(graph, cocycle, family, prepart, p, budget)


def audit_saturated(graph, cocycle, family, prepart, budget=DEFAULT_BUDGET):
    """Budgeted re-search for injective family growths; None means none found."""
    return find_pack(graph, cocycle, family, prepart, p=0.0, budget=budget, injective=True)


@dataclass(frozen=True)
class LargeRatioResult:
    prepartition: Prepartition
    stages: tuple
    covered_mass: float
    iterations: int
    uncoverable_components: tuple
    stalled: bool


class _LiftedRatioFamily(CellFamily):
    """Quotient-level family: contraction ratio at least L and, lifted back to
    base vertices, membership in the caller's family."""

    def __init__(self, base_family, base_graph, base_cocycle, lift_classes, min_ratio):
        self.base_family = base_family
        self.base_graph = base_graph
        self.base_cocycle = base_cocycle
        self.lift_classes = lift_classes
        self.min_ratio = float(min_ratio)

    def lift(self, qset):
        return np.sort(np.concatenate([self.lift_classes[int(q)] for q in qset]))

    def contains(self, graph, cocycle, vertices):
        v = as_vertex_array(vertices, graph.vertex_count)
        if v.size == 0 or not is_connected_set(graph, v):
            return False
        if rho_max_ratio(graph, cocycle, v) < self.min_ratio:
            return False
        return self.base_family.contains(self.base_graph, self.base_cocycle, self.lift(v))


def large_ratio_prepartition(
    graph,
    cocycle,
    family,
    mu,
    eps,
    min_ratio,
    budget=DEFAULT_BUDGET,
    max_iterations=8,
):
    """Cover most of the mass by family cells whose mass ratio is at least L.

    Works on successive contractions: each round builds a packed and saturated
    prepartition whose contracted cells have ratio at least L, certifying the
    lifted cells, then contracts and repeats. Components whose own total ratio
    is below L contain a vertex no admissible cell can cover and are reported
    rather than hidden.
    """
    n = graph.vertex_count
    uncoverable = tuple(
        int(c)
        for c in range(graph.component_count)
        if rho_max_ratio(graph, cocycle, graph.component_members(c)) < min_ratio
    )
    relation = EquivRel.identity(n)
    stages = []
    covered_prev = -1.0
    stalled = False
    iterations = 0
    current = Prepartition.empty(n)
    for it in range(1, max_iterations + 1):
        iterations = it
        q = quotient(graph, cocycle, np.zeros(n), relation)
        qfam = _LiftedRatioFamily(family, graph, cocycle, q.classes, min_ratio)
        qpart = packed_and_saturated(q.graph, q.cocycle, qfam, p=1.0, budget=budget)
        lifted = [
            np.sort(np.concatenate([q.classes[int(qi)] for qi in cell])) for cell in qpart.cells
        ]
        lifted_mask = np.zeros(n, dtype=bool)
        for lc in lifted:
            lifted_mask[lc] = True
        keep = [c for c in current.cells if not lifted_mask[c].any()]
        current = Prepartition.from_cells(keep + lifted, n)
        stages.append(current)
        relation = relation.join(current.to_equiv())
        covered = mu.mass(current.domain())
        if covered >= 1.0 - eps:
            return LargeRatioResult(
                prepartition=current,
                stages=tuple(stages),
                covered_mass=covered,
                iterations=it,
                uncoverable_components=uncoverable,
                stalled=False,
            )
        if covered <= covered_prev:
            stalled = True
            break
        covered_prev = covered
    return LargeRatioResult(
        prepartition=current,
        stages=tuple(stages),
        covered_mass=mu.mass(current.domain()),
        iterations=iterations,
        uncoverable_components=uncoverable,
        stalled=stalled,
    )
