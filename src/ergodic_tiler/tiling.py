"""The staged tiling loop, its reductions and constants, and the estimator API.

Each stage contracts the graph by the relation built so far, finds a packed
and saturated prepartition of near-balanced, large-ratio sets on the
contraction, and lifts it back. The joined relations form an increasing chain
of connected finite equivalence relations whose tile averages are driven
toward the global mean.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

import numpy as np

from .averages import VertexFunction, mean_over
from .errors import BadDenominator, EmptySet, NotFitted, StallDiagnostic
from .graph import Cocycle, RhoMeasure, class_means, quotient
from .packing import CentralFamily, SearchBudget, packed_and_saturated
from .partition import EquivRel, Prepartition, _canonical_labels
from .reports import ConvergenceReport
from .validation import as_values_array, check_positive, check_unit_interval, sorted_distinct


@dataclass(frozen=True)
class ReductionResult:
    values: np.ndarray
    level: float
    tail_l1: float


def linf_reduction(values, mu, eps):
    """Clip the observable at the smallest level whose l1 tail is below (eps/2)^2."""
    check_unit_interval(eps, "eps")
    f = as_values_array(values)
    budget = (eps / 2.0) ** 2
    # level 0 and the distinct |f_i|, ascending; an empty f has level 0 alone
    candidates = np.concatenate([[0.0], sorted_distinct(np.abs(f))])

    def tail(level):
        terms = np.maximum(np.abs(f) - level, 0.0)
        terms *= mu.atoms
        # accumulate adds left to right, r[i] = r[i - 1] + terms[i], so the
        # order of the sum is fixed by n alone
        return float(np.cumsum(terms, out=terms)[-1]) if terms.size else 0.0

    # tail is non-increasing in level, so bisection finds the first level a
    # linear scan would: each rounded |f_i| - level, its max with 0 and its
    # product with atoms[i] >= 0 are non-increasing in level, and a sum in a
    # fixed order is non-decreasing in each term, because rounding is
    # monotone. The levels ascend, so "tail < budget" is false and then true.
    first = bisect.bisect_left(candidates, True, key=lambda level: tail(level) < budget)
    if first == len(candidates):
        raise AssertionError("finite observables always admit a clipping level")
    chosen = float(candidates[first])
    g = np.clip(f, -chosen, chosen)
    return ReductionResult(values=g, level=chosen, tail_l1=tail(chosen))


def cutting_one_side_delta(eps, sup_norm):
    """Window half-width eps^2 / (sup + 1) passed down to the stage schedule."""
    check_positive(eps, "eps")
    if sup_norm < 0:
        raise ValueError("sup_norm must be nonnegative")
    return eps * eps / (sup_norm + 1.0)


def schedule_constants(delta, sup_norm, n_stages):
    """Stage constants: geometrically shrinking windows, geometrically growing
    ratio floors, and the induced pack thresholds.

    lam[n] * ratio[n] = (4/3)^n * delta grows without bound, which is what the
    stage argument needs.
    """
    lam = {n: delta * 3.0 ** (-n) for n in range(1, n_stages + 3)}
    ratio = {n: float(4 ** n) for n in range(1, n_stages + 1)}
    pack = {n: lam[n + 2] / (sup_norm + lam[n + 1]) for n in range(1, n_stages + 1)}
    return lam, ratio, pack


@dataclass
class TilingState:
    delta: float
    sup_norm: float
    lambdas: dict
    ratios: dict
    packs: dict
    prepartitions: list = field(default_factory=list)
    relations: list = field(default_factory=list)
    status: str = "empty"
    stall_components: tuple = ()


def _stage_statistics(cocycle, mu, f, relation, target, eps, frontier, g=None):
    labels = relation.class_of
    k = relation.class_count
    class_mean, _ = class_means(cocycle, labels, k, f, g)

    touched = np.zeros(k, dtype=bool)
    if frontier is not None and len(frontier):
        touched[labels[frontier]] = True

    within_class = np.abs(class_mean - target) <= eps
    ok = within_class[labels] & ~touched[labels]
    mass_within = float(mu.atoms[ok].sum())
    frontier_mass = float(mu.atoms[touched[labels]].sum())

    # every vertex has a class, so the mean size is labels.size / k, the float
    # sizes.mean() gives; its first call faults in 64 KiB of numpy code
    sizes = np.bincount(labels, minlength=k)
    hist = {}
    for s in sizes:
        hist[int(s)] = hist.get(int(s), 0) + 1
    return mass_within, frontier_mass, int(sizes.max()), labels.size / k, hist


def _lift(relation, qpart):
    """A prepartition of the contraction by relation, lifted to the base
    vertices, and relation.join(lifted.to_equiv()).

    A lifted cell is a union of the relation's classes, so the joined classes
    are the lifted cells and the classes of the free quotient vertices. On
    the contraction, cells keep their labels and each free vertex gets a
    fresh one; one gather through class_of carries them to the base vertices.
    relation and qpart are both canonical, so the quotient vertices ascend
    with their classes' smallest members, and the lifted cells, in qpart's
    order, are numbered canonically as they come.
    """
    cells = qpart.cell_count
    labels = qpart.cell_of.copy()
    free = labels < 0
    labels[free] = cells + np.arange(np.count_nonzero(free))
    lifted = labels[relation.class_of]
    joined = EquivRel(*_canonical_labels(lifted))
    lifted[lifted >= cells] = -1
    return Prepartition(lifted, cells), joined


def _new_report(model, eps, max_stages, target):
    return ConvergenceReport(
        config={
            "model.kind": model.spec.kind,
            "model.n": model.spec.n,
            "model.p": model.spec.p,
            "model.q": model.spec.q,
            "run.eps": eps,
            "run.max_stages": max_stages,
        },
        seed=model.spec.seed,
        target_mean=target,
    )


def run_tiling(model, eps, max_stages=12, raise_on_stall=True):
    """Drive the staged tiling loop on a generated model.

    Stops as soon as tiles within eps of the global mean carry mass 1 - eps,
    or after max_stages with diagnostics. A stage that adds no coverage and no
    statistic progress raises StallDiagnostic (carrying the partial state)
    unless raise_on_stall is false. A model with no vertices raises EmptySet,
    and max_stages below 1 raises ValueError.
    """
    check_unit_interval(eps, "eps")
    if max_stages < 1:
        raise ValueError(f"max_stages must be at least 1, got {max_stages}")
    graph, cocycle, mu = model.graph, model.cocycle, model.measure
    n = graph.vertex_count
    if n == 0:
        raise EmptySet("model has no vertices")
    f = as_values_array(model.values, n)
    frontier = model.frontier

    target = float(np.dot(mu.atoms, f))
    centered = f - target
    reduction = linf_reduction(centered, mu, eps)
    g = reduction.values
    # clipping maps every |f_i| at or above the level to the level exactly
    sup = reduction.level
    delta = cutting_one_side_delta(eps, sup)
    lambdas, ratios, packs = schedule_constants(delta, sup, max_stages)

    state = TilingState(delta=delta, sup_norm=sup, lambdas=lambdas, ratios=ratios, packs=packs)
    report = _new_report(model, eps, max_stages, target)

    relation = EquivRel.identity(n)
    covered = np.zeros(n, dtype=bool)
    best_mass = -1.0
    covered_mass_prev = -1.0
    class_count_prev = n + 1
    # the last stage's contraction and budget, kept while that stage installed no cell
    idle_q = idle_budget = None
    state.status = "budget_exhausted"

    for stage in range(1, max_stages + 1):
        t0 = time.perf_counter()
        # a candidate's unit count bounds its mass ratio, so the cap must
        # track the stage's ratio floor
        stage_budget = SearchBudget(max_units=int(min(max(128, 4 * ratios[stage]), 4096)))
        if ratios[stage] > stage_budget.max_units:
            state.status = "stalled"
            report.diagnostics = {
                "reason": "ratio floor exceeds the candidate budget",
                "stage": stage,
                "ratio_floor": ratios[stage],
                "max_units": stage_budget.max_units,
            }
            break
        if (
            idle_q is not None
            and stage_budget == idle_budget
            and lambdas[stage] <= lambdas[stage - 1]
            and ratios[stage] >= ratios[stage - 1]
        ):
            # The last stage installed no cell, so the contraction is
            # unchanged and this stage's family lies inside the last one.
            # lam and p never steer growth, and the ratio floor only ends a
            # chain past every snapshot admits could pass; this floor is at
            # least the last one and the budgets are equal, so every chain
            # is a prefix of the one grown then. With no cell absorbed mass
            # is 0, so no p test changes. The one family test, admits,
            # compares mass < ratio * wmax and abs(fdot) < lam * mass; float
            # rounding is monotone, so a set this family admits the last one
            # admitted too, in every search, and it admitted none.
            q = idle_q
            qpart = Prepartition.empty(q.graph.vertex_count)
        else:
            q = quotient(graph, cocycle, g, relation)
            family = CentralFamily(q.values, lambdas[stage], ratios[stage])
            qpart = packed_and_saturated(q.graph, q.cocycle, family, packs[stage], stage_budget)
        idle_q, idle_budget = (q, stage_budget) if qpart.cell_count == 0 else (None, None)
        # the lift reads only the relation's labels, which q.class_of is, so
        # the contraction is let go first and the lift can reuse its memory
        q = family = None
        part, relation = _lift(relation, qpart)
        state.prepartitions.append(part)
        state.relations.append(relation)
        covered |= part.domain_mask()

        mass_within, frontier_mass, max_tile, mean_tile, hist = _stage_statistics(
            cocycle, mu, f, relation, target, eps, frontier
        )
        wall_ms = (time.perf_counter() - t0) * 1000.0
        report.add_stage(stage, eps, mass_within, max_tile, mean_tile, wall_ms, hist)
        report.frontier_mass = frontier_mass

        if mass_within >= 1.0 - eps:
            state.status = "converged"
            break

        covered_mass = float(mu.atoms[covered].sum())
        refined = relation.class_count < class_count_prev
        class_count_prev = relation.class_count
        if (
            mass_within <= best_mass
            and covered_mass <= covered_mass_prev
            and not refined
            and stage < max_stages
        ):
            stalled_comps = tuple(
                sorted(set(graph.component_id[~covered].tolist()))
            )
            state.status = "stalled"
            state.stall_components = stalled_comps
            report.diagnostics = {"stall_components": list(stalled_comps)}
            if raise_on_stall:
                raise StallDiagnostic(
                    f"no progress at stage {stage}; components {stalled_comps} are stuck",
                    state=state,
                    report=report,
                    components=stalled_comps,
                )
            break
        best_mass = max(best_mass, mass_within)
        covered_mass_prev = covered_mass

    report.status = state.status
    return state, report


def ratio_experiment(model, g, eps, max_stages=12, f=None, raise_on_stall=True):
    """Tile under the g-rescaled weights and report the two-function ratio
    statistic against the quotient of the global means.

    With g identically 1 this reduces to run_tiling on the original weights,
    which also checks eps and max_stages.
    """
    garr = as_values_array(g, model.graph.vertex_count)
    if not np.all(np.isfinite(garr) & (garr > 0)):
        raise BadDenominator("g must be finite and strictly positive everywhere")
    farr = as_values_array(f if f is not None else model.values, model.graph.vertex_count)

    graph = model.graph
    sigma = Cocycle(model.cocycle.log_weight + np.log(garr))
    total_g = float(np.dot(model.measure.atoms, garr))
    nu_atoms = model.measure.atoms * garr / total_g
    comp_mass = np.zeros(graph.component_count)
    np.add.at(comp_mass, graph.component_id, nu_atoms)
    nu = RhoMeasure(component_mass=comp_mass, atoms=nu_atoms)

    from .models import ModelBundle

    rescaled = ModelBundle(
        spec=model.spec,
        graph=graph,
        cocycle=sigma,
        measure=nu,
        values=VertexFunction(farr / garr),
        frontier=model.frontier,
        raw_mean=0.0,
    )
    state, inner = run_tiling(rescaled, eps, max_stages, raise_on_stall)

    target_ratio = float(np.dot(model.measure.atoms, farr)) / total_g
    report = _new_report(model, eps, max_stages, target_ratio)
    for relation, row in zip(state.relations, inner.rows):
        mass_within, _, max_tile, mean_tile, hist = _stage_statistics(
            model.cocycle, model.measure, farr, relation, target_ratio, eps, model.frontier, garr
        )
        report.add_stage(row.stage, eps, mass_within, max_tile, mean_tile, row.wall_ms, hist)
    report.status = state.status
    return state, report


class ErgodicTiler:
    """Estimator wrapper around the staged tiling loop.

    Parameters mirror run_tiling; fit(model) learns the chain of relations
    and stores per-vertex tile labels, after which transform averages any
    observable over the learned tiles.
    """

    def __init__(self, eps=0.05, max_stages=12, raise_on_stall=False):
        self.eps = eps
        self.max_stages = max_stages
        self.raise_on_stall = raise_on_stall

    def fit(self, model):
        state, report = run_tiling(
            model, eps=self.eps, max_stages=self.max_stages, raise_on_stall=self.raise_on_stall
        )
        self.model_ = model
        self.state_ = state
        self.report_ = report
        self.relation_ = state.relations[-1] if state.relations else EquivRel.identity(model.graph.vertex_count)
        self.labels_ = self.relation_.class_of.copy()
        return self

    def _check_fitted(self):
        if not hasattr(self, "state_"):
            raise NotFitted("call fit(model) first")

    def transform(self, values=None):
        """E[f | R] on the learned relation: each vertex gets its tile's weighted mean of f."""
        self._check_fitted()
        model = self.model_
        vals = values if values is not None else model.values
        return mean_over(model.graph, vals, model.cocycle, self.relation_)

    def fit_transform(self, model, values=None):
        return self.fit(model).transform(values)

    def score(self, model=None):
        """Final fraction of mass whose tile average met the tolerance."""
        self._check_fitted()
        return self.report_.final_mass
