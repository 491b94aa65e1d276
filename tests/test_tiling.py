import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_tiler import (
    BadDenominator,
    EmptySet,
    EquivRel,
    ModelBundle,
    ModelSpec,
    Prepartition,
    RhoMeasure,
    VertexFunction,
    build_graph,
    coherent_limit,
    emit_report,
    generate_model,
    mean_over,
    quotient,
    ratio_experiment,
    run_tiling,
)
from ergodic_tiler import tiling
from ergodic_tiler.tiling import _lift, _stage_statistics

from test_packing import draw_connected_classes, multi_component_instances


def steep_path():
    """200-vertex path whose weights run from e^-700 to e^700.

    Relative to the heaviest vertex of the path, every weight below about
    e^(700 - 745) underflows to zero.
    """
    n = 200
    graph, cocycle = build_graph([(i, i + 1) for i in range(n - 1)], np.linspace(-700, 700, n))
    return graph, cocycle, RhoMeasure.from_cocycle(graph, cocycle), np.full(n, 0.25)


@pytest.mark.filterwarnings("error")
class TestSteepCocycle:
    def test_stage_statistics_finite(self):
        graph, cocycle, mu, f = steep_path()
        relation = EquivRel.from_classes([range(10 * i, 10 * i + 10) for i in range(20)], 200)
        mass_within, _, max_tile, _, hist = _stage_statistics(cocycle, mu, f, relation, 0.25, 0.05, None)
        assert mass_within == pytest.approx(1.0)
        assert (max_tile, hist) == (10, {10: 20})

    def test_transform_finite(self):
        graph, cocycle, mu, f = steep_path()
        model = ModelBundle(
            spec=ModelSpec("path", 200),
            graph=graph,
            cocycle=cocycle,
            measure=mu,
            values=VertexFunction(f),
            frontier=np.empty(0, dtype=np.int64),
            raw_mean=0.25,
        )
        state, _ = run_tiling(model, eps=0.05, max_stages=1, raise_on_stall=False)
        out = mean_over(graph, model.values, cocycle, state.relations[-1])
        assert np.all(out == 0.25)


CHAIN_MODELS = [
    ModelSpec("rotation", 512),
    ModelSpec("odometer", 9, p=0.4),
    ModelSpec("bernoulli", 8, p=0.3, q=0.5),
    ModelSpec("free_tree", 3),
    ModelSpec("random_regular", 60, seed=1),
]


@pytest.mark.parametrize("spec", CHAIN_MODELS, ids=lambda s: f"{s.kind}-{s.n}")
def test_relations_form_an_increasing_chain_of_connected_relations(spec):
    model = generate_model(spec)
    state, _ = run_tiling(model, eps=0.05, max_stages=8, raise_on_stall=False)
    assert len(state.relations) == len(state.prepartitions) >= 1
    for relation in state.relations:
        assert relation.is_graph_connected(model.graph)
    for finer, coarser in zip(state.relations, state.relations[1:]):
        assert finer.refines(coarser)
    # every tile built at a stage lies inside one class of that stage's relation
    for part, relation in zip(state.prepartitions, state.relations):
        for cell in part.cells:
            assert np.unique(relation.class_of[cell]).size == 1


def output_digest(state, report, workdir):
    """sha256 over the stable-timing CSV plus every stage's prepartition dump."""
    digest = hashlib.sha256()
    with open(emit_report(report, workdir, stable_timing=True)[0], "rb") as fh:
        digest.update(fh.read())
    cells_path = workdir / "cells.txt"
    for stage, part in enumerate(state.prepartitions, 1):
        part.dump(cells_path)
        digest.update(b"stage %d\n" % stage)
        digest.update(cells_path.read_bytes())
    return digest.hexdigest()


# any change to the tiling output shows here; update a value only when the
# output is meant to change
GOLDEN_DIGESTS = {
    "rotation-512": "8e983bdf1fbc0a1071afc18a0d09490aa3d17a73f8ccd1b2e3e78c8c0e46e418",
    "odometer-9": "24f4ef65cfdccf18a4de8a60183f384d396ffd9998fa4f545b60b3c42c9e6542",
    "bernoulli-8": "df3f8de436dc993e404bca87ea6d321afb30f863b72fe4d26c0ea18b7706b5d5",
    "free_tree-3": "9ba9f36b87e82fc2c7914a5a105f935fa986212e5db9b6b4a588618b1bc98705",
    "random_regular-60": "b068662ae189a8866bbf058a64c411320b3f171d056d02e0d3f41f6108b8feda",
}


@pytest.mark.parametrize("spec", CHAIN_MODELS, ids=lambda s: f"{s.kind}-{s.n}")
def test_same_seed_gives_byte_identical_output(spec, tmp_path):
    state, report = run_tiling(generate_model(spec), eps=0.05, max_stages=8, raise_on_stall=False)
    assert output_digest(state, report, tmp_path) == GOLDEN_DIGESTS[f"{spec.kind}-{spec.n}"]


def test_estimator_fits_the_run_tiling_chain():
    model = generate_model(ModelSpec("random_regular", 120, seed=1))
    state, _ = run_tiling(model, eps=0.05, max_stages=12, raise_on_stall=False)
    relation = state.relations[-1]
    # E[f | R] on the run's last relation keeps the integral and is constant
    # on every class
    means = mean_over(model.graph, model.values, model.cocycle, relation)
    assert abs(model.measure.integrate(means) - model.measure.integrate(model.values)) <= 1e-12
    for cls in relation.classes:
        assert np.all(means[cls] == means[cls[0]])


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("bernoulli", 13, p=0.3, q=0.5),
        ModelSpec("bernoulli", 8, p=0.3, q=0.5),
        ModelSpec("odometer", 9, p=0.4),
        ModelSpec("free_tree", 3),
        ModelSpec("random_regular", 200, seed=1),
    ],
    ids=lambda s: f"{s.kind}-{s.n}",
)
def test_the_coherent_limit_of_a_run_is_its_last_relation_on_the_covered_vertices(spec):
    """The stages' tiles form the increasing sequence of finite subgraphs, and
    their limit is what the run's last relation holds on the tiled vertices."""
    state, _ = run_tiling(generate_model(spec), eps=0.05, max_stages=8, raise_on_stall=False)
    covered = np.any([part.domain_mask() for part in state.prepartitions], axis=0)
    restricted = Prepartition.from_labels(np.where(covered, state.relations[-1].class_of, -1))
    assert np.array_equal(coherent_limit(state.prepartitions).prepartition.cell_of, restricted.cell_of)


def test_a_stage_after_one_that_installed_nothing_searches_nothing(monkeypatch):
    """free_tree 4 installs no cell at stage 1, and stage 2 has the same
    contraction and budget and a stricter family, so it neither contracts
    nor searches again; its result is still an empty stage and a stall."""
    calls = {"quotient": 0, "packed_and_saturated": 0}
    for name in calls:
        inner = getattr(tiling, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(tiling, name, counted)
    model = generate_model(ModelSpec("free_tree", 4))
    state, report = run_tiling(model, eps=0.05, max_stages=8, raise_on_stall=False)
    assert calls == {"quotient": 1, "packed_and_saturated": 1}
    assert [part.cell_count for part in state.prepartitions] == [0, 0]
    assert report.status == "stalled"


def test_each_stage_contracts_the_last_contraction(monkeypatch):
    """bernoulli 13 searches three stages. The first contracts the graph by
    the identity and hands it back; each later one contracts the graph the
    call before returned, so stage 3 contracts stage 2's 303 vertices, not
    the 8,192 base vertices again."""
    seen, returned = [], []

    def recorded(graph, *args):
        seen.append(graph)
        returned.append(quotient(graph, *args))
        return returned[-1]

    monkeypatch.setattr(tiling, "quotient", recorded)
    model = generate_model(ModelSpec("bernoulli", 13, p=0.3, q=0.5))
    state, _ = run_tiling(model, eps=0.05, max_stages=8, raise_on_stall=False)
    assert [graph.vertex_count for graph in seen] == [8192, 8192, 303]
    assert seen[0] is model.graph
    assert all(graph is q.graph for graph, q in zip(seen[1:], returned))
    assert [part.cell_count for part in state.prepartitions] == [66, 1, 0]


@pytest.mark.parametrize("spec", CHAIN_MODELS, ids=lambda s: f"{s.kind}-{s.n}")
def test_ratio_experiment_with_unit_denominator_is_run_tiling(spec):
    model = generate_model(spec)
    state, report = run_tiling(model, eps=0.05, max_stages=8, raise_on_stall=False)
    ratio_state, ratio_report = ratio_experiment(
        model, np.ones(model.graph.vertex_count), eps=0.05, max_stages=8, raise_on_stall=False
    )
    assert len(ratio_state.relations) == len(state.relations)
    for got, want in zip(ratio_state.relations, state.relations):
        assert np.array_equal(got.class_of, want.class_of)
    assert (ratio_state.status, ratio_report.status) == (state.status, report.status)


def test_ratio_experiment_scores_against_the_ratio_of_means():
    """Each stage's mass within eps counts the vertices whose tile has
    sum(f mu) / sum(g mu) within eps of E[f] / E[g]; here E[g] is near 2, so
    scoring against E[f] alone would count other tiles."""
    model = generate_model(ModelSpec("bernoulli", 8, p=0.3, q=0.5))
    n, atoms = model.graph.vertex_count, model.measure.atoms
    f = np.asarray(model.values.values, dtype=float) + 0.25
    g = 1.0 + np.arange(n) % 3
    eps = 0.05
    state, report = ratio_experiment(model, g, eps=eps, max_stages=4, f=f, raise_on_stall=False)
    target = float(np.dot(atoms, f)) / float(np.dot(atoms, g))
    assert report.target_mean == pytest.approx(target, rel=1e-12)
    assert len(report.rows) == len(state.relations) >= 1

    def mass_within(relation, centre):
        within = np.zeros(n, dtype=bool)
        for cls in relation.classes:
            within[cls] = abs(np.dot(atoms[cls], f[cls]) / np.dot(atoms[cls], g[cls]) - centre) <= eps
        return float(atoms[within].sum())

    for relation, row in zip(state.relations, report.rows):
        assert row.mass_within_eps == pytest.approx(mass_within(relation, target), abs=1e-12)
        assert row.mass_within_eps != pytest.approx(mass_within(relation, float(np.dot(atoms, f))), abs=0.1)


@pytest.mark.parametrize("max_stages", [0, -1])
def test_fewer_than_one_stage_is_an_error(max_stages):
    """A run of no stages would report no rows and status budget_exhausted,
    which the CLI would read as a run that missed its threshold."""
    model = generate_model(ModelSpec("rotation", 12))
    with pytest.raises(ValueError, match="max_stages must be at least 1"):
        run_tiling(model, eps=0.05, max_stages=max_stages)
    g = np.ones(model.graph.vertex_count)
    with pytest.raises(ValueError, match="max_stages must be at least 1"):
        ratio_experiment(model, g, eps=0.05, max_stages=max_stages)


@st.composite
def lifts(draw):
    """A relation with connected classes on a graph of one to three
    components, and a prepartition of its contraction from random labels,
    -1 marking a free quotient vertex."""
    graph = draw(multi_component_instances())[0]
    relation = draw_connected_classes(draw, graph)
    k = relation.class_count
    labels = draw(st.lists(st.integers(-1, max(1, k // 3)), min_size=k, max_size=k))
    return relation, Prepartition.from_labels(labels)


@settings(max_examples=200, deadline=None)
@given(lifts())
def test_the_lift_relabels_what_the_join_builds(case):
    """Gathering through the relation gives the lifted prepartition, the
    relation the union-find join builds from it, and the contraction's own
    relation of the cells plus singletons."""
    relation, qpart = case
    part, joined, step = _lift(relation, qpart)
    expected = Prepartition.from_labels(qpart.cell_of[relation.class_of])
    assert part.cell_count == expected.cell_count
    assert part.cell_of.tobytes() == expected.cell_of.tobytes()
    reference = relation.join(expected.to_equiv())
    assert joined.class_count == reference.class_count
    assert joined.class_of.tobytes() == reference.class_of.tobytes()
    k = relation.class_count
    free = [[v] for v in range(k) if qpart.cell_of[v] < 0]
    singles = EquivRel.from_classes(list(qpart.cells) + free, k)
    assert step.class_count == singles.class_count == joined.class_count
    assert step.class_of.tobytes() == singles.class_of.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_ratio_experiment_rejects_a_denominator_that_is_not_finite_and_positive(bad):
    model = generate_model(ModelSpec("rotation", 12))
    g = np.ones(model.graph.vertex_count)
    g[5] = bad
    with pytest.raises(BadDenominator, match="finite and strictly positive"):
        ratio_experiment(model, g, eps=0.05, max_stages=2, raise_on_stall=False)


def scan_reduction(f, atoms, eps):
    """Reference: the first candidate level whose tail is below the budget,
    found by trying every level in turn. Returns (level, tail)."""
    budget = (eps / 2.0) ** 2
    for level in np.concatenate([[0.0], np.unique(np.abs(f))]):
        tail = float(np.cumsum(atoms * np.maximum(np.abs(f) - level, 0.0))[-1])
        if tail < budget:
            return float(level), tail
    raise AssertionError("no level passed")


@st.composite
def observables(draw):
    """Values with ties, opposite signs of one level and zeros, on uniform or
    random atoms."""
    pool = draw(st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=20))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([1.0, -1.0, 0.0])), min_size=1, max_size=60))
    f = np.array([value * sign for value, sign in picks])
    n = len(f)
    if draw(st.booleans()):
        atoms = np.full(n, 1.0 / n)
    else:
        raw = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)))
        atoms = raw / raw.sum()
    eps = draw(st.floats(0.001, 0.999))
    return f, atoms, eps


@settings(max_examples=400, deadline=None)
@given(observables())
def test_linf_reduction_finds_the_scan_level(case):
    f, atoms, eps = case
    mu = RhoMeasure(component_mass=np.ones(1), atoms=atoms)
    got = tiling.linf_reduction(f, mu, eps)
    level, tail = scan_reduction(f, atoms, eps)
    assert got.level == level and got.tail_l1 == tail
    assert np.array_equal(got.values, np.clip(f, -level, level))
    # run_tiling reads the clipped observable's sup norm off the level
    assert float(np.abs(got.values).max()) == got.level


def test_linf_reduction_bisects_the_levels():
    """Every tail evaluation reads the atoms once; on distinct continuous
    values the search makes about log2(n) of them, not one per level."""

    class CountingMeasure:
        reads = 0

        @property
        def atoms(self):
            CountingMeasure.reads += 1
            return atoms

    n = 1 << 15
    f = np.random.default_rng(3).standard_normal(n)
    atoms = np.full(n, 1.0 / n)
    got = tiling.linf_reduction(f, CountingMeasure(), 0.05)
    assert CountingMeasure.reads <= math.ceil(math.log2(n + 2)) + 1
    # the level is the first to pass: the next lower one does not
    levels = np.unique(np.abs(f))
    below = levels[np.searchsorted(levels, got.level) - 1]
    assert got.tail_l1 < 0.025**2 <= float(np.dot(atoms, np.maximum(np.abs(f) - below, 0.0)))


def test_linf_reduction_of_no_values_is_level_zero():
    mu = RhoMeasure(component_mass=np.ones(0), atoms=np.empty(0))
    got = tiling.linf_reduction(np.empty(0), mu, 0.1)
    assert (got.level, got.tail_l1, got.values.size) == (0.0, 0.0, 0)


def test_a_model_with_no_vertices_raises_empty_set():
    graph, cocycle = build_graph([], np.empty(0))
    model = ModelBundle(
        spec=ModelSpec("file", 0),
        graph=graph,
        cocycle=cocycle,
        measure=RhoMeasure.from_cocycle(graph, cocycle),
        values=VertexFunction(np.empty(0)),
        frontier=np.empty(0, dtype=np.int64),
        raw_mean=0.0,
    )
    with pytest.raises(EmptySet, match="model has no vertices"):
        run_tiling(model, eps=0.05)


NUMPY_MA_MODELS = [
    ModelSpec("rotation", 64),
    ModelSpec("odometer", 8, p=0.4),
    ModelSpec("bernoulli", 8, p=0.3, q=0.5),
    # stage 2 reaches the complete search, _Search._exhaustive
    ModelSpec("free_tree", 3),
    ModelSpec("free_tree", 4),
]


@pytest.mark.parametrize("spec", NUMPY_MA_MODELS, ids=lambda s: f"{s.kind}-{s.n}")
def test_a_run_leaves_numpy_ma_unloaded(spec):
    """A plain np.unique takes numpy's hash path, which imports numpy.ma and
    builds a hash table, most of a small run's memory growth. Set-up, the run
    and a found pack (is_p_pack, is_invariant, cells_inside) go through
    sorted_distinct instead, so none of them loads numpy.ma. A fresh
    interpreter keeps other tests' imports out."""
    code = (
        "import sys\n"
        "from ergodic_tiler import ConnectedFamily, ModelSpec, Prepartition, find_pack, generate_model, run_tiling\n"
        f"model = generate_model({spec!r})\n"
        "assert 'numpy.ma' not in sys.modules, 'set-up'\n"
        "run_tiling(model, eps=0.05, max_stages=8, raise_on_stall=False)\n"
        "assert 'numpy.ma' not in sys.modules, 'run'\n"
        "empty = Prepartition.empty(model.graph.vertex_count)\n"
        "assert find_pack(model.graph, model.cocycle, ConnectedFamily(), empty, 1.0) is not None\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
