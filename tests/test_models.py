import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from ergodic_tiler import BadModel, ModelSpec, generate_model
from ergodic_tiler.models import MODEL_KINDS

SPECS = [
    ModelSpec("rotation", 64),
    ModelSpec("odometer", 8, p=0.4),
    ModelSpec("bernoulli", 7, p=0.3, q=0.5),
    ModelSpec("free_tree", 3),
    ModelSpec("random_regular", 60, p=0.5, seed=3),
]


def test_specs_cover_every_kind():
    assert sorted(s.kind for s in SPECS) == sorted(MODEL_KINDS)


@pytest.fixture(params=SPECS, ids=lambda s: s.kind, scope="module")
def model(request):
    return generate_model(request.param)


def test_connected(model):
    assert model.graph.component_count == 1
    assert np.all(model.graph.component_id == 0)


def test_measure_is_a_probability(model):
    atoms = model.measure.atoms
    assert atoms.shape == (model.graph.vertex_count,)
    assert np.all(atoms > 0)
    assert abs(atoms.sum() - 1.0) <= 1e-12
    assert model.measure.component_mass.tolist() == [1.0]


def test_values_centred_against_raw_mean(model):
    """Every model observes an indicator; values are it minus its mean."""
    values = model.values.values
    assert abs(float(np.dot(model.measure.atoms, values))) <= 1e-12
    raw = values + model.raw_mean
    assert 0.0 < model.raw_mean < 1.0
    assert np.allclose(raw, np.round(raw), rtol=0.0, atol=1e-12)
    assert set(np.round(raw).tolist()) == {0.0, 1.0}


def test_frontier_indices_in_range(model):
    frontier = model.frontier
    assert frontier.dtype == np.int64
    assert np.all((frontier >= 0) & (frontier < model.graph.vertex_count))
    assert np.array_equal(frontier, np.unique(frontier))
    if model.spec.kind == "free_tree":
        # the leaves of the ball, where the tree was truncated
        degrees = np.diff(model.graph.indptr)
        assert np.array_equal(frontier, np.flatnonzero(degrees == 1))
    else:
        assert frontier.size == 0


def model_bytes(model):
    g = model.graph
    parts = (g.indptr, g.indices, g.component_id, g.edges(), model.cocycle.log_weight)
    parts += (model.measure.atoms, model.values.values, model.frontier)
    raw = b"".join(np.ascontiguousarray(a).tobytes() for a in parts)
    return raw + repr(model.raw_mean).encode()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_same_spec_same_bytes(spec):
    assert model_bytes(generate_model(spec)) == model_bytes(generate_model(spec))


def test_unknown_kind_is_rejected():
    with pytest.raises(BadModel, match="unknown model kind"):
        generate_model(ModelSpec("torus", 8))


@pytest.mark.parametrize("spec", [ModelSpec("free_tree", 3, p=1e-200), ModelSpec("odometer", 10, p=1e-40)])
def test_weights_whose_atoms_underflow_are_rejected(spec):
    with pytest.raises(BadModel, match="underflow to zero"):
        generate_model(spec)


def test_odometer_on_two_points_is_one_edge():
    model = generate_model(ModelSpec("odometer", 1, p=0.3))
    assert model.graph.vertex_count == 2
    assert model.graph.edges().tolist() == [[0, 1]]
    assert model.graph.component_count == 1


# sha256 of model_bytes, recorded before the Bernoulli edges were built in numpy
PINNED_DIGESTS = [
    (ModelSpec("odometer", 2, p=0.3), "6f4506b4ff85d6ecc29c51e4d78ad6abfbd43eb8f4e40fedf20f93a5bc0f1cbb"),
    (ModelSpec("odometer", 9, p=0.4), "1e225222649cfb66dccd30189cfe10175a9c2fac42b02bd040e7528def7aca08"),
    (ModelSpec("odometer", 16, p=0.4), "6e9f68faf39db54f1a5727debe63795c5bc2eecf3dbaa4b326c60e96b7c01b33"),
    (ModelSpec("bernoulli", 1, p=0.3, q=0.5), "c81ef7f241c85269f866205e16fb0a21e94d2de0a2a029deca5b44fb2d6f63ff"),
    (ModelSpec("bernoulli", 8, p=0.3, q=0.5), "29d01f19e3d9084037933e3b38629cad81778abda8a026a4351d72743d1cf0b3"),
    (ModelSpec("bernoulli", 13, p=0.3, q=0.5), "aa156d17225c01972e5964fbbac21597e4f947f4a2b554fcb4b871dcf94f43dd"),
    (ModelSpec("bernoulli", 6, p=0.4, q=0.4), "6ad4e50add61782472336b5e4a7117867b6fabed49155e912be6daecc6ac1db3"),
    (ModelSpec("rotation", 64), "788a6ecb56fa325f63f98da602dd8e2581250f8a014343a9b0ac516f1815dd13"),
    (ModelSpec("free_tree", 3), "1eaa57c7adc011f9b6eb6a22c8a45500f236321723b17aa0e9bbe482a34d716d"),
    (ModelSpec("random_regular", 60, p=0.5, seed=3), "20213b9ada487f2894e2f2f8f095e099bc20a8e270a1610bad1361a5ea7871da"),
]


@pytest.mark.parametrize("spec, digest", PINNED_DIGESTS, ids=[f"{s.kind}-{s.n}" for s, _ in PINNED_DIGESTS])
def test_model_bytes_are_pinned(spec, digest):
    assert hashlib.sha256(model_bytes(generate_model(spec))).hexdigest() == digest


def bundle_nbytes(model):
    g, measure = model.graph, model.measure
    arrays = (g.indptr, g.indices, g.component_id, g.edges(), model.cocycle.log_weight)
    arrays += (measure.atoms, measure.component_mass, model.values.values, model.frontier)
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("spec", SPECS + [ModelSpec("bernoulli", 13, p=0.3, q=0.5)], ids=lambda s: f"{s.kind}-{s.n}")
def test_setup_leaves_only_arrays(spec):
    """A generated model holds arrays and no per-vertex Python objects: the
    memory one generate_model call leaves live is the bundle's array bytes
    plus a small slack."""
    generate_model(spec)  # first-call imports and caches are not the model's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = generate_model(spec)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 1.1 * bundle_nbytes(model) + 64 * 1024
