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
