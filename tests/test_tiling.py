import numpy as np
import pytest

from ergodic_tiler import EquivRel, ErgodicTiler, ModelBundle, ModelSpec, RhoMeasure, VertexFunction, build_graph
from ergodic_tiler.tiling import _stage_statistics


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
        out = ErgodicTiler(max_stages=1).fit_transform(model)
        assert np.all(out == 0.25)
