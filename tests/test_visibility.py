import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodic_tiler import BadMagnification, block, block_decomposition, cone

from test_graph import path_graph, random_connected
from test_packing import multi_component_instances

# few distinct levels, so that many vertices share one, and alpha = e lifts a
# level onto the next
LEVELED = multi_component_instances(log_weight=st.integers(-3, 3).map(float))


def bump_path():
    # path with a heavy middle vertex: weights (1, 3, 1)
    return path_graph(3, np.log([1.0, 3.0, 1.0]))


class TestBlock:
    def test_equal_weights_whole_component(self):
        g, c = path_graph(5)
        assert block(g, c, 2, 1.0).vertices.tolist() == [0, 1, 2, 3, 4]

    def test_heavy_middle_blocks_the_end(self):
        g, c = bump_path()
        assert block(g, c, 0, 1.0).vertices.tolist() == [0]

    def test_heavy_middle_sees_everything(self):
        g, c = bump_path()
        assert block(g, c, 1, 1.0).vertices.tolist() == [0, 1, 2]

    def test_magnification_below_one_rejected(self):
        g, c = bump_path()
        for alpha in (0.5, math.nan):
            with pytest.raises(BadMagnification):
                block(g, c, 0, alpha)

    def test_magnification_opens_view(self):
        g, c = bump_path()
        assert block(g, c, 0, 3.0).vertices.tolist() == [0, 1, 2]

    def test_idempotence_property(self):
        # the block of any member, magnified to compensate its weight gap,
        # contains the original block
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            g, c = random_connected(rng, n)
            x = int(rng.integers(0, n))
            alpha = float(rng.uniform(1.0, 3.0))
            b = block(g, c, x, alpha)
            y = int(b.vertices[rng.integers(0, b.size)])
            beta = alpha * float(np.exp(c.log_weight[x] - c.log_weight[y]))
            if beta < 1.0:
                continue
            b2 = block(g, c, y, beta)
            assert set(b.vertices.tolist()) <= set(b2.vertices.tolist())


class TestNestedOrDisjoint:
    def test_all_pairs_random(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            g, c = random_connected(rng, n)
            blocks = [block(g, c, x, 1.0) for x in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    s, t = set(blocks[i].vertices.tolist()), set(blocks[j].vertices.tolist())
                    assert s <= t or t <= s or not s & t


class TestCone:
    def test_max_vertex_sees_itself(self):
        g, c = bump_path()
        assert 1 in cone(g, c, 1).tolist()

    def test_heavy_middle_cone_is_itself(self):
        g, c = bump_path()
        assert cone(g, c, 1).tolist() == [1]

    def test_equal_weights_everyone(self):
        g, c = path_graph(4)
        assert cone(g, c, 2).tolist() == [0, 1, 2, 3]

    def test_nested_property(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            g, c = random_connected(rng, n)
            x = int(rng.integers(0, n))
            cx = set(cone(g, c, x).tolist())
            for y in cx:
                assert set(cone(g, c, y).tolist()) <= cx

    def test_cofinality(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            g, c = random_connected(rng, n)
            x = int(rng.integers(0, n))
            comp = g.component_members(g.component_id[x])
            cx = cone(g, c, x)
            assert c.log_weight[cx].max() == c.log_weight[comp].max()

    @settings(max_examples=60, deadline=None)
    @given(LEVELED)
    def test_matches_the_blocks_that_hold_x(self, case):
        """cone labels each level once; by definition y sees x when x lies
        in y's own unit block."""
        g, c = case[:2]
        seen_by = [[] for _ in range(g.vertex_count)]
        for y in range(g.vertex_count):
            for x in block(g, c, y, 1.0).vertices.tolist():
                seen_by[x].append(y)
        for x in range(g.vertex_count):
            assert cone(g, c, x).tolist() == seen_by[x]


class TestAmalgamation:
    def test_constructive(self):
        # the block of the heaviest vertex of a connecting path, at the larger
        # magnification, contains both blocks
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            g, c = random_connected(rng, n)
            x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
            if g.component_id[x] != g.component_id[y]:
                continue
            alpha, beta = float(rng.uniform(1, 2)), float(rng.uniform(1, 2))
            bx, by = block(g, c, x, alpha), block(g, c, y, beta)
            # BFS path from x to y
            prev = {x: None}
            queue = [x]
            while queue:
                v = queue.pop(0)
                if v == y:
                    break
                for u in g.neighbors(v):
                    if int(u) not in prev:
                        prev[int(u)] = v
                        queue.append(int(u))
            path = []
            v = y
            while v is not None:
                path.append(v)
                v = prev[v]
            z = max(path, key=lambda v: (float(c.log_weight[v]), -v))
            bz = block(g, c, z, max(alpha, beta))
            assert set(bx.vertices.tolist()) <= set(bz.vertices.tolist())
            assert set(by.vertices.tolist()) <= set(bz.vertices.tolist())


class TestBlockDecomposition:
    def test_laminar_listing(self):
        g, c = bump_path()
        rows = block_decomposition(g, c, 1.0)
        sets = [tuple(b.vertices.tolist()) for b, _ in rows]
        assert (0, 1, 2) in sets and (0,) in sets and (2,) in sets

    @settings(max_examples=60, deadline=None)
    @given(LEVELED, st.sampled_from([1.0, math.e, 2.5]))
    def test_matches_the_listing_of_every_vertex_block(self, case, alpha):
        """One labelling per level lists what the block of every vertex
        lists: each distinct block once, at its smallest dominus, with its
        depth the count of listed blocks that strictly contain it."""
        g, c = case[:2]
        uniq = {}
        for v in range(g.vertex_count):
            b = block(g, c, v, alpha)
            uniq.setdefault(tuple(b.vertices.tolist()), b)
        want = sorted(
            ((list(key), b.dominus, sum(set(key) < set(other) for other in uniq)) for key, b in uniq.items()),
            key=lambda row: (row[0][0], row[2]),
        )
        got = [(b.vertices.tolist(), b.dominus, depth) for b, depth in block_decomposition(g, c, alpha)]
        assert got == want
