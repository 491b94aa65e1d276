"""Every callable the benchmark traces is an attribute of its own owner.

``tilebench/bench.py`` wraps each traced callable at ``owner.__dict__[attr]``,
so moving one of them, say ``CentralFamily.contains`` into a base class,
would make a traced benchmark run (``--trace 1``) fail with a KeyError. The
benchmark module is loaded here read-only.
"""

import importlib.util
import pathlib
import sys

import pytest

TILEBENCH = pathlib.Path(__file__).resolve().parent.parent / "tilebench"


def load_bench():
    # bench.py imports its sibling spans.py as a top-level module
    sys.path.insert(0, str(TILEBENCH))
    try:
        spec = importlib.util.spec_from_file_location("tilebench_bench", TILEBENCH / "bench.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TILEBENCH))
    return module


bench = load_bench()
POINTS = [pytest.param(*point, id=point[2]) for point in bench.SPAN_POINTS + bench.COUNT_POINTS]


def test_points_found():
    assert len(POINTS) >= 10


@pytest.mark.parametrize("owner, attr, name", POINTS)
def test_point_is_its_owners_own_attribute(owner, attr, name):
    assert attr in vars(owner), f"{name}: {attr!r} is not in {owner.__name__}.__dict__"
