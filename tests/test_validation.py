"""sorted_distinct is np.unique, and package code deduplicates through it.

A plain np.unique takes numpy's hash path, which imports numpy.ma inside a
run; np.union1d calls it, and so do np.setdiff1d and np.intersect1d unless
told their inputs are already sorted and distinct. The guard is a plain AST
scan of the package modules.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ergodic_tiler.validation import sorted_distinct

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ergodic_tiler"
MODULES = sorted(PACKAGE.glob("*.py"))

int_arrays = hnp.arrays(
    np.int64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
    elements=st.one_of(st.integers(-4, 4), st.integers(-(2**62), 2**62)),
)
float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
    elements=st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0]), st.floats(allow_nan=False, allow_infinity=False)),
)


@given(int_arrays)
def test_int_arrays_match_np_unique_bytes(a):
    got, want = sorted_distinct(a), np.unique(a)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@given(float_arrays)
def test_finite_float_arrays_match_np_unique(a):
    got, want = sorted_distinct(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_input_is_left_unsorted():
    a = np.array([3, 1, 3, 2])
    assert sorted_distinct(a).tolist() == [1, 2, 3]
    assert a.tolist() == [3, 1, 3, 2]


def hash_path_calls(source):
    """(line, message) of every set operation that can reach numpy's hash path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        name = node.func.attr
        keywords = {k.arg: k.value for k in node.keywords}
        assume = keywords.get("assume_unique")
        if name == "unique" and not any(k and k.startswith("return_") for k in keywords):
            found.append((node.lineno, "np.unique without return_*: use validation.sorted_distinct"))
        elif name == "union1d":
            found.append((node.lineno, "np.union1d: use validation.sorted_distinct of the concatenation"))
        elif name in ("setdiff1d", "intersect1d") and not (isinstance(assume, ast.Constant) and assume.value is True):
            found.append(
                (node.lineno, f"np.{name} without assume_unique=True: make the inputs with sorted_distinct")
            )
    return sorted(found)


def test_scan_finds_hash_path_calls():
    source = (
        "import numpy as np\n"
        "np.unique(a)\n"
        "np.unique(a, return_inverse=True)\n"
        "np.union1d(a, b)\n"
        "np.setdiff1d(a, b)\n"
        "np.intersect1d(a, b, assume_unique=True)\n"
        "np.intersect1d(a, b, assume_unique=False)\n"
    )
    assert [line for line, _ in hash_path_calls(source)] == [2, 4, 5, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hash_path_set_operations(path):
    found = hash_path_calls(path.read_text(encoding="utf-8"))
    assert found == [], "; ".join(f"{path.name}:{line}: {msg}" for line, msg in found)
