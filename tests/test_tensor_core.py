import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from narrative_seq.errors import DimensionError
from narrative_seq.tensor_core import (
    SeededRng,
    matmul,
    relu,
    sigmoid,
    softmax,
    uniform_init,
)


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(matmul(a, np.eye(2)), a)


def test_matmul_hand_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    npt.assert_array_equal(matmul(a, b), np.array([[17.0], [39.0]]))


def test_matmul_shape_mismatch_names_shapes():
    a = np.zeros((2, 3))
    b = np.zeros((2, 3))
    with pytest.raises(DimensionError, match=r"\(2, 3\)"):
        matmul(a, b)


def test_matmul_rejects_non_2d():
    with pytest.raises(DimensionError):
        matmul(np.zeros(3), np.zeros((3, 2)))


def test_matmul_associativity_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 6))
        c = rng.normal(size=(6, 3))
        npt.assert_allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-9)


def test_softmax_uniform():
    npt.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25))


def test_softmax_analytic():
    out = softmax(np.array([np.log(2.0), 0.0]))
    npt.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_large_magnitudes_stable():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    npt.assert_allclose(out, [1.0, 0.0], atol=1e-300)


def test_softmax_sums_to_one_and_open_interval():
    # Entries stay strictly inside (0, 1) wherever float64 can represent
    # that; past a ~36-unit logit spread the max rounds to exactly 1.0,
    # which the saturation test above covers.
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(scale=8.0, size=8)
        out = softmax(x)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_relu_definition():
    npt.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_relu_identity_on_nonnegative():
    x = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
    npt.assert_array_equal(relu(x), x)


def test_relu_idempotent():
    x = np.random.default_rng(1).normal(size=20)
    npt.assert_array_equal(relu(relu(x)), relu(x))


def _two_branch_sigmoid(x):
    """The boolean-mask formula the branch-free sigmoid replaced."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _assert_bits_equal(a, b):
    npt.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


_SIGMOID_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
    36.7, -36.7, 709.9, -709.9, 745.2, -745.2, 800.0, -800.0,
    1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan,
])


def test_sigmoid_matches_reference_and_is_stable():
    x = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
    out = sigmoid(x)
    assert np.all(np.isfinite(out))
    npt.assert_allclose(out[1:4], 1.0 / (1.0 + np.exp(-x[1:4])), atol=1e-15)
    assert out[0] == 0.0 and out[4] == 1.0

    with np.errstate(all="raise"):
        edges = sigmoid(_SIGMOID_EDGES)
    with np.errstate(under="ignore"):
        _assert_bits_equal(edges, _two_branch_sigmoid(_SIGMOID_EDGES))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
    def matches_two_branch_bit_for_bit(values):
        with np.errstate(all="raise"):
            out = sigmoid(values)
        with np.errstate(under="ignore"):
            _assert_bits_equal(out, _two_branch_sigmoid(values))

    matches_two_branch_bit_for_bit()


def test_uniform_init_deterministic():
    a = uniform_init(SeededRng(42), (3, 5), 0.5)
    b = uniform_init(SeededRng(42), (3, 5), 0.5)
    npt.assert_array_equal(a, b)


def test_uniform_init_within_bound():
    t = uniform_init(SeededRng(7), (100,), 0.1)
    assert np.all(t > -0.1) and np.all(t < 0.1)


def test_uniform_init_seed_sensitivity():
    a = uniform_init(SeededRng(42), (3, 5), 0.5)
    b = uniform_init(SeededRng(43), (3, 5), 0.5)
    assert not np.array_equal(a, b)


def test_uniform_init_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        uniform_init(SeededRng(1), (2,), 0.0)


def test_seeded_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        SeededRng(-1)


def test_uniform_init_bit_identical_across_processes():
    script = (
        "from narrative_seq.tensor_core import SeededRng, uniform_init;"
        "print(uniform_init(SeededRng(42, 9), (4, 4), 0.25).tobytes().hex())"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    local = uniform_init(SeededRng(42, 9), (4, 4), 0.25).tobytes().hex()
    assert out.stdout.strip() == local


def test_stream_tags_give_independent_draws():
    a = SeededRng(5, 1).uniform((8,), -1, 1)
    b = SeededRng(5, 2).uniform((8,), -1, 1)
    assert not np.array_equal(a, b)
