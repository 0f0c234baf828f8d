"""Finite-difference checks outside the acceptance grid: a mixed two-layer
stack, batched gradients, and sequences with padding ids that are longer
than one backward chunk. The full kind/direction/depth grid runs in
test_acceptance.py.

The backward pass works in chunks of ``neural_layers.CHUNK_STEPS`` steps, so
the last tests pin what chunking must not change: gradients that do not
depend on the chunk length beyond rounding, and a GEMM count that grows with
one recurrent product per step, not one per gate.
"""

import math

import numpy as np
import pytest

from narrative_seq import neural_layers
from narrative_seq.corpus_ingest import DamageLabel
from narrative_seq.neural_layers import CHUNK_STEPS, init_params, model_backward, model_forward
from narrative_seq.tensor_core import SeededRng
from narrative_seq.zoo import ZOO_NAMES, build_spec

from gradcheck import max_relative_error

TOL = 1e-5
IDS = np.array([1, 4, 0, 7, 0], dtype=np.uint32)  # includes padding ids
LABEL = DamageLabel.SUBSTANTIAL


def _check(name, seed, ids=IDS):
    spec = build_spec(name, embedding_dim=3, hidden_units=4, dense_hidden_units=4)
    params = init_params(spec, 10, SeededRng(seed, 2))
    worst, where = max_relative_error(spec, params, ids, LABEL)
    assert worst < TOL, f"{name}: rel err {worst:.2e} at {where}"


def test_mixed_two_layer_joint_stack():
    _check("sRNN-LSTM", seed=105)

def test_batched_gradient_is_mean_of_singles():
    # The batch gradient must equal the average of per-record gradients.
    spec = build_spec("GRU", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
    params = init_params(spec, 10, SeededRng(106, 2))
    batch = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.uint32)
    labels = np.array([0, 2, 3])
    _, cache = model_forward(batch, spec, params)
    batch_grads = model_backward(cache, labels, spec, params)
    summed = {k: np.zeros_like(v) for k, v in params.items()}
    for row in range(3):
        _, single_cache = model_forward(batch[row], spec, params)
        g = model_backward(single_cache, labels[row], spec, params)
        for k in summed:
            summed[k] += g[k] / 3.0
    for k in summed:
        np.testing.assert_allclose(batch_grads[k], summed[k], atol=1e-14)


def _chunk_crossing_ids(length):
    """Ids 1..9 with padding early, mid-sequence and inside the last chunk."""
    ids = np.random.default_rng(length).integers(1, 10, size=length).astype(np.uint32)
    ids[[2, CHUNK_STEPS // 2, length - 3, length - 1]] = 0
    return ids


@pytest.mark.parametrize("name,seed", [("LSTM", 107), ("GRU", 108), ("BLSTM", 109)])
def test_masked_gradient_across_chunks(name, seed):
    # Two chunks, the second one partial and padded; the bidirectional
    # layer's backward direction meets that padding in its first chunk.
    _check(name, seed, ids=_chunk_crossing_ids(CHUNK_STEPS + 3))


def _zoo_gradients(name, ids, labels):
    spec = build_spec(name, embedding_dim=3, hidden_units=4, dense_hidden_units=4)
    params = init_params(spec, 10, SeededRng(110, 2))
    _, cache = model_forward(ids, spec, params)
    return model_backward(cache, labels, spec, params)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_gradients_do_not_depend_on_chunk_length(name, monkeypatch):
    length = 2 * 64 + 5
    ids = np.stack([_chunk_crossing_ids(length), np.roll(_chunk_crossing_ids(length), 9),
                    np.random.default_rng(3).integers(1, 10, size=length)]).astype(np.uint32)
    labels = np.array([0, 2, 3])
    reference = _zoo_gradients(name, ids, labels)
    for chunk in (1, 7, 64):
        monkeypatch.setattr(neural_layers, "CHUNK_STEPS", chunk)
        grads = _zoo_gradients(name, ids, labels)
        for key, value in reference.items():
            np.testing.assert_allclose(grads[key], value, rtol=1e-12, err_msg=f"{key} at {chunk}")


@pytest.mark.parametrize("name,per_step,per_chunk", [
    ("LSTM", 2, 4), ("sRNN", 2, 4), ("GRU", 4, 5),
])
def test_gemm_count_per_step_and_chunk(name, per_step, per_chunk, monkeypatch):
    # Forward and backward each take one recurrent GEMM per step (two for
    # the GRU); the input projection, dW, dU (and the GRU's dU_h) and the
    # input gradient are one GEMM per chunk; the head adds at most 8.
    calls = []

    def counted(a, b):
        calls.append(None)
        return np.matmul(a, b)

    length, batch = 130, 4
    spec = build_spec(name, embedding_dim=3, hidden_units=4, dense_hidden_units=4)
    params = init_params(spec, 10, SeededRng(111, 2))
    ids = np.random.default_rng(4).integers(1, 10, size=(batch, length)).astype(np.uint32)
    monkeypatch.setattr(neural_layers, "matmul", counted)
    _, cache = model_forward(ids, spec, params)
    model_backward(cache, np.arange(batch) % 4, spec, params)
    assert len(calls) <= per_step * length + per_chunk * math.ceil(length / CHUNK_STEPS) + 8
