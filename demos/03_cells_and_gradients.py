#!/usr/bin/env python3
"""Walkthrough: the three recurrent cells, the bidirectional wrapper, and a
finite-difference probe of the hand-derived backpropagation.

Everything runs at toy sizes so the arithmetic is inspectable.
"""

import numpy as np

from narrative_seq import (
    SeededRng,
    bidirectional_forward,
    gru_step,
    init_params,
    lstm_step,
    model_backward,
    model_forward,
    predict_classes,
    predict_proba,
    recurrent_forward,
    srnn_step,
)
from narrative_seq.neural_layers import CellKind, RecurrentLayerSpec
from narrative_seq.corpus_ingest import DamageLabel
from narrative_seq.training import cross_entropy
from narrative_seq.zoo import build_spec

rng = SeededRng(123)

# --- one step of each cell ------------------------------------------------
p_srnn = {
    "W": rng.uniform((3, 4), -0.5, 0.5),
    "U": rng.uniform((4, 4), -0.5, 0.5),
    "b": np.zeros(4),
}
x = rng.uniform((3,), -1, 1)
h0 = np.zeros(4)
print("simple cell step:", srnn_step(x, h0, p_srnn))

p_lstm = {}
for gate in ("_i", "_f", "_g", "_o"):
    p_lstm[f"W{gate}"] = rng.uniform((3, 4), -0.5, 0.5)
    p_lstm[f"U{gate}"] = rng.uniform((4, 4), -0.5, 0.5)
    p_lstm[f"b{gate}"] = np.zeros(4)
h1, c1 = lstm_step(x, h0, np.zeros(4), p_lstm)
print("LSTM step h:", h1)
print("LSTM step c:", c1)

p_gru = {}
for gate in ("_z", "_r", "_h"):
    p_gru[f"W{gate}"] = rng.uniform((3, 4), -0.5, 0.5)
    p_gru[f"U{gate}"] = rng.uniform((4, 4), -0.5, 0.5)
    p_gru[f"b{gate}"] = np.zeros(4)
print("GRU step:", gru_step(x, h0, p_gru))

# With all-zero parameters the gates sit at sigmoid(0) = 0.5, so a GRU step
# simply halves the previous state:
zeros = {k: np.zeros_like(v) for k, v in p_gru.items()}
h_prev = np.array([0.8, -0.4, 0.2, 1.0])
print("GRU with zero params halves h_prev:", gru_step(x, h_prev, zeros))

# --- sequences and directions ----------------------------------------------
seq = rng.uniform((5, 3), -1, 1)
uni = RecurrentLayerSpec(CellKind.LSTM, 4, returns_sequence=True)
print("\nper-step LSTM outputs over a 5-step sequence:")
print(recurrent_forward(seq, uni, p_lstm))

bi = RecurrentLayerSpec(CellKind.LSTM, 4, bidirectional=True)
final = bidirectional_forward(seq, bi, p_lstm, p_lstm)
print("\nbidirectional final state (forward half || backward half):")
print(final)

# --- whole model and gradient probe ----------------------------------------
spec = build_spec("GRU-LSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
params = init_params(spec, vocab_size=12, rng=SeededRng(7, 2))
ids = np.array([3, 1, 8, 2], dtype=np.uint32)
probs, cache = model_forward(ids, spec, params)
print(f"\n{spec.name} probabilities: {probs}  (sum {probs.sum():.12f})")
print("predicted class:", DamageLabel(int(predict_classes(probs))).display_name)

# Labels are integer class codes; one record takes a single code.
label = DamageLabel.SUBSTANTIAL
grads = model_backward(cache, label, spec, params)


def loss() -> float:
    """The record's cross-entropy, scored as a one-row batch."""
    return cross_entropy(predict_proba(ids[None, :], spec, params), np.array([label]))[0]


# Probe three coordinates with central finite differences; the analytic
# gradients should agree to several digits.
eps = 1e-6
print("\nfinite-difference spot check (analytic vs numeric):")
for name in ("embedding", "layer0.W_z", "output.W"):
    tensor = params[name]
    flat = tensor.reshape(-1)
    gflat = grads[name].reshape(-1)
    i = int(np.argmax(np.abs(gflat)))  # most informative coordinate
    keep = flat[i]
    flat[i] = keep + eps
    up = loss()
    flat[i] = keep - eps
    down = loss()
    flat[i] = keep
    numeric = (up - down) / (2 * eps)
    print(f"  {name:<12} analytic {gflat[i]:+.9f}   numeric {numeric:+.9f}")
