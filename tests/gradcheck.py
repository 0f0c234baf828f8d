"""Shared finite-difference oracle for gradient tests.

Central differences with a relative-error measure floored at 1e-4 in the
denominator, the standard guard against meaningless ratios when both sides
are numerically zero (the floor bounds those entries by an absolute
tolerance of tol * 1e-4 instead).
"""

import numpy as np

from narrative_seq.neural_layers import model_backward, model_forward
from narrative_seq.training import cross_entropy


def loss_of(spec, params, ids, label) -> float:
    """The loss of one record, scored as a one-row batch."""
    probs, _ = model_forward(ids, spec, params)
    return float(cross_entropy(probs[None, :], np.array([int(label)]))[0])


def max_relative_error(spec, params, ids, label, eps: float = 1e-5):
    """(worst relative error, offending tensor name) over every parameter.

    Instances are seeded, so ReLU pre-activations sit at fixed distances
    from the kink; none of the chosen seeds put one within the probe step.
    """
    _, cache = model_forward(ids, spec, params)
    grads = model_backward(cache, label, spec, params)
    worst, worst_name = 0.0, ""
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        analytic = grads[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            plus = loss_of(spec, params, ids, label)
            flat[i] = keep - eps
            minus = loss_of(spec, params, ids, label)
            flat[i] = keep
            numeric = (plus - minus) / (2.0 * eps)
            rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-4)
            if rel > worst:
                worst, worst_name = rel, f"{name}[{i}]"
    return worst, worst_name
