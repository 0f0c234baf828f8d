"""Dense numeric substrate: float64 arrays, linear-algebra kernels,
activations, and seeded random generation.

Arrays are plain row-major numpy ``float64`` ndarrays. There is deliberately
no broadcasting in the public kernels: shape mismatches raise
``DimensionError`` instead of silently broadcasting, which would mask
backpropagation bugs.

Random generation uses the Philox counter-based bit generator so that a given
seed produces bit-identical draw sequences on every platform and in every
process. The family is fixed; changing it is a format break.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

Tensor = np.ndarray


class SeededRng:
    """Deterministic random source backed by a counter-based PRNG.

    ``stream`` tags carve independent substreams out of one 64-bit seed
    (e.g. parameter init vs. per-epoch shuffles) without seed arithmetic.
    Instances are single-owner: never share one across threads.
    """

    def __init__(self, seed: int, *stream: int):
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed}")
        self.seed = seed
        self.stream = tuple(stream)
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, *stream]))
        )

    def uniform(self, shape: tuple[int, ...], low: float, high: float) -> Tensor:
        """I.i.d. Uniform(low, high) draws; consumes product(shape) draws."""
        return self._gen.uniform(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, accumulated in float64.

    Inner dimensions must agree exactly; there is no broadcasting.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.shape} vs {b.shape}"
        )
    return np.matmul(a, b)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    return np.maximum(0.0, x)


def sigmoid(x: Tensor, out: Tensor | None = None) -> Tensor:
    """Logistic function ``1 / (1 + exp(-x))`` in float64, in four passes.

    The passes ``negative``, ``exp``, ``+= 1.0`` and ``divide(1.0, .)`` all
    write into one float64 array: ``out`` when given (any float64 array of
    ``x``'s shape, a strided slice included), which is then returned, else a
    new one. Scalars, lists and integer arrays give float64; a scalar gives a
    0-d array. ``exp(-x)`` overflows to ``inf`` below about -709.78, where the
    result is 0 although the exact value is under 2.3e-308, and underflows for
    large ``x``, where the result rounds to 1; neither is reported. A NaN
    input gives NaN, but its sign bit is not kept.
    """
    with np.errstate(over="ignore", under="ignore"):
        e = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
        np.exp(e, out=e)
        e += 1.0
        return np.divide(1.0, e, out=e)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """exp(x - max(x)) normalized to sum 1 along ``axis``.

    Stable for large-magnitude finite inputs: subtracting the running max
    keeps every exponent nonpositive.
    """
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def uniform_init(rng: SeededRng, shape: tuple[int, ...], bound: float) -> Tensor:
    """I.i.d. Uniform(-bound, +bound) tensor; consumes product(shape) draws."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    return rng.uniform(shape, -bound, bound)
