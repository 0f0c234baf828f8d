"""Embedding, recurrent cells (simple/LSTM/GRU), the layer runner that
handles bidirectional layers, dense head, and exact backpropagation through
time.

Architecture: token ids -> embedding lookup -> recurrent stack (each layer
feeds the next; only the last layer collapses to its final state) -> one
ReLU dense hidden layer -> dense output with softmax.

Gradients are hand-derived per layer; there is no autodiff. The backward
pass consumes the forward cache without recomputation and is exact for the
loss ``cross-entropy(softmax(logits))``, which is why finite-difference
checks can pin it to 1e-5 relative error.

Every zoo model shares this skeleton, and only the layer widths and the
stack vary (``ModelSpec``). Gates are the logistic sigmoid (gating needs the
(0,1) range), the LSTM and GRU candidate and state use tanh, and the simple
cell and the dense hidden layer use ReLU. Padding ids run through the cells
like any other token; nothing is masked.

Parameter tensors live in a flat name->array dict in a canonical order (see
``param_shapes``); the README documents the shape table. Storage stays
per-gate; the recurrent kernel concatenates each direction's gates into one
fused ``[in, G*H]``, ``[H, G*H]`` and ``[G*H]`` set per call, sigmoid gates
first, and is the only forward implementation of each cell: training,
evaluation, the sequence functions and the ``*_step`` functions all run it.
It projects the inputs with one GEMM per ``CHUNK_STEPS`` time steps, takes
one recurrent GEMM (two for the GRU, whose candidate needs the reset gate)
and one sigmoid call per step, and keeps its caches time-major
(``[L, B, ...]``) so every per-step read and write is one contiguous block.

The backward pass walks the same chunks from last to first. Its step loop
keeps only the recurrence: one GEMM per step on the fused ``U`` for the
state gradient over all gates (the GRU adds one on ``U_h``). The weight,
bias and input gradients are one GEMM (or sum) per chunk over its stacked
steps, so they are summed per chunk and then across chunks; that order
fixes the bits of trained parameters, not their values beyond rounding.

One layer runner handles directions. ``_layer_forward`` runs every
direction of a layer: it hands the backward direction the reversed inputs,
flips that direction's states back to input order, and joins the directions
on the feature axis. ``_layer_backward``, its adjoint, splits
and reverses the output gradient and sums the directions' input gradients.
``model_forward`` and ``predict_proba`` (through ``_forward``),
``model_backward``, ``recurrent_forward`` and ``bidirectional_forward`` all
go through the runner; the ``*_step`` functions reach the kernel through
``_step``. Nothing else calls the kernel.

The kernel, ``_direction_forward``, takes two flags. With ``cached``
(``model_forward``: training, followed by ``model_backward``) it keeps the
full BPTT cache: every step's states, gates and LSTM cell states. Without
it (``predict_proba`` for evaluation and scoring, the sequence functions and
the step functions) gates, ``act(c)`` and the cell state live in one
scratch row each, and ``sequence`` says whether the state sequence is kept,
which a layer needs only when the next layer reads it. Every mode runs the
same per-step arithmetic, so their outputs are bit-identical, and a
forward-only run returns outputs, never a cache ``model_backward`` could
take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import DimensionError
from .tensor_core import SeededRng, Tensor, matmul, relu, sigmoid, softmax, uniform_init
from .text_pipeline import NUM_CLASSES


class CellKind(Enum):
    SRNN = "srnn"
    LSTM = "lstm"
    GRU = "gru"


# Gate-name suffixes per cell kind, in canonical parameter order.
GATE_NAMES: Mapping[CellKind, tuple[str, ...]] = {
    CellKind.SRNN: ("",),
    CellKind.LSTM: ("_i", "_f", "_g", "_o"),
    CellKind.GRU: ("_z", "_r", "_h"),
}

ParamDict = dict[str, Tensor]


@dataclass(frozen=True)
class RecurrentLayerSpec:
    kind: CellKind
    hidden_units: int
    bidirectional: bool = False
    returns_sequence: bool = False

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ValueError(f"hidden_units must be positive, got {self.hidden_units}")

    @property
    def output_width(self) -> int:
        return self.hidden_units * (2 if self.bidirectional else 1)


# The skeleton's fixed values. Checkpoint headers record them next to the
# spec, and ``ModelSpec.from_dict`` refuses a header with any other value.
_FIXED_SPEC = {
    "num_classes": NUM_CLASSES,
    "hidden_activation": "relu",
    "cell_activation": "tanh",
    "use_dense_hidden": True,
    "mask_padding": False,
}


@dataclass(frozen=True)
class ModelSpec:
    """Ordered architecture description; fully determines parameter shapes
    together with the vocabulary size."""

    name: str
    embedding_dim: int
    recurrent_stack: tuple[RecurrentLayerSpec, ...]
    dense_hidden_units: int

    def __post_init__(self):
        if self.embedding_dim < 1 or self.dense_hidden_units < 1:
            raise ValueError("embedding_dim and dense_hidden_units must be positive")
        if not self.recurrent_stack:
            raise ValueError("recurrent_stack must contain at least one layer")
        for layer in self.recurrent_stack[:-1]:
            if not layer.returns_sequence:
                raise ValueError("every layer except the last must return sequences")
        if self.recurrent_stack[-1].returns_sequence:
            raise ValueError("the last recurrent layer must not return sequences")

    @property
    def feature_width(self) -> int:
        return self.recurrent_stack[-1].output_width

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "embedding_dim": self.embedding_dim,
            "recurrent_stack": [
                {
                    "kind": layer.kind.value,
                    "hidden_units": layer.hidden_units,
                    "bidirectional": layer.bidirectional,
                    "returns_sequence": layer.returns_sequence,
                }
                for layer in self.recurrent_stack
            ],
            "dense_hidden_units": self.dense_hidden_units,
            **_FIXED_SPEC,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelSpec":
        for key, value in _FIXED_SPEC.items():
            if data[key] != value:
                raise ValueError(f"{key} is fixed at {value!r}, got {data[key]!r}")
        return cls(
            name=data["name"],
            embedding_dim=data["embedding_dim"],
            recurrent_stack=tuple(
                RecurrentLayerSpec(
                    kind=CellKind(layer["kind"]),
                    hidden_units=layer["hidden_units"],
                    bidirectional=layer["bidirectional"],
                    returns_sequence=layer["returns_sequence"],
                )
                for layer in data["recurrent_stack"]
            ),
            dense_hidden_units=data["dense_hidden_units"],
        )


# Derivatives are taken from the activation OUTPUT, so the cache never
# stores pre-activations.
def _relu_deriv(out: Tensor) -> Tensor:
    return (out > 0).astype(np.float64)


def _tanh_deriv(out: Tensor) -> Tensor:
    return 1.0 - out * out


def _sigmoid_deriv(out: Tensor) -> Tensor:
    return out * (1.0 - out)


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

def _layer_input_width(spec: ModelSpec, index: int) -> int:
    if index == 0:
        return spec.embedding_dim
    return spec.recurrent_stack[index - 1].output_width


def _directions(layer: RecurrentLayerSpec) -> tuple[str, ...]:
    return ("fwd", "bwd") if layer.bidirectional else ("",)


def _prefix(index: int, direction: str) -> str:
    base = f"layer{index}."
    return base + (f"{direction}." if direction else "")


def param_shapes(spec: ModelSpec, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape table; also fixes the initialization order."""
    shapes: dict[str, tuple[int, ...]] = {"embedding": (vocab_size, spec.embedding_dim)}
    for i, layer in enumerate(spec.recurrent_stack):
        fan_in = _layer_input_width(spec, i)
        h = layer.hidden_units
        for direction in _directions(layer):
            prefix = _prefix(i, direction)
            for gate in GATE_NAMES[layer.kind]:
                shapes[f"{prefix}W{gate}"] = (fan_in, h)
                shapes[f"{prefix}U{gate}"] = (h, h)
                shapes[f"{prefix}b{gate}"] = (h,)
    shapes["dense_hidden.W"] = (spec.feature_width, spec.dense_hidden_units)
    shapes["dense_hidden.b"] = (spec.dense_hidden_units,)
    shapes["output.W"] = (spec.dense_hidden_units, NUM_CLASSES)
    shapes["output.b"] = (NUM_CLASSES,)
    return shapes


def init_params(spec: ModelSpec, vocab_size: int, rng: SeededRng) -> ParamDict:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases.

    Draws are consumed in canonical ``param_shapes`` order, product(shape)
    per weight matrix. The padding embedding row (index 0) starts at zero;
    it stays trainable.
    """
    params: ParamDict = {}
    for name, shape in param_shapes(spec, vocab_size).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = uniform_init(rng, shape, bound)
    params["embedding"][0, :] = 0.0
    return params


def _sub_params(params: Mapping[str, Tensor], prefix: str) -> ParamDict:
    sub = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
    if not sub:
        raise DimensionError(f"no parameters found under prefix {prefix!r}")
    return sub


# ---------------------------------------------------------------------------
# Fused recurrent kernel: one direction of one layer over a whole sequence
# ---------------------------------------------------------------------------

# Gate order in the fused [in, G*H] / [H, G*H] / [G*H] matrices. The sigmoid
# gates come first, so one sigmoid call covers them each step; the cell
# activation covers the rest. Parameter storage keeps the GATE_NAMES order.
FUSED_GATES: Mapping[CellKind, tuple[str, ...]] = {
    CellKind.SRNN: ("",),
    CellKind.LSTM: ("_i", "_f", "_o", "_g"),
    CellKind.GRU: ("_z", "_r", "_h"),
}
_SIGMOID_GATES = {CellKind.SRNN: 0, CellKind.LSTM: 3, CellKind.GRU: 2}

# Each cell kind's own activation and its derivative: the simple cell's, or
# the LSTM/GRU candidate and state activation.
_CELL_ACTIVATION: Mapping[CellKind, tuple[Callable, Callable]] = {
    CellKind.SRNN: (relu, _relu_deriv),
    CellKind.LSTM: (np.tanh, _tanh_deriv),
    CellKind.GRU: (np.tanh, _tanh_deriv),
}

# Time steps per input-projection GEMM, and per weight- and input-gradient
# GEMM in the backward pass. One GEMM over a whole sequence would hold an
# [L, B, G*H] buffer (262 MB for an LSTM at L=2000, B=64, H=64); a chunk
# keeps it near 8 MB and still amortises the call over many steps.
CHUNK_STEPS = 64


def _gate_columns(kind: CellKind, hidden: int) -> dict[str, slice]:
    return {gate: slice(k * hidden, (k + 1) * hidden)
            for k, gate in enumerate(FUSED_GATES[kind])}


def _fuse_params(kind: CellKind, p: Mapping[str, Tensor], n_in: int, hidden: int
                 ) -> tuple[Tensor, Tensor, Tensor]:
    """Concatenate per-gate W, U and b in FUSED_GATES order.

    The GRU's U covers z and r only: its candidate multiplies ``r * h_prev``
    by ``U_h``, which the step applies on its own.
    """
    gates = FUSED_GATES[kind]
    expected = {"W": (n_in, hidden), "U": (hidden, hidden), "b": (hidden,)}
    for gate in gates:
        for mat, shape in expected.items():
            if p[mat + gate].shape != shape:
                raise DimensionError(
                    f"{mat}{gate} has shape {p[mat + gate].shape}, expected {shape} "
                    f"for input width {n_in} and state width {hidden}"
                )
    recurrent = gates[:2] if kind is CellKind.GRU else gates
    return (np.concatenate([p[f"W{g}"] for g in gates], axis=1),
            np.concatenate([p[f"U{g}"] for g in recurrent], axis=1),
            np.concatenate([p[f"b{g}"] for g in gates]))


@dataclass
class DirectionCache:
    """Everything the backward pass needs for one direction of one layer.

    Arrays are time-major, so each step reads and writes one contiguous
    block, and in this direction's processing order (``_layer_forward``
    reverses the backward direction's inputs before calling in).
    """

    kind: CellKind
    x: Tensor                      # [L, B, in]
    h: Tensor                      # [L+1, B, H]; h[0] initial
    gates: Tensor | None = None    # [L, B, G*H] activated gates, FUSED_GATES order
    c: Tensor | None = None        # [L+1, B, H] LSTM cell states; c[0] initial
    ac: Tensor | None = None       # [L, B, H] LSTM act(c)


def _step_rows(n_rows: int, row_shape: tuple[int, ...], keep: bool) -> Tensor:
    """``[n_rows, *row_shape]`` storage for a per-step quantity.

    Without ``keep`` every row is a view of one scratch row (stride 0 along
    the first axis), so the step loop indexes it by time exactly as it
    indexes a kept sequence while holding only one row. The loop computes
    each new row in full before it writes it, so overwriting the row it
    just read is safe.
    """
    if keep:
        return np.empty((n_rows, *row_shape))
    row = np.empty(row_shape)
    return np.lib.stride_tricks.as_strided(row, (n_rows, *row_shape), (0, *row.strides))


def _direction_forward(x: Tensor, kind: CellKind, p: Mapping[str, Tensor],
                       h0: Tensor | None = None, c0: Tensor | None = None, *,
                       cached: bool, sequence: bool
                       ) -> tuple[Tensor, Tensor | None, DirectionCache | None]:
    """Run one cell over ``x`` [L, B, in] from ``h0``/``c0`` (zeros by default).

    The cell's activation is its kind's entry in ``_CELL_ACTIVATION``, and
    every step, padding included, updates the state. Only ``_layer_forward``
    and ``_step`` call this; ``x`` arrives in this direction's processing
    order.

    Returns ``(h, c_last, cache)``. ``h`` is every step's state [L, B, H]
    with ``sequence``, else the final state [B, H]; ``c_last`` is the LSTM's
    final cell state [B, H] (None for the other kinds). With ``cached``,
    ``cache`` is the ``DirectionCache`` that ``_direction_backward``
    consumes: every step's states and gates. Without it ``cache`` is None,
    gates, ``act(c)`` and the cell state live in one scratch row each (see
    ``_step_rows``), and the state sequence is kept only with ``sequence``.
    The arithmetic is the same in every mode, so the states are
    bit-identical.
    """
    L, B, n_in = x.shape
    H = p[f"b{FUSED_GATES[kind][0]}"].shape[0] if h0 is None else h0.shape[-1]
    W, U, b = _fuse_params(kind, p, n_in, H)
    act, _ = _CELL_ACTIVATION[kind]
    n_sig = _SIGMOID_GATES[kind] * H
    cols = _gate_columns(kind, H)
    h = _step_rows(L + 1, (B, H), cached or sequence)
    h[0] = 0.0 if h0 is None else h0
    c = ac = gates = None
    if kind is CellKind.LSTM:
        c = _step_rows(L + 1, (B, H), cached)
        c[0] = 0.0 if c0 is None else c0
        ac = _step_rows(L, (B, H), cached)
    if kind is not CellKind.SRNN:
        gates = _step_rows(L, (B, W.shape[1]), cached)

    for t0 in range(0, L, CHUNK_STEPS):
        # The bias is added after x W + h U, in the same order as a per-gate
        # affine map, so the fused kernel reproduces it bit for bit.
        xw = matmul(x[t0:t0 + CHUNK_STEPS].reshape(-1, n_in), W).reshape(-1, B, W.shape[1])
        for t in range(t0, t0 + xw.shape[0]):
            xw_t, h_prev = xw[t - t0], h[t]
            if kind is CellKind.SRNN:
                h[t + 1] = act(xw_t + matmul(h_prev, U) + b)
            elif kind is CellKind.LSTM:
                pre = xw_t + matmul(h_prev, U) + b
                g_t = gates[t]
                g_t[:, :n_sig] = sigmoid(pre[:, :n_sig])
                g_t[:, n_sig:] = act(pre[:, n_sig:])
                i, f, o, g = (g_t[:, cols[k]] for k in ("_i", "_f", "_o", "_g"))
                c[t + 1] = f * c[t] + i * g
                ac[t] = act(c[t + 1])
                h[t + 1] = o * ac[t]
            else:
                g_t = gates[t]
                g_t[:, :n_sig] = sigmoid(xw_t[:, :n_sig] + matmul(h_prev, U) + b[:n_sig])
                z, r, hbar = (g_t[:, cols[k]] for k in ("_z", "_r", "_h"))
                hbar[:] = act(xw_t[:, n_sig:] + matmul(r * h_prev, p["U_h"]) + b[n_sig:])
                h[t + 1] = (1.0 - z) * h_prev + z * hbar
    cache = DirectionCache(kind, x, h, gates, c, ac) if cached else None
    return (h[1:] if sequence else h[-1]), (None if c is None else c[-1]), cache


def _direction_backward(d_out: Tensor, cache: DirectionCache, p: Mapping[str, Tensor]
                        ) -> tuple[Tensor, ParamDict]:
    """Exact BPTT for one direction; returns (d_inputs [L, B, in], gradients).

    ``d_out`` is the gradient of every step's output [L, B, H], or of the
    final state only [B, H].

    Chunks of ``CHUNK_STEPS`` steps are walked from the last (partial) one
    back to the first. The step loop keeps only the recurrence: it writes
    each step's pre-activation gradient into a ``[chunk, B, G*H]`` buffer
    and takes ``dh_prev`` over all gates with one GEMM on the fused ``U``
    (the GRU adds one on ``U_h`` for its candidate). After the loop, ``dW``,
    ``dU``, the GRU's ``dU_h`` and the input gradient are one GEMM each over
    the chunk's ``chunk*B`` rows and ``db`` is one sum; the factors that
    depend on the cache alone are formed once per chunk before it. Sums thus
    run within a chunk and then across chunks, so the bits depend on
    ``CHUNK_STEPS`` and the values do only by rounding.
    """
    kind = cache.kind
    _, act_deriv = _CELL_ACTIVATION[kind]
    L, B, n_in = cache.x.shape
    H = cache.h.shape[2]
    W, U, _ = _fuse_params(kind, p, n_in, H)
    n_sig, n_u = _SIGMOID_GATES[kind] * H, U.shape[1]
    cols = _gate_columns(kind, H)
    dW, dU, db = np.zeros(W.shape), np.zeros(U.shape), np.zeros(W.shape[1])
    dU_h = np.zeros((H, H)) if kind is CellKind.GRU else None
    d_x = np.empty(cache.x.shape)
    d_pre_rows = np.empty((min(CHUNK_STEPS, L), B, W.shape[1]))
    sequence = d_out.ndim == 3
    dh_carry = np.zeros((B, H)) if sequence else d_out
    dc_carry = np.zeros((B, H))

    for t0 in reversed(range(0, L, CHUNK_STEPS)):
        t1 = min(t0 + CHUNK_STEPS, L)
        d_pre, h_prev = d_pre_rows[:t1 - t0], cache.h[t0:t1]
        # fac: each gate's pre-activation gradient per unit of its upstream
        # gradient. It depends on the cache alone.
        if kind is CellKind.SRNN:
            fac = act_deriv(cache.h[t0 + 1:t1 + 1])
        else:
            gates = cache.gates[t0:t1]
            fac = np.empty(gates.shape)
            fac[..., :n_sig] = _sigmoid_deriv(gates[..., :n_sig])
        if kind is CellKind.LSTM:
            i, f, o, g = (gates[..., cols[k]] for k in ("_i", "_f", "_o", "_g"))
            # i, f and o scale g, c[t] and act(c[t+1]) in the forward.
            fac[..., :n_sig] *= np.concatenate([g, cache.c[t0:t1], cache.ac[t0:t1]], axis=2)
            fac[..., cols["_g"]], o_dac = i * act_deriv(g), o * act_deriv(cache.ac[t0:t1])
        elif kind is CellKind.GRU:
            z, r, hbar = (gates[..., cols[k]] for k in ("_z", "_r", "_h"))
            # z scales hbar - h[t]; r scales h[t] inside the candidate.
            fac[..., :n_sig] *= np.concatenate([hbar - h_prev, h_prev], axis=2)
            fac[..., cols["_h"]], keep_z = z * act_deriv(hbar), 1.0 - z

        for s in range(t1 - t0 - 1, -1, -1):
            t, dp, fs = t0 + s, d_pre[s], fac[s]
            dh = d_out[t] + dh_carry if sequence else dh_carry
            if kind is CellKind.SRNN:
                np.multiply(dh, fs, out=dp)
            elif kind is CellKind.LSTM:
                dc = dc_carry + dh * o_dac[s]
                # dc scales the i, f and g factors; o's scales dh instead.
                np.multiply(fs.reshape(B, -1, H), dc[:, None], out=dp.reshape(B, -1, H))
                dp[:, cols["_o"]] = dh * fs[:, cols["_o"]]
                dc_carry = dc * f[s]
            else:  # GRU
                dp[:, cols["_h"]] = dh * fs[:, cols["_h"]]
                d_rh = matmul(dp[:, cols["_h"]], p["U_h"].T)
                dp[:, cols["_z"]] = dh * fs[:, cols["_z"]]
                dp[:, cols["_r"]] = d_rh * fs[:, cols["_r"]]
            dh_carry = matmul(dp[:, :n_u], U.T)
            if kind is CellKind.GRU:
                dh_carry += dh * keep_z[s] + d_rh * r[s]

        rows = d_pre.reshape(-1, W.shape[1])
        dW += matmul(cache.x[t0:t1].reshape(-1, n_in).T, rows)
        dU += matmul(h_prev.reshape(-1, H).T, rows[:, :n_u])
        db += rows.sum(axis=0)
        d_x[t0:t1] = matmul(rows, W.T).reshape(t1 - t0, B, n_in)
        if kind is CellKind.GRU:
            dU_h += matmul((r * h_prev).reshape(-1, H).T, rows[:, cols["_h"]])

    grads: ParamDict = {}
    for gate, cs in cols.items():
        grads[f"W{gate}"] = dW[:, cs]
        grads[f"U{gate}"] = dU_h if gate == "_h" else dU[:, cs]
        grads[f"b{gate}"] = db[cs]
    return d_x, grads


def _step(kind: CellKind, params: Mapping[str, Tensor],
          x_t: Tensor, h_prev: Tensor, c_prev: Tensor | None = None):
    """One step of ``kind`` from ``h_prev`` (and the LSTM's ``c_prev``).

    A 1-D input is a one-row batch whose result comes back 1-D; a 2-D input
    is a batch [B, d] and passes as is.
    """
    x, h, c = (None if v is None else np.asarray(v, dtype=np.float64)
               for v in (x_t, h_prev, c_prev))
    for name, v in (("x_t", x), ("h_prev", h)):
        if v.ndim not in (1, 2):
            raise DimensionError(f"{name} must be [d] or [B, d], got shape {v.shape}")
    squeeze = x.ndim == 1
    x, h, c = (v[None, :] if v is not None and v.ndim == 1 else v for v in (x, h, c))
    if c is not None and c.shape != h.shape:
        raise DimensionError(f"cell state {c.shape} does not match h_prev {h.shape}")
    h, c, _ = _direction_forward(x[None], kind, params, h, c, cached=False, sequence=False)
    if squeeze:
        h, c = h[0], (None if c is None else c[0])
    return h if kind is not CellKind.LSTM else (h, c)


def srnn_step(x_t: Tensor, h_prev: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """One simple-cell step: relu(W x + U h_prev + b)."""
    return _step(CellKind.SRNN, params, x_t, h_prev)


def lstm_step(x_t: Tensor, h_prev: Tensor, c_prev: Tensor,
              params: Mapping[str, Tensor]) -> tuple[Tensor, Tensor]:
    """One LSTM step: logistic sigmoid gates, tanh candidate and state."""
    return _step(CellKind.LSTM, params, x_t, h_prev, c_prev)


def gru_step(x_t: Tensor, h_prev: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """One GRU step with the reset gate applied to h_prev inside U_h."""
    return _step(CellKind.GRU, params, x_t, h_prev)


# ---------------------------------------------------------------------------
# Layer runner: every direction of one layer, forward and backward
# ---------------------------------------------------------------------------

def _layer_forward(x: Tensor, layer: RecurrentLayerSpec,
                   dir_params: list[Mapping[str, Tensor]],
                   cached: bool) -> tuple[Tensor, list[DirectionCache | None]]:
    """Run every direction of ``layer`` over time-major ``x`` [L, B, in].

    Returns the layer's output, per-step [L, B, width] when it returns
    sequences, else final states [B, width], and one ``_direction_forward``
    cache per direction (None without ``cached``). ``dir_params`` holds one
    parameter set per direction, forward first. The backward direction runs
    on the reversed inputs; its per-step states are flipped back to input
    order and joined after the forward direction's on the feature axis. Its
    final state is the one after it has read the first token.
    """
    runs = [x, x[::-1]] if layer.bidirectional else [x]
    outs, caches = [], []
    for x_dir, p in zip(runs, dir_params):
        h, _, cache = _direction_forward(x_dir, layer.kind, p, cached=cached,
                                         sequence=layer.returns_sequence)
        outs.append(h)
        caches.append(cache)
    if not layer.bidirectional:
        return outs[0], caches
    fwd, bwd = outs
    return np.concatenate([fwd, bwd[::-1] if layer.returns_sequence else bwd], axis=-1), caches


def _layer_backward(d_out: Tensor, layer: RecurrentLayerSpec,
                    dir_params: list[Mapping[str, Tensor]],
                    caches: list[DirectionCache]) -> tuple[Tensor, list[ParamDict]]:
    """Adjoint of ``_layer_forward``: the gradient of its time-major input
    [L, B, in] and one gradient dict per direction, forward first."""
    d_dirs = [d_out]
    if layer.bidirectional:
        H = layer.hidden_units
        d_bwd = d_out[..., H:]
        d_dirs = [d_out[..., :H], d_bwd[::-1] if layer.returns_sequence else d_bwd]
    runs = [_direction_backward(d_dir, cache, p)
            for d_dir, cache, p in zip(d_dirs, caches, dir_params)]
    d_x = runs[0][0] if len(runs) == 1 else runs[0][0] + runs[1][0][::-1]
    return d_x, [grads for _, grads in runs]


def _layer_args(spec: ModelSpec, params: Mapping[str, Tensor], index: int
                ) -> tuple[list[str], list[ParamDict]]:
    """Layer ``index``'s per-direction parameter prefixes and parameter
    sets."""
    prefixes = [_prefix(index, direction)
                for direction in _directions(spec.recurrent_stack[index])]
    return prefixes, [_sub_params(params, prefix) for prefix in prefixes]


def _sequence_forward(inputs: Tensor, layer: RecurrentLayerSpec,
                      dir_params: list[Mapping[str, Tensor]]) -> Tensor:
    """``_layer_forward`` without a cache on [L, d] or [B, L, d] inputs;
    per-step outputs come back in the same layout."""
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise DimensionError(f"expected [L, d] or [B, L, d] inputs, got {arr.shape}")
    x = arr[:, None] if arr.ndim == 2 else arr.transpose(1, 0, 2)
    out, _ = _layer_forward(x, layer, dir_params, cached=False)
    if layer.returns_sequence:
        out = out.transpose(1, 0, 2)
    return out[0] if arr.ndim == 2 else out


def recurrent_forward(inputs: Tensor, layer: RecurrentLayerSpec,
                      params: Mapping[str, Tensor]) -> Tensor:
    """Run a unidirectional layer left-to-right from zero initial state.

    ``inputs`` is [L, d] (or [B, L, d]); returns the per-step output
    sequence when the layer returns sequences, else the final hidden state.
    """
    if layer.bidirectional:
        raise DimensionError("use bidirectional_forward for bidirectional layers")
    return _sequence_forward(inputs, layer, [params])


def bidirectional_forward(inputs: Tensor, layer: RecurrentLayerSpec,
                          params_fwd: Mapping[str, Tensor],
                          params_bwd: Mapping[str, Tensor]) -> Tensor:
    """Concatenate a left-to-right pass and a right-to-left pass.

    Per-step outputs are [fwd_t, bwd_t]; the final-state form concatenates
    each direction's own final state.
    """
    if not layer.bidirectional:
        raise DimensionError("layer.bidirectional must be true")
    return _sequence_forward(inputs, layer, [params_fwd, params_bwd])


# ---------------------------------------------------------------------------
# Whole-model forward and backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    """Forward intermediates, sufficient to run backward without recompute."""

    ids: Tensor                       # [B, L]
    # Per layer, one DirectionCache per direction, forward first.
    layers: list[list[DirectionCache]] = field(default_factory=list)
    features: Tensor | None = None    # [B, feature_width]
    hidden: Tensor | None = None      # [B, dense_hidden], post-activation
    probs: Tensor | None = None       # [B, num_classes]


def embedding_forward(seq: Tensor, embedding: Tensor) -> Tensor:
    """Row lookup per timestep; padding id 0 reads row 0 like any token."""
    ids = np.asarray(seq)
    if ids.size and int(ids.max()) >= embedding.shape[0]:
        raise IndexError(
            f"token id {int(ids.max())} outside embedding of {embedding.shape[0]} rows"
        )
    return embedding[ids]


def model_forward(seq: Tensor, spec: ModelSpec, params: Mapping[str, Tensor]
                  ) -> tuple[Tensor, ForwardCache]:
    """Probabilities over the four classes plus the backward cache.

    ``seq`` is an id vector [L] or batch [B, L]; output is [4] or [B, 4].
    Callers that do not run ``model_backward`` use ``predict_proba``, which
    returns the same bits without building the cache.
    """
    return _forward(seq, spec, params, keep_cache=True)


def predict_proba(seq: Tensor, spec: ModelSpec, params: Mapping[str, Tensor]) -> Tensor:
    """Probabilities over the four classes, forward only.

    Bit-identical to ``model_forward(seq, spec, params)[0]``, but keeps only
    each layer's running state plus its input and output sequences, so
    memory does not grow with the cache BPTT needs.
    """
    probs, _ = _forward(seq, spec, params, keep_cache=False)
    return probs


def _forward(seq: Tensor, spec: ModelSpec, params: Mapping[str, Tensor],
             keep_cache: bool) -> tuple[Tensor, ForwardCache | None]:
    """Embedding, recurrent stack and dense head, shared by both forwards."""
    ids = np.asarray(seq)
    squeezed = ids.ndim == 1
    if squeezed:
        ids = ids[None, :]
    cache = ForwardCache(ids=ids) if keep_cache else None

    x = embedding_forward(ids.T, params["embedding"])
    for i, layer in enumerate(spec.recurrent_stack):
        _, dir_params = _layer_args(spec, params, i)
        x, caches = _layer_forward(x, layer, dir_params, keep_cache)
        if cache is not None:
            cache.layers.append(caches)

    hidden = relu(matmul(x, params["dense_hidden.W"]) + params["dense_hidden.b"])
    logits = matmul(hidden, params["output.W"]) + params["output.b"]
    probs = softmax(logits, axis=-1)
    if cache is not None:
        cache.features, cache.hidden, cache.probs = x, hidden, probs
    return (probs[0] if squeezed else probs), cache


def model_backward(cache: ForwardCache, labels: Tensor | int, spec: ModelSpec,
                   params: Mapping[str, Tensor]) -> ParamDict:
    """Exact gradient of mean cross-entropy(softmax) loss over the batch.

    ``labels`` are integer class codes: ``[B]`` matching the forward input,
    or a scalar (an int or a ``DamageLabel``) for a single record. A label
    array of another length, or a code outside ``0..3``, raises
    ``DimensionError``. Embedding gradients accumulate only into looked-up
    rows.
    """
    if len(cache.layers) != len(spec.recurrent_stack):
        raise DimensionError(
            f"cache holds {len(cache.layers)} layers, spec has "
            f"{len(spec.recurrent_stack)}"
        )
    codes = np.asarray(labels, dtype=np.int64).reshape(-1)
    B = cache.probs.shape[0]
    if codes.shape != (B,) or np.any((codes < 0) | (codes >= NUM_CLASSES)):
        raise DimensionError(
            f"labels {codes.tolist()} are not {B} class codes in 0..{NUM_CLASSES - 1}"
        )
    grads = {name: np.zeros_like(value) for name, value in params.items()}

    d_logits = cache.probs.copy()
    d_logits[np.arange(B), codes] -= 1.0
    d_logits /= B
    grads["output.W"] += matmul(cache.hidden.T, d_logits)
    grads["output.b"] += d_logits.sum(axis=0)
    d_pre = matmul(d_logits, params["output.W"].T) * _relu_deriv(cache.hidden)
    grads["dense_hidden.W"] += matmul(cache.features.T, d_pre)
    grads["dense_hidden.b"] += d_pre.sum(axis=0)

    d_next = matmul(d_pre, params["dense_hidden.W"].T)  # into the layer below
    for i in range(len(spec.recurrent_stack) - 1, -1, -1):
        prefixes, dir_params = _layer_args(spec, params, i)
        d_next, dir_grads = _layer_backward(d_next, spec.recurrent_stack[i],
                                            dir_params, cache.layers[i])
        for prefix, g in zip(prefixes, dir_grads):
            for name, value in g.items():
                grads[prefix + name] += value

    # Batch-major rows, so repeated ids accumulate in the same order as the
    # records' own token order.
    ids = cache.ids.reshape(-1)
    np.add.at(grads["embedding"], ids,
              d_next.transpose(1, 0, 2).reshape(-1, spec.embedding_dim))
    return grads


def predict_classes(probs: Tensor) -> np.ndarray:
    """Class codes of the maximum probability along the last axis; ties
    break to the lowest index."""
    return np.argmax(np.asarray(probs), axis=-1)
