"""Embedding, recurrent cells (simple/LSTM/GRU), bidirectional wrapping,
dense head, and exact backpropagation through time.

Architecture: token ids -> embedding lookup -> recurrent stack (each layer
feeds the next; only the last layer collapses to its final state) -> one
ReLU dense hidden layer (optional) -> dense output with softmax.

Gradients are hand-derived per layer; there is no autodiff. The backward
pass consumes the forward cache without recomputation and is exact for the
loss ``cross-entropy(softmax(logits))``, which is why finite-difference
checks can pin it to 1e-5 relative error.

Gate activations are always the logistic sigmoid (gating needs the (0,1)
range); the candidate/state activation defaults to tanh for LSTM/GRU, and
the simple cell and dense hidden layer default to ReLU. Both are
configurable on ``ModelSpec``.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .corpus_ingest import DamageLabel
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
ModelParams = ParamDict


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


@dataclass(frozen=True)
class ModelSpec:
    """Ordered architecture description; fully determines parameter shapes
    together with the vocabulary size."""

    name: str
    embedding_dim: int
    recurrent_stack: tuple[RecurrentLayerSpec, ...]
    dense_hidden_units: int
    num_classes: int = NUM_CLASSES
    hidden_activation: str = "relu"   # simple cell and dense hidden layer
    cell_activation: str = "tanh"     # LSTM/GRU candidate and state
    use_dense_hidden: bool = True
    mask_padding: bool = False

    def __post_init__(self):
        if self.num_classes != NUM_CLASSES:
            raise ValueError(f"num_classes is fixed at {NUM_CLASSES}")
        if self.embedding_dim < 1 or self.dense_hidden_units < 1:
            raise ValueError("embedding_dim and dense_hidden_units must be positive")
        if not self.recurrent_stack:
            raise ValueError("recurrent_stack must contain at least one layer")
        for layer in self.recurrent_stack[:-1]:
            if not layer.returns_sequence:
                raise ValueError("every layer except the last must return sequences")
        if self.recurrent_stack[-1].returns_sequence:
            raise ValueError("the last recurrent layer must not return sequences")
        for act in (self.hidden_activation, self.cell_activation):
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")

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
            "num_classes": self.num_classes,
            "hidden_activation": self.hidden_activation,
            "cell_activation": self.cell_activation,
            "use_dense_hidden": self.use_dense_hidden,
            "mask_padding": self.mask_padding,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelSpec":
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
            num_classes=data["num_classes"],
            hidden_activation=data["hidden_activation"],
            cell_activation=data["cell_activation"],
            use_dense_hidden=data["use_dense_hidden"],
            mask_padding=data["mask_padding"],
        )


# Derivatives are taken from the activation OUTPUT, which every supported
# activation permits; the cache then never stores pre-activations.
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (relu, lambda out: (out > 0).astype(np.float64)),
    "tanh": (np.tanh, lambda out: 1.0 - out * out),
}


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
    if spec.use_dense_hidden:
        shapes["dense_hidden.W"] = (spec.feature_width, spec.dense_hidden_units)
        shapes["dense_hidden.b"] = (spec.dense_hidden_units,)
        out_in = spec.dense_hidden_units
    else:
        out_in = spec.feature_width
    shapes["output.W"] = (out_in, spec.num_classes)
    shapes["output.b"] = (spec.num_classes,)
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


def zero_grads(params: ParamDict) -> ParamDict:
    return {name: np.zeros_like(value) for name, value in params.items()}


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

# Time steps per input-projection GEMM. One GEMM over a whole sequence would
# hold an [L, B, G*H] buffer (262 MB for an LSTM at L=2000, B=64, H=64); a
# chunk keeps it near 8 MB and still amortises the call over many steps.
CHUNK_STEPS = 64


def _kind_activation(kind: CellKind, hidden_activation: str,
                     cell_activation: str) -> str:
    return hidden_activation if kind is CellKind.SRNN else cell_activation


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
    block, and in this direction's processing order (the bidirectional
    wrapper reverses inputs before calling in).
    """

    kind: CellKind
    x: Tensor                      # [L, B, in]
    h: Tensor                      # [L+1, B, H]; h[0] initial, post-mask states
    gates: Tensor | None = None    # [L, B, G*H] activated gates, FUSED_GATES order
    c: Tensor | None = None        # [L+1, B, H] LSTM cell states, post-mask
    ac: Tensor | None = None       # [L, B, H] LSTM act(c) before masking
    mask: Tensor | None = None     # [L, B, 1], 1.0 at real tokens


def _direction_forward(x: Tensor, kind: CellKind, p: Mapping[str, Tensor],
                       activation: str, mask: Tensor | None,
                       h0: Tensor | None = None, c0: Tensor | None = None
                       ) -> DirectionCache:
    """Run one cell over ``x`` [L, B, in] from ``h0``/``c0`` (zeros by default).

    ``activation`` is the cell's own: the simple cell's, or the LSTM/GRU
    candidate and state activation.
    """
    L, B, n_in = x.shape
    H = p[f"b{FUSED_GATES[kind][0]}"].shape[0] if h0 is None else h0.shape[-1]
    W, U, b = _fuse_params(kind, p, n_in, H)
    act, _ = _ACTIVATIONS[activation]
    n_sig = _SIGMOID_GATES[kind] * H
    cols = _gate_columns(kind, H)
    h = np.empty((L + 1, B, H))
    h[0] = 0.0 if h0 is None else h0
    cache = DirectionCache(kind=kind, x=x, h=h, mask=mask)
    if kind is CellKind.LSTM:
        cache.c = np.empty((L + 1, B, H))
        cache.c[0] = 0.0 if c0 is None else c0
        cache.ac = np.empty((L, B, H))
    if kind is not CellKind.SRNN:
        cache.gates = np.empty((L, B, W.shape[1]))
    c, ac, gates = cache.c, cache.ac, cache.gates

    for t0 in range(0, L, CHUNK_STEPS):
        # The bias is added after x W + h U, in the same order as a per-gate
        # affine map, so the fused kernel reproduces it bit for bit.
        xw = matmul(x[t0:t0 + CHUNK_STEPS].reshape(-1, n_in), W).reshape(-1, B, W.shape[1])
        for t in range(t0, t0 + xw.shape[0]):
            xw_t, h_prev = xw[t - t0], h[t]
            if kind is CellKind.SRNN:
                new_h = act(xw_t + matmul(h_prev, U) + b)
            elif kind is CellKind.LSTM:
                pre = xw_t + matmul(h_prev, U) + b
                g_t = gates[t]
                g_t[:, :n_sig] = sigmoid(pre[:, :n_sig])
                g_t[:, n_sig:] = act(pre[:, n_sig:])
                i, f, o, g = (g_t[:, cols[k]] for k in ("_i", "_f", "_o", "_g"))
                new_c = f * c[t] + i * g
                ac[t] = act(new_c)
                new_h = o * ac[t]
            else:
                g_t = gates[t]
                g_t[:, :n_sig] = sigmoid(xw_t[:, :n_sig] + matmul(h_prev, U) + b[:n_sig])
                z, r, hbar = (g_t[:, cols[k]] for k in ("_z", "_r", "_h"))
                hbar[:] = act(xw_t[:, n_sig:] + matmul(r * h_prev, p["U_h"]) + b[n_sig:])
                new_h = (1.0 - z) * h_prev + z * hbar
            if mask is None:
                h[t + 1] = new_h
                if c is not None:
                    c[t + 1] = new_c
            else:
                m = mask[t]
                h[t + 1] = m * new_h + (1.0 - m) * h_prev
                if c is not None:
                    c[t + 1] = m * new_c + (1.0 - m) * c[t]
    return cache


def _direction_backward(d_out: Tensor, cache: DirectionCache, p: Mapping[str, Tensor],
                        activation: str) -> tuple[Tensor, ParamDict]:
    """Exact BPTT for one direction; returns (d_inputs [L, B, in], gradients).

    ``d_out`` is the gradient of every step's output [L, B, H], or of the
    final state only [B, H].

    ``dW`` and ``dU`` take one GEMM per step into fused buffers. The input
    and state gradients keep one GEMM per gate, summed in GATE_NAMES order:
    fusing them would change the summation order and hence the bits.
    """
    kind = cache.kind
    _, act_deriv = _ACTIVATIONS[activation]
    L, B, n_in = cache.x.shape
    H = cache.h.shape[2]
    n_sig = _SIGMOID_GATES[kind] * H
    cols = _gate_columns(kind, H)
    d_pre = np.empty((B, len(cols) * H))
    dW = np.zeros((n_in, d_pre.shape[1]))
    dU = np.zeros((H, n_sig if kind is CellKind.GRU else d_pre.shape[1]))
    db = np.zeros(d_pre.shape[1])
    dU_h = np.zeros((H, H)) if kind is CellKind.GRU else None
    x_terms = [(cols[g], p[f"W{g}"].T) for g in GATE_NAMES[kind]]
    h_terms = [(cols[g], p[f"U{g}"].T) for g in GATE_NAMES[kind]
               if not (kind is CellKind.GRU and g == "_h")]
    d_x = np.zeros_like(cache.x)
    sequence = d_out.ndim == 3
    dh_carry = np.zeros((B, H)) if sequence else d_out
    dc_carry = np.zeros((B, H))

    for t in range(L - 1, -1, -1):
        x_t, h_prev = cache.x[t], cache.h[t]
        dh_total = d_out[t] + dh_carry if sequence else dh_carry
        if cache.mask is None:
            dh_raw, dc_raw_in = dh_total, dc_carry
        else:
            m = cache.mask[t]
            dh_raw = dh_total * m
            dh_prev_extra = dh_total * (1.0 - m)
            dc_raw_in = dc_carry * m
            dc_prev_extra = dc_carry * (1.0 - m)

        if kind is CellKind.SRNN:
            # h[t+1] equals the pre-mask state wherever the mask lets the
            # gradient through.
            d_pre[:] = dh_raw * act_deriv(cache.h[t + 1])
            dh = np.zeros((B, H))
        elif kind is CellKind.LSTM:
            g_t = cache.gates[t]
            i, f, o, g = (g_t[:, cols[k]] for k in ("_i", "_f", "_o", "_g"))
            ac = cache.ac[t]
            dc = dc_raw_in + dh_raw * o * act_deriv(ac)
            d_pre[:, cols["_i"]] = dc * g
            d_pre[:, cols["_f"]] = dc * cache.c[t]
            d_pre[:, cols["_o"]] = dh_raw * ac
            d_pre[:, :n_sig] *= _sigmoid_deriv(g_t[:, :n_sig])
            d_pre[:, cols["_g"]] = dc * i * act_deriv(g)
            dh = np.zeros((B, H))
            dc_carry = dc * f
            if cache.mask is not None:
                dc_carry += dc_prev_extra
        else:  # GRU
            g_t = cache.gates[t]
            z, r, hbar = (g_t[:, cols[k]] for k in ("_z", "_r", "_h"))
            d_pre[:, cols["_h"]] = dh_raw * z * act_deriv(hbar)
            d_rh = matmul(d_pre[:, cols["_h"]], p["U_h"].T)
            d_pre[:, cols["_z"]] = dh_raw * (hbar - h_prev)
            d_pre[:, cols["_r"]] = d_rh * h_prev
            d_pre[:, :n_sig] *= _sigmoid_deriv(g_t[:, :n_sig])
            dU_h += matmul((r * h_prev).T, d_pre[:, cols["_h"]])
            dh = dh_raw * (1.0 - z) + d_rh * r

        dW += matmul(x_t.T, d_pre)
        dU += matmul(h_prev.T, d_pre[:, :dU.shape[1]])
        db += d_pre.sum(axis=0)
        for cs, Wt in x_terms:
            d_x[t] += matmul(d_pre[:, cs], Wt)
        for cs, Ut in h_terms:
            dh += matmul(d_pre[:, cs], Ut)
        if cache.mask is not None:
            dh += dh_prev_extra
        dh_carry = dh

    grads: ParamDict = {}
    for gate, cs in cols.items():
        grads[f"W{gate}"] = dW[:, cs]
        grads[f"U{gate}"] = dU_h if gate == "_h" else dU[:, cs]
        grads[f"b{gate}"] = db[cs]
    return d_x, grads


def _as_batch(v: Tensor) -> tuple[Tensor, bool]:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        return v[None, :], True
    return v, False


def srnn_step(x_t: Tensor, h_prev: Tensor, params: Mapping[str, Tensor],
              activation: str = "relu") -> Tensor:
    """One simple-cell step: act(W x + U h_prev + b); ReLU by default."""
    x, squeeze = _as_batch(x_t)
    h_prev, _ = _as_batch(h_prev)
    h = _direction_forward(x[None], CellKind.SRNN, params, activation, None, h_prev).h[1]
    return h[0] if squeeze else h


def lstm_step(x_t: Tensor, h_prev: Tensor, c_prev: Tensor,
              params: Mapping[str, Tensor],
              cell_activation: str = "tanh") -> tuple[Tensor, Tensor]:
    """One LSTM step; gates are logistic sigmoid regardless of configuration."""
    x, squeeze = _as_batch(x_t)
    h_prev, _ = _as_batch(h_prev)
    c_prev, _ = _as_batch(c_prev)
    if c_prev.shape != h_prev.shape:
        raise DimensionError(f"cell state {c_prev.shape} does not match h_prev {h_prev.shape}")
    cache = _direction_forward(x[None], CellKind.LSTM, params, cell_activation, None,
                               h_prev, c_prev)
    h, c = cache.h[1], cache.c[1]
    return (h[0], c[0]) if squeeze else (h, c)


def gru_step(x_t: Tensor, h_prev: Tensor, params: Mapping[str, Tensor],
             cell_activation: str = "tanh") -> Tensor:
    """One GRU step with the reset gate applied to h_prev inside U_h."""
    x, squeeze = _as_batch(x_t)
    h_prev, _ = _as_batch(h_prev)
    h = _direction_forward(x[None], CellKind.GRU, params, cell_activation, None, h_prev).h[1]
    return h[0] if squeeze else h


# ---------------------------------------------------------------------------
# Layer-level forward/backward (public sequence ops)
# ---------------------------------------------------------------------------

def _bidirectional_outputs(fwd: DirectionCache, bwd: DirectionCache,
                           returns_sequence: bool) -> Tensor:
    """Time-major [L, B, 2H] per-step outputs, or [B, 2H] final states."""
    if returns_sequence:
        return np.concatenate([fwd.h[1:], bwd.h[:0:-1]], axis=2)
    return np.concatenate([fwd.h[-1], bwd.h[-1]], axis=1)


def recurrent_forward(inputs: Tensor, layer: RecurrentLayerSpec,
                      params: Mapping[str, Tensor],
                      hidden_activation: str = "relu",
                      cell_activation: str = "tanh") -> Tensor:
    """Run a unidirectional layer left-to-right from zero initial state.

    ``inputs`` is [L, d] (or [B, L, d]); returns the per-step output
    sequence when the layer returns sequences, else the final hidden state.
    """
    if layer.bidirectional:
        raise DimensionError("use bidirectional_forward for bidirectional layers")
    x, squeeze = _as_seq_batch(inputs)
    activation = _kind_activation(layer.kind, hidden_activation, cell_activation)
    h = _direction_forward(x, layer.kind, params, activation, mask=None).h
    result = h[1:].transpose(1, 0, 2) if layer.returns_sequence else h[-1]
    return result[0] if squeeze else result


def bidirectional_forward(inputs: Tensor, layer: RecurrentLayerSpec,
                          params_fwd: Mapping[str, Tensor],
                          params_bwd: Mapping[str, Tensor],
                          hidden_activation: str = "relu",
                          cell_activation: str = "tanh") -> Tensor:
    """Concatenate a left-to-right pass and a right-to-left pass.

    Per-step outputs are [fwd_t, bwd_t]; the final-state form concatenates
    each direction's own final state.
    """
    if not layer.bidirectional:
        raise DimensionError("layer.bidirectional must be true")
    x, squeeze = _as_seq_batch(inputs)
    activation = _kind_activation(layer.kind, hidden_activation, cell_activation)
    fwd = _direction_forward(x, layer.kind, params_fwd, activation, mask=None)
    bwd = _direction_forward(x[::-1], layer.kind, params_bwd, activation, mask=None)
    result = _bidirectional_outputs(fwd, bwd, layer.returns_sequence)
    if layer.returns_sequence:
        result = result.transpose(1, 0, 2)
    return result[0] if squeeze else result


def _as_seq_batch(inputs: Tensor) -> tuple[Tensor, bool]:
    """Time-major [L, B, d] view of [L, d] or [B, L, d] inputs."""
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim == 2:
        return arr[:, None], True
    if arr.ndim == 3:
        return arr.transpose(1, 0, 2), False
    raise DimensionError(f"expected [L, d] or [B, L, d] inputs, got {arr.shape}")


# ---------------------------------------------------------------------------
# Whole-model forward and backward
# ---------------------------------------------------------------------------

@dataclass
class LayerState:
    spec: RecurrentLayerSpec
    fwd: DirectionCache
    bwd: DirectionCache | None = None


@dataclass
class ForwardCache:
    """Forward intermediates, sufficient to run backward without recompute."""

    ids: Tensor                       # [B, L]
    layers: list[LayerState] = field(default_factory=list)
    features: Tensor | None = None    # [B, feature_width]
    hidden: Tensor | None = None      # [B, dense_hidden], post-activation
    probs: Tensor | None = None       # [B, num_classes]
    mask: Tensor | None = None        # [L, B, 1], 1.0 at real tokens
    squeezed: bool = False


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
    """Probabilities over the four classes (plus the backward cache).

    ``seq`` is an id vector [L] or batch [B, L]; output is [4] or [B, 4].
    """
    ids = np.asarray(seq)
    squeezed = ids.ndim == 1
    if squeezed:
        ids = ids[None, :]
    cache = ForwardCache(ids=ids, squeezed=squeezed)
    if spec.mask_padding:
        cache.mask = (ids.T != 0).astype(np.float64)[:, :, None]

    x = embedding_forward(ids.T, params["embedding"])
    for i, layer in enumerate(spec.recurrent_stack):
        x, state = _layer_forward(x, i, layer, spec, params, cache.mask)
        cache.layers.append(state)
    cache.features = x

    if spec.use_dense_hidden:
        act, _ = _ACTIVATIONS[spec.hidden_activation]
        cache.hidden = act(
            matmul(x, params["dense_hidden.W"]) + params["dense_hidden.b"]
        )
        logits = matmul(cache.hidden, params["output.W"]) + params["output.b"]
    else:
        logits = matmul(x, params["output.W"]) + params["output.b"]
    cache.probs = softmax(logits, axis=-1)
    probs = cache.probs[0] if squeezed else cache.probs
    return probs, cache


def _layer_forward(x: Tensor, index: int, layer: RecurrentLayerSpec,
                   spec: ModelSpec, params: Mapping[str, Tensor],
                   mask: Tensor | None) -> tuple[Tensor, LayerState]:
    """Time-major layer outputs: [L, B, width] or final states [B, width]."""
    activation = _kind_activation(layer.kind, spec.hidden_activation, spec.cell_activation)
    if layer.bidirectional:
        fwd = _direction_forward(x, layer.kind, _sub_params(params, _prefix(index, "fwd")),
                                 activation, mask)
        bwd = _direction_forward(x[::-1], layer.kind,
                                 _sub_params(params, _prefix(index, "bwd")), activation,
                                 mask[::-1] if mask is not None else None)
        out = _bidirectional_outputs(fwd, bwd, layer.returns_sequence)
        return out, LayerState(spec=layer, fwd=fwd, bwd=bwd)
    fwd = _direction_forward(x, layer.kind, _sub_params(params, _prefix(index, "")),
                             activation, mask)
    return (fwd.h[1:] if layer.returns_sequence else fwd.h[-1]), LayerState(spec=layer, fwd=fwd)


def model_backward(cache: ForwardCache, label: Tensor, spec: ModelSpec,
                   params: Mapping[str, Tensor]) -> ParamDict:
    """Exact gradient of mean cross-entropy(softmax) loss over the batch.

    ``label`` is a one-hot [4] vector (or batch [B, 4]) matching the forward
    input. Embedding gradients accumulate only into looked-up rows.
    """
    if len(cache.layers) != len(spec.recurrent_stack):
        raise DimensionError(
            f"cache holds {len(cache.layers)} layers, spec has "
            f"{len(spec.recurrent_stack)}"
        )
    onehot = np.asarray(label, dtype=np.float64)
    if onehot.ndim == 1:
        onehot = onehot[None, :]
    B = cache.probs.shape[0]
    if onehot.shape != cache.probs.shape:
        raise DimensionError(
            f"labels {onehot.shape} do not match probabilities {cache.probs.shape}"
        )
    grads = {name: np.zeros_like(value) for name, value in params.items()}

    d_logits = (cache.probs - onehot) / B
    if spec.use_dense_hidden:
        _, act_deriv = _ACTIVATIONS[spec.hidden_activation]
        grads["output.W"] += matmul(cache.hidden.T, d_logits)
        grads["output.b"] += d_logits.sum(axis=0)
        d_hidden = matmul(d_logits, params["output.W"].T)
        d_pre = d_hidden * act_deriv(cache.hidden)
        grads["dense_hidden.W"] += matmul(cache.features.T, d_pre)
        grads["dense_hidden.b"] += d_pre.sum(axis=0)
        d_feat = matmul(d_pre, params["dense_hidden.W"].T)
    else:
        grads["output.W"] += matmul(cache.features.T, d_logits)
        grads["output.b"] += d_logits.sum(axis=0)
        d_feat = matmul(d_logits, params["output.W"].T)

    d_next: Tensor = d_feat  # gradient flowing into the layer below
    for i in range(len(spec.recurrent_stack) - 1, -1, -1):
        d_next = _layer_backward(d_next, i, cache.layers[i], spec, params, grads)

    # Batch-major rows, so repeated ids accumulate in the same order as the
    # records' own token order.
    ids = cache.ids.reshape(-1)
    np.add.at(grads["embedding"], ids,
              d_next.transpose(1, 0, 2).reshape(-1, spec.embedding_dim))
    return grads


def _layer_backward(d_out: Tensor, index: int, state: LayerState,
                    spec: ModelSpec, params: Mapping[str, Tensor],
                    grads: ParamDict) -> Tensor:
    """Gradient of the layer's time-major input, [L, B, in]."""
    layer = state.spec
    H = layer.hidden_units
    activation = _kind_activation(layer.kind, spec.hidden_activation, spec.cell_activation)
    if layer.bidirectional:
        d_bwd = d_out[..., H:][::-1] if layer.returns_sequence else d_out[..., H:]
        directions = [("fwd", state.fwd, d_out[..., :H]), ("bwd", state.bwd, d_bwd)]
    else:
        directions = [("", state.fwd, d_out)]
    d_inputs = []
    for direction, dir_cache, d_dir in directions:
        prefix = _prefix(index, direction)
        d_in, g = _direction_backward(d_dir, dir_cache, _sub_params(params, prefix),
                                      activation)
        for name, value in g.items():
            grads[prefix + name] += value
        d_inputs.append(d_in)
    if layer.bidirectional:
        return d_inputs[0] + d_inputs[1][::-1]
    return d_inputs[0]


def predict_class(probs: Tensor) -> DamageLabel:
    """Index of the maximum probability; ties break to the lowest index."""
    arr = np.asarray(probs)
    if arr.shape != (NUM_CLASSES,):
        raise DimensionError(f"expected a 4-vector of probabilities, got {arr.shape}")
    return DamageLabel(int(np.argmax(arr)))


def predict_classes(probs: Tensor) -> np.ndarray:
    """Batched argmax with the same lowest-index tie-break."""
    return np.argmax(np.asarray(probs), axis=-1)
